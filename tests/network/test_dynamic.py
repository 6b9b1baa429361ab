"""Tests for the edit half of repro.network.topology.Topology."""

import pytest

from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.topology import Topology
from tests.network.test_engine import RecordingPolicy, StubOverlay


def make_line(n=4, max_degree=None):
    return Topology(n, [(i, i + 1) for i in range(n - 1)], max_degree=max_degree)


class TestReadInterface:
    def test_mirrors_topology_semantics(self):
        dyn = make_line()
        assert dyn.neighbors(1) == (0, 2)
        assert dyn.degree(0) == 1
        assert dyn.n_edges == 3
        assert dyn.is_connected()
        assert dyn.shortest_path_length(0, 3) == 3

    def test_from_topology(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        dyn = Topology(topo.n_nodes, topo.edges(), max_degree=5)
        assert dyn.edges() == topo.edges()

    def test_component_of(self):
        dyn = Topology(4, [(0, 1), (2, 3)])
        assert dyn.component_of(0) == {0, 1}


class TestMutation:
    def test_add_edge(self):
        dyn = make_line()
        dyn.add_edge(0, 3)
        assert dyn.has_edge(0, 3)
        assert dyn.shortest_path_length(0, 3) == 1
        assert dyn.n_edges == 4

    def test_add_existing_edge_is_noop(self):
        dyn = make_line()
        dyn.add_edge(0, 1)
        assert dyn.n_edges == 3

    def test_degree_cap(self):
        dyn = make_line(max_degree=2)
        assert not dyn.can_add_edge(1, 3)  # node 1 already at degree 2
        with pytest.raises(ValueError):
            dyn.add_edge(1, 3)
        assert dyn.can_add_edge(0, 3)
        dyn.add_edge(0, 3)

    def test_remove_edge(self):
        dyn = make_line()
        dyn.remove_edge(1, 2)
        assert not dyn.has_edge(1, 2)
        assert not dyn.is_connected()
        assert dyn.n_edges == 2

    def test_remove_missing_edge(self):
        with pytest.raises(ValueError):
            make_line().remove_edge(0, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_line().add_edge(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_line().add_edge(0, 99)

    def test_can_add_edge_false_for_existing(self):
        assert not make_line().can_add_edge(0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(0, [])
        with pytest.raises(ValueError):
            Topology(3, [], max_degree=0)

    def test_budget_below_a_nodes_degree_is_rejected(self):
        with pytest.raises(ValueError):
            make_line(max_degree=1)  # the inner nodes need two
        line = make_line()
        with pytest.raises(ValueError):
            line.max_degree = 1
        assert line.max_degree is None
        line.max_degree = 2
        assert not line.can_add_edge(1, 3) and line.can_add_edge(0, 3)


class TestDerivedViews:
    """The sorted neighbour tuples and the CSR arrays follow every mutation."""

    @staticmethod
    def csr_neighbors(dyn, node):
        indptr, indices = dyn.csr()
        return tuple(indices[indptr[node] : indptr[node + 1]].tolist())

    def test_neighbors_tuple_is_kept_until_an_edge_changes(self):
        dyn = make_line(5)
        first = dyn.neighbors(1)
        assert dyn.neighbors(1) is first
        dyn.add_edge(3, 4)  # existing edge: nothing changed
        dyn.remove_edge(3, 4)
        assert dyn.neighbors(1) is first  # not at node 1
        dyn.add_edge(1, 4)
        assert dyn.neighbors(1) == (0, 2, 4)
        assert dyn.neighbors(4) == (1,)

    def test_csr_follows_mutation(self):
        dyn = make_line(5)
        version = dyn.version
        assert self.csr_neighbors(dyn, 2) == (1, 3)
        assert dyn.csr() is dyn.csr()
        dyn.add_edge(0, 2)
        assert dyn.version > version
        assert self.csr_neighbors(dyn, 2) == (0, 1, 3)
        dyn.remove_edge(2, 3)
        assert self.csr_neighbors(dyn, 2) == (0, 1)
        dyn.detach_node(2)
        assert self.csr_neighbors(dyn, 2) == ()
        for node in range(5):
            assert self.csr_neighbors(dyn, node) == dyn.neighbors(node)

    @pytest.mark.parametrize(
        "mutate, reached",
        [
            (lambda dyn: dyn.add_edge(0, 4), 2),  # 0 - 4 directly
            (lambda dyn: dyn.remove_edge(0, 1), 0),  # origin cut off
            (lambda dyn: dyn.detach_node(1), 0),
        ],
    )
    def test_second_broadcast_sees_the_rewire(self, mutate, reached):
        dyn = make_line(5)
        overlay = StubOverlay(dyn, {4: {5}})
        engine = QueryEngine(overlay)
        query = Query(guid=1, origin=0, file_id=5, category=0, ttl=1)
        assert engine.broadcast(query).messages == 1  # 0 -> 1 only
        mutate(dyn)
        out = engine.broadcast(query)
        assert out.messages == reached
        assert out.hits == (1 if reached == 2 else 0)

    def test_rewire_from_a_reply_hook_is_seen_by_the_next_query(self):
        dyn = make_line(5)
        overlay = StubOverlay(dyn, {2: {5}})

        class Rewirer(RecordingPolicy):
            def on_reply(self, **event):
                super().on_reply(**event)
                if not dyn.has_edge(0, 2):
                    dyn.add_edge(0, 2)

        overlay.node(0).policy = Rewirer()
        engine = QueryEngine(overlay)
        query = Query(guid=1, origin=0, file_id=5, category=0, ttl=3)
        assert engine.broadcast(query).first_hit_hops == 2
        assert engine.broadcast(query).first_hit_hops == 1
