"""Tests for repro.network.topology."""

import numpy as np
import pytest

from repro.network.topology import Topology, random_regular


class TestTopology:
    def test_basic_adjacency(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.neighbors(1) == (0, 2)
        assert topo.degree(0) == 1
        assert topo.n_edges == 3

    def test_duplicate_edges_collapsed(self):
        topo = Topology(3, [(0, 1), (1, 0), (0, 1)])
        assert topo.n_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 5)])

    def test_edges_listing(self):
        topo = Topology(3, [(2, 0), (0, 1)])
        assert set(topo.edges()) == {(0, 1), (0, 2)}

    def test_has_edge(self):
        topo = Topology(3, [(0, 1)])
        assert topo.has_edge(0, 1) and topo.has_edge(1, 0)
        assert not topo.has_edge(0, 2)

    def test_connectivity(self):
        connected = Topology(3, [(0, 1), (1, 2)])
        disconnected = Topology(4, [(0, 1), (2, 3)])
        assert connected.is_connected()
        assert not disconnected.is_connected()

    def test_component_of(self):
        topo = Topology(5, [(0, 1), (1, 2), (3, 4)])
        assert topo.component_of(0) == {0, 1, 2}
        assert topo.component_of(4) == {3, 4}

    def test_shortest_path_length(self):
        topo = Topology(5, [(0, 1), (1, 2), (2, 3)])
        assert topo.shortest_path_length(0, 3) == 3
        assert topo.shortest_path_length(0, 0) == 0
        assert topo.shortest_path_length(0, 4) is None


class TestRandomRegular:
    def test_degrees_exact(self, rng):
        topo = random_regular(60, 4, rng=rng)
        assert all(d == 4 for d in topo.degrees())

    def test_connected(self, rng):
        assert random_regular(100, 6, rng=rng).is_connected()

    def test_matches_networkx_regularity_oracle(self):
        # Degrees and simple-graph properties checked against networkx.
        nx = pytest.importorskip("networkx")
        topo = random_regular(80, 6, rng=np.random.default_rng(3))
        g = nx.Graph(topo.edges())
        assert set(dict(g.degree()).values()) == {6}
        assert nx.is_connected(g)

    def test_a_shuffle_that_pairs_no_edge_is_redrawn(self):
        """Seed 282's first shuffle of five 2-stub nodes refuses every
        pair, which left no edge to repair with: a reshuffle, not an error."""
        topo = random_regular(5, 2, rng=282)
        assert topo.degrees() == [2] * 5
        assert topo.is_connected()

    def test_odd_total_stubs_rejected(self, rng):
        with pytest.raises(ValueError):
            random_regular(5, 3, rng=rng)

    def test_degree_bounds(self, rng):
        with pytest.raises(ValueError):
            random_regular(5, 5, rng=rng)

