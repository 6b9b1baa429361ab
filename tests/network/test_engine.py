"""Tests for repro.network.engine on hand-built overlays."""

import numpy as np
import pytest

from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.node import PeerNode
from repro.network.topology import Topology
from repro.workload.interests import InterestProfile


class StubCatalog:
    n_categories = 2

    def category_of(self, file_id):
        return 0


class StubOverlay:
    """Minimal overlay: explicit topology and libraries."""

    def __init__(self, topology, libraries):
        self.topology = topology
        profile = InterestProfile(categories=(0,), weights=(1.0,))
        self._nodes = [
            PeerNode(node_id=i, profile=profile, library=frozenset(libraries.get(i, ())))
            for i in range(topology.n_nodes)
        ]
        self.catalog = StubCatalog()

    def node(self, node_id):
        return self._nodes[node_id]

    @property
    def n_nodes(self):
        return len(self._nodes)


def flood_select(overlay):
    return lambda node, upstream, query: overlay.topology.neighbors(node)


def line_overlay(n, holder):
    """0 - 1 - 2 - ... - (n-1); ``holder`` shares file 5."""
    topo = Topology(n, [(i, i + 1) for i in range(n - 1)])
    return StubOverlay(topo, {holder: {5}})


class TestReach:
    def test_line_reach_in_discovery_order(self):
        engine = QueryEngine(line_overlay(5, holder=3))
        reach = engine.reach(1, 2)
        assert reach.order.tolist() == [0, 2, 3]
        assert reach.depth.tolist() == [1, 1, 2]
        assert (reach.messages, reach.duplicates) == (3, 0)
        assert engine.ids(reach.order) == [0, 2, 3]

    def test_ttl_below_one_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine(line_overlay(3, holder=0)).reach(0, 0)

    @pytest.mark.parametrize("origin", [-3, -1, 5])
    def test_origin_outside_the_nodes_rejected(self, origin):
        engine = QueryEngine(line_overlay(5, holder=3))
        with pytest.raises(ValueError, match=r"range\(0, 5\)"):
            engine.reach(origin, 2)


class TestBroadcast:
    @pytest.mark.parametrize("origin", [-1, 3])
    @pytest.mark.parametrize("callback", [False, True])
    @pytest.mark.parametrize("feedback", [False, True])
    def test_origin_outside_the_nodes_rejected(self, origin, callback, feedback):
        overlay = line_overlay(3, holder=1)
        select = flood_select(overlay) if callback else None
        q = Query(guid=1, origin=origin, file_id=5, category=0, ttl=2)
        with pytest.raises(ValueError, match=r"range\(0, 3\)"):
            QueryEngine(overlay).broadcast(q, select, feedback=feedback)

    def test_local_hit_costs_nothing(self):
        overlay = line_overlay(3, holder=0)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=5)
        out = engine.broadcast(q, flood_select(overlay))
        assert out.hits == 1
        assert out.messages == 0
        assert out.first_hit_hops == 0

    def test_hit_at_distance(self):
        overlay = line_overlay(5, holder=3)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=5)
        out = engine.broadcast(q, flood_select(overlay))
        assert out.hits == 1
        assert out.first_hit_hops == 3
        assert out.messages == 4  # the line has 4 edges within ttl

    def test_ttl_limits_reach(self):
        overlay = line_overlay(5, holder=3)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=2)
        out = engine.broadcast(q, flood_select(overlay))
        assert out.hits == 0
        assert out.messages == 2

    def test_duplicate_counting_on_cycle(self):
        # Triangle: 0-1, 1-2, 0-2.  Flood from 0 with ttl 2.
        topo = Topology(3, [(0, 1), (1, 2), (0, 2)])
        overlay = StubOverlay(topo, {})
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=2)
        out = engine.broadcast(q, flood_select(overlay))
        # hop1: 0->1, 0->2 (2 msgs); hop2: 1->2 dup, 2->1 dup (2 msgs).
        assert out.messages == 4
        assert out.duplicates == 2

    def test_no_forward_back_to_upstream(self):
        overlay = line_overlay(3, holder=2)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=5)
        out = engine.broadcast(q, flood_select(overlay))
        # 0->1, 1->2 only; node 1 does not send back to 0.
        assert out.messages == 2

    def test_multiple_providers_counted(self):
        topo = Topology(4, [(0, 1), (0, 2), (0, 3)])
        overlay = StubOverlay(topo, {1: {5}, 3: {5}})
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=1)
        out = engine.broadcast(q, flood_select(overlay))
        assert out.hits == 2
        assert out.first_hit_hops == 1


class RecordingPolicy:
    def __init__(self):
        self.events = []

    def on_reply(self, *, node_id, upstream, downstream, query, provider):
        self.events.append((node_id, upstream, downstream, provider))


class TestReplyFeedback:
    def test_reverse_path_events(self):
        overlay = line_overlay(4, holder=3)
        policies = {}
        for i in range(4):
            policy = RecordingPolicy()
            overlay.node(i).policy = policy
            policies[i] = policy
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=5)
        engine.broadcast(q, flood_select(overlay))
        # Reply walks 3 -> 2 -> 1 -> 0.
        assert policies[2].events == [(2, 1, 3, 3)]
        assert policies[1].events == [(1, 0, 2, 3)]
        # At the origin, the upstream is the node itself (local user).
        assert policies[0].events == [(0, 0, 1, 3)]
        assert policies[3].events == []  # the provider gets no feedback

    def test_feedback_disabled(self):
        overlay = line_overlay(3, holder=2)
        policy = RecordingPolicy()
        overlay.node(1).policy = policy
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=5)
        engine.broadcast(q, flood_select(overlay), feedback=False)
        assert policy.events == []


class TestWalk:
    def test_walker_finds_content_on_line(self):
        overlay = line_overlay(6, holder=5)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=10)
        out = engine.walk(q, n_walkers=1, rng=np.random.default_rng(0))
        # On a line with no-bounce-back, the single walker marches to 5.
        assert out.hits == 1
        assert out.first_hit_hops == 5
        assert out.messages == 5

    def test_steps_outrun_a_byte_of_ttl(self):
        overlay = line_overlay(301, holder=300)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=7)
        out = engine.walk(q, n_walkers=1, rng=np.random.default_rng(0), steps=300)
        assert (out.hits, out.first_hit_hops, out.messages) == (1, 300, 300)
        short = engine.walk(q, n_walkers=1, rng=np.random.default_rng(0), steps=299)
        assert (short.hits, short.messages) == (0, 299)

    def test_walk_message_budget(self):
        overlay = line_overlay(30, holder=29)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=4)
        out = engine.walk(q, n_walkers=3, rng=np.random.default_rng(1))
        assert out.messages <= 3 * 4

    def test_local_hit(self):
        overlay = line_overlay(3, holder=0)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=4)
        out = engine.walk(q, n_walkers=2, rng=np.random.default_rng(2))
        assert out.hits == 1 and out.messages == 0

    def test_rejects_zero_walkers(self):
        overlay = line_overlay(3, holder=2)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=4)
        with pytest.raises(ValueError):
            engine.walk(q, n_walkers=0)


class TestProbe:
    def test_probe_counts_messages(self):
        overlay = line_overlay(4, holder=2)
        engine = QueryEngine(overlay)
        q = Query(guid=1, origin=0, file_id=5, category=0, ttl=1)
        hits, messages = engine.probe(q, [1, 2, 3])
        assert hits == [2]
        assert messages == 3


class TestQueryValidation:
    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            Query(guid=1, origin=0, file_id=5, category=0, ttl=0)

    def test_ttl_is_a_byte(self):
        assert Query(guid=1, origin=0, file_id=5, category=0, ttl=255).ttl == 255
        with pytest.raises(ValueError, match="255"):
            Query(guid=1, origin=0, file_id=5, category=0, ttl=256)

    def test_rejects_negative_file(self):
        with pytest.raises(ValueError):
            Query(guid=1, origin=0, file_id=-1, category=0, ttl=1)
