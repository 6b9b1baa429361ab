"""Floods read off the engine's depth table against the dict loop.

``QueryEngine.broadcast`` answers a flood that no reply walk follows from
a table of hop depths per (origin, node) instead of propagating it.  The
oracle is ``reference_engine.ReferenceEngine``'s per-message loop.  The
engine under test counts its propagations, so every test also says
which path answered: the table must answer plain floods on a topology
nobody edited since the table was filled, and the kernel everything
else — a callback that asks some node, or a flood some node learns from.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.topology import Topology
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.base import dispatch_select
from repro.routing.expanding_ring import ExpandingRingPolicy
from repro.routing.flooding import FloodingPolicy
from tests.network.reference_engine import ReferenceEngine
from tests.network.test_engine import RecordingPolicy, StubOverlay
from tests.network.test_engine_differential import stats_fields


class CountingEngine(QueryEngine):
    """A ``QueryEngine`` that counts how often it propagated."""

    def __init__(self, overlay) -> None:
        super().__init__(overlay)
        self.propagations = 0

    def reach(self, *args, **kwargs):
        self.propagations += 1
        return super().reach(*args, **kwargs)


class QuietOverlay(StubOverlay):
    """A hand-built overlay on which no node learns from replies."""

    learns_from_replies = False


class LearningOverlay(StubOverlay):
    """A hand-built overlay that says some node learns from replies."""

    learns_from_replies = True


class HalfSelect:
    """Nodes ``flooders`` marks forward to every neighbour; the others
    are asked and forward to the first half of theirs."""

    def __init__(self, overlay, flooders: np.ndarray) -> None:
        self.overlay = overlay
        self.flooders = flooders

    def __call__(self, node, upstream, query):
        neighbors = self.overlay.topology.neighbors(node)
        return neighbors if self.flooders[node] else neighbors[: len(neighbors) // 2]


def oracle(overlay, query, select=None):
    return ReferenceEngine(overlay).broadcast(query, select)


def overlay_holders(overlay) -> set[int]:
    return {u for u in range(overlay.n_nodes) if overlay.node(u).shares(5)}


@st.composite
def graphs(draw, overlay_type=QuietOverlay):
    """A random simple graph — isolated nodes and several components
    allowed, up to two table blocks — or a path longer than most TTLs."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 300))
        edges = [(u, u + 1) for u in range(n - 1)]
    else:
        n = draw(st.integers(1, 80))
        pairs = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    holders = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return overlay_type(Topology(n, edges), {holder: {5} for holder in holders})


#: short TTLs as often as any byte-sized one
ttls = st.one_of(st.integers(1, 8), st.integers(1, 255))


def edit(topology, data) -> None:
    """One edge added, one removed or one node detached, as drawn."""
    n = topology.n_nodes
    kind = data.draw(st.sampled_from(["add", "remove", "detach"]))
    if kind == "add":
        u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if topology.can_add_edge(u, v):
            topology.add_edge(u, v)
    elif kind == "remove":
        edges = topology.edges()
        if edges:
            topology.remove_edge(*data.draw(st.sampled_from(edges)))
    else:
        topology.detach_node(data.draw(st.integers(0, n - 1)))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_table_floods_match_the_oracle_across_edits(overlay, data):
    engine = CountingEngine(overlay)
    n = overlay.topology.n_nodes
    for guid in range(data.draw(st.integers(1, 8))):
        if guid and data.draw(st.booleans()):
            edit(overlay.topology, data)
        query = Query(
            guid=guid,
            origin=data.draw(st.integers(0, n - 1)),
            file_id=5,
            category=0,
            ttl=data.draw(ttls),
        )
        out = engine.broadcast(query)
        assert out == oracle(overlay, query)
        assert {type(value) for value in (out.messages, out.hits, out.duplicates)} == {int}
    assert engine.propagations == 0


@pytest.mark.parametrize(
    "change, hits_after",
    [
        (lambda topology: topology.remove_edge(2, 3), 0),
        (lambda topology: topology.add_edge(0, 4), 1),
        (lambda topology: topology.detach_node(1), 0),
    ],
    ids=["remove_edge", "add_edge", "detach_node"],
)
def test_an_edit_between_floods_refills_the_table(change, hits_after):
    # 0 - 1 - 2 - 3 - 4, node 4 shares the file; ttl 3 stops at node 3
    overlay = QuietOverlay(Topology(5, [(u, u + 1) for u in range(4)]), {4: {5}})
    engine = CountingEngine(overlay)
    query = Query(guid=1, origin=0, file_id=5, category=0, ttl=3)
    before = engine.broadcast(query)
    assert (before.messages, before.hits) == (3, 0)
    query = Query(guid=2, origin=0, file_id=5, category=0, ttl=4)
    assert engine.broadcast(query).hits == 1
    change(overlay.topology)
    after = engine.broadcast(query)
    assert after == oracle(overlay, query)
    assert after.hits == hits_after
    assert engine.propagations == 0


def test_a_byte_of_ttl_reaches_255_hops_and_no_further():
    # a path of 300 nodes: node d is d hops from node 0
    overlay = QuietOverlay(
        Topology(300, [(u, u + 1) for u in range(299)]), {255: {5}, 256: {5}}
    )
    engine = CountingEngine(overlay)
    for ttl, hits in ((254, 0), (255, 1)):
        query = Query(guid=ttl, origin=0, file_id=5, category=0, ttl=ttl)
        out = engine.broadcast(query)
        assert out == oracle(overlay, query)
        assert (out.hits, out.first_hit_hops, out.messages) == (hits, 255 if hits else None, ttl)
    assert engine.propagations == 0


def test_churn_changes_holders_and_keeps_the_table():
    overlay = Overlay(OverlayConfig(n_nodes=100, degree=4, ttl=3), seed=5)
    overlay.install_policies(FloodingPolicy)
    engine = overlay.engine = CountingEngine(overlay)
    select = dispatch_select(overlay)
    tables = None
    for guid in range(120):
        query = overlay.make_query()
        assert engine.broadcast(query, select) == oracle(overlay, query, select)
        if guid == 60:
            tables = list(engine._depth_blocks)
        if guid % 3 == 0:
            overlay.churn_one()
    assert engine.propagations == 0
    # a churned peer keeps its edges: blocks filled before are the same arrays
    assert all(
        block is kept for block, kept in zip(engine._depth_blocks, tables) if kept is not None
    )


@pytest.mark.parametrize("churn_rate", [0.0, 0.05])
def test_expanding_rings_are_table_lookups(churn_rate):
    config = OverlayConfig(
        n_nodes=90,
        degree=4,
        n_categories=8,
        files_per_category=40,
        library_size=6,
        ttl=7,
        churn_rate=churn_rate,
    )
    twins = [Overlay(config, seed=8), Overlay(config, seed=8)]
    twins[0].engine = CountingEngine(twins[0])
    twins[1].engine = ReferenceEngine(twins[1])
    stats = []
    for overlay in twins:
        overlay.install_policies(ExpandingRingPolicy)
        stats.append(overlay.run_workload(200))
    assert stats_fields(stats[0]) == stats_fields(stats[1])
    assert stats[0].total_messages > 0 and twins[0].engine.propagations == 0


@settings(max_examples=80, deadline=None)
@given(graphs(), ttls, st.data())
def test_an_asked_node_takes_the_kernel(overlay, ttl, data):
    """A callback that must ask some node is no flood: the kernel answers."""
    n = overlay.topology.n_nodes
    flooders = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if flooders.all():
        flooders[data.draw(st.integers(0, n - 1))] = False
    origin = data.draw(st.integers(0, n - 1))
    query = Query(guid=1, origin=origin, file_id=5, category=0, ttl=ttl)
    engine = CountingEngine(overlay)
    select = HalfSelect(overlay, flooders)
    assert engine.broadcast(query, select) == oracle(overlay, query, select)
    assert engine.propagations == (0 if origin in overlay_holders(overlay) else 1)


@settings(max_examples=80, deadline=None)
@given(graphs(LearningOverlay), ttls, st.data())
def test_a_learners_flood_takes_the_kernel(overlay, ttl, data):
    """A flood some node learns from needs its reply walk, so its parents."""
    origin = data.draw(st.integers(0, overlay.topology.n_nodes - 1))
    query = Query(guid=1, origin=origin, file_id=5, category=0, ttl=ttl)
    engine = CountingEngine(overlay)
    runs = []
    for run_on in (engine, ReferenceEngine(overlay)):
        log: list[tuple] = []
        for u in range(overlay.n_nodes):
            policy = RecordingPolicy()
            policy.events = log
            overlay.node(u).policy = policy
        runs.append((run_on.broadcast(query), log))
    assert runs[0] == runs[1]
    assert engine.propagations == (0 if origin in overlay_holders(overlay) else 1)


def test_a_learners_flood_without_feedback_is_a_table_lookup():
    overlay = LearningOverlay(Topology(4, [(0, 1), (1, 2), (2, 3)]), {3: {5}})
    recorder = RecordingPolicy()
    overlay.node(1).policy = recorder
    engine = CountingEngine(overlay)
    query = Query(guid=1, origin=0, file_id=5, category=0, ttl=3)
    expected = ReferenceEngine(overlay).broadcast(query, feedback=False)
    assert engine.broadcast(query, feedback=False) == expected
    assert engine.propagations == 0 and recorder.events == []
    engine.broadcast(query)
    assert engine.propagations == 1 and recorder.events == [(1, 0, 2, 3)]


def test_association_fallback_floods_feed_the_rules():
    config = OverlayConfig(
        n_nodes=70, degree=4, n_categories=8, files_per_category=40, library_size=6
    )
    twins = [Overlay(config, seed=4), Overlay(config, seed=4)]
    twins[0].engine = CountingEngine(twins[0])
    twins[1].engine = ReferenceEngine(twins[1])
    for overlay in twins:
        overlay.install_policies(
            lambda n, ov: AssociationRoutingPolicy(n, ov, top_k=1, window=64)
        )
        overlay.run_workload(0, warmup=150)
    fallbacks = sum(twins[0].node(u).policy.fallback_count for u in range(70))
    assert fallbacks > 0
    assert [twins[0].node(u).policy.rules.state() for u in range(70)] == [
        twins[1].node(u).policy.rules.state() for u in range(70)
    ]
