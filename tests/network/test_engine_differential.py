"""The array kernel under ``QueryEngine.broadcast`` against the dict loop.

``reference_engine.ReferenceEngine`` is the per-message loop the kernel
replaced.  Both must agree on everything an experiment can observe: the
:class:`QueryOutcome`, which nodes were reached and through which parent,
the order the providers were found in, and the ``on_reply`` calls — that
sequence is what every rule table is learned from, so equal sequences
mean equal learned rules.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.expanding_ring import ExpandingRingPolicy
from repro.routing.flooding import FloodingPolicy
from repro.routing.hybrid import HybridShortcutAssociationPolicy
from repro.routing.topology_adaptation import TopologyAdaptingPolicy
from repro.utils.stats import RunningStats
from tests.network.reference_engine import ReferenceEngine
from tests.network.test_engine import RecordingPolicy, flood_select
from tests.network.test_engine_properties import random_overlays


class SubsetSelect:
    """A deterministic choice per (node, upstream): nothing, the upstream
    alone, a sample of the neighbours with repeats, or all of them.

    With ``flooders`` set, the nodes it marks answer with all neighbours —
    what the kernel assumes of them without asking.
    """

    def __init__(self, overlay, salt: int, flooders: np.ndarray | None = None):
        self.overlay = overlay
        self.salt = salt
        self.flooders = flooders
        self.asked: list[tuple[int, int | None]] = []

    def __call__(self, node, upstream, query):
        self.asked.append((node, upstream))
        neighbors = self.overlay.topology.neighbors(node)
        if self.flooders is not None and self.flooders[node]:
            return neighbors
        rng = random.Random(f"{self.salt}/{node}/{upstream}")
        kind = rng.randrange(5)
        if kind == 0:
            return ()
        if kind == 1:
            return () if upstream is None else (upstream,)
        if kind == 2:
            return neighbors
        return [rng.choice(neighbors) for _ in range(rng.randint(1, len(neighbors) + 1))]


def record_replies(overlay) -> list[tuple]:
    """Give every node a policy appending to one shared, ordered log."""
    log: list[tuple] = []
    for u in range(overlay.n_nodes):
        policy = RecordingPolicy()
        policy.events = log
        overlay.node(u).policy = policy
    return log


def run_both(overlay, query, make_select):
    """``(outcome, parents, on_reply log)`` from the kernel and the oracle."""
    results = []
    for engine_type in (QueryEngine, ReferenceEngine):
        log = record_replies(overlay)
        engine = engine_type(overlay)
        outcome = engine.broadcast(query, make_select())
        if engine_type is ReferenceEngine:
            parents = dict(engine.last_parent)
        elif outcome.first_hit_hops == 0:
            parents = {query.origin: None}
        else:
            n = overlay.n_nodes
            reached = np.flatnonzero(engine._reached == engine._epoch)
            parents = {
                int(u): None if engine._parent[u] == n else int(engine._parent[u])
                for u in reached
            }
        results.append((outcome, parents, log))
    return results


def providers_in_order(log) -> list[int]:
    # every provider's reply reaches at least the origin's policy
    return list(dict.fromkeys(provider for *_rest, provider in log))


@settings(max_examples=150, deadline=None)
@given(
    random_overlays(),
    st.integers(1, 7),
    st.sampled_from(["no callback", "flood callback", "subset", "mix"]),
    st.integers(0, 2**16),
    st.data(),
)
def test_kernel_matches_dict_loop(setup, ttl, kind, salt, data):
    overlay, origin, _ttl, _holders = setup
    query = Query(guid=7, origin=origin, file_id=5, category=0, ttl=ttl)
    flooders = None
    if kind == "mix":
        flooders = np.array(
            data.draw(st.lists(st.booleans(), min_size=overlay.n_nodes, max_size=overlay.n_nodes))
        )

    def make_select():
        if kind == "no callback":
            return None
        if kind == "flood callback":
            return flood_select(overlay)
        return SubsetSelect(overlay, salt, flooders)

    (out, parents, log), (ref_out, ref_parents, ref_log) = run_both(
        overlay, query, make_select
    )
    assert out == ref_out
    # plain ints: the counts end up in JSON records
    assert {type(value) for value in (out.messages, out.hits, out.duplicates)} == {int}
    assert parents == ref_parents
    assert log == ref_log
    assert providers_in_order(log) == providers_in_order(ref_log)
    assert len(providers_in_order(log)) == (out.hits if out.messages else 0)


@settings(max_examples=150, deadline=None)
@given(
    random_overlays(),
    st.integers(1, 6),
    st.sampled_from(["no callback", "subset", "mix"]),
    st.integers(0, 2**16),
    st.data(),
)
def test_reach_and_holders_are_the_dict_loops_broadcast(setup, ttl, kind, salt, data):
    """``reach`` knows no file: what it returns, cut down to the holders,
    is everything the dict loop finds out message by message."""
    overlay, origin, _ttl, holders = setup
    holders = holders - {origin}  # the oracle stops at a local hit
    overlay.node(origin).library = frozenset()
    query = Query(guid=3, origin=origin, file_id=5, category=0, ttl=ttl)
    flooders = None
    if kind == "mix":
        flooders = np.array(
            data.draw(st.lists(st.booleans(), min_size=overlay.n_nodes, max_size=overlay.n_nodes))
        )

    def make_select():
        return None if kind == "no callback" else SubsetSelect(overlay, salt, flooders)

    oracle = ReferenceEngine(overlay)
    expected = oracle.broadcast(query, make_select(), feedback=False)
    engine = QueryEngine(overlay)
    reach = engine.reach(origin, ttl, make_select(), query)

    assert [origin, *reach.order.tolist()] == list(oracle.last_parent)
    assert (reach.messages, reach.duplicates) == (expected.messages, expected.duplicates)
    hops = {origin: 0}
    for node, upstream in oracle.last_parent.items():
        if upstream is not None:
            hops[node] = hops[upstream] + 1
            assert engine._parent[node] == upstream
    assert reach.depth.tolist() == [hops[node] for node in reach.order.tolist()]
    found = [at for at, node in enumerate(reach.order.tolist()) if node in holders]
    assert [int(reach.order[at]) for at in found] == oracle.last_providers
    assert len(found) == expected.hits
    assert (int(reach.depth[found[0]]) if found else None) == expected.first_hit_hops


@settings(max_examples=40, deadline=None)
@given(random_overlays(), st.integers(0, 2**16), st.data())
def test_marked_flooders_are_not_asked(setup, salt, data):
    overlay, origin, ttl, _holders = setup
    flooders = np.array(
        data.draw(st.lists(st.booleans(), min_size=overlay.n_nodes, max_size=overlay.n_nodes))
    )
    select = SubsetSelect(overlay, salt, flooders)
    query = Query(guid=1, origin=origin, file_id=5, category=0, ttl=ttl)
    QueryEngine(overlay).broadcast(query, select)
    assert not any(flooders[node] for node, _upstream in select.asked)


def test_what_the_overlay_derives_follows_direct_policy_assignment():
    overlay = Overlay(OverlayConfig(n_nodes=40, degree=4), seed=3)
    overlay.install_policies(FloodingPolicy)
    assert not overlay.learns_from_replies
    assert overlay.flooders.all()
    # one learner anywhere brings the walk back, however it was installed
    recorder = RecordingPolicy()
    overlay.node(7).policy = recorder
    assert overlay.learns_from_replies
    assert not overlay.flooders[7] and overlay.flooders.sum() == 39
    overlay.node(7).policy = None
    assert overlay.flooders.all() and not overlay.learns_from_replies


# ----------------------------------------------------------------------
# whole workloads: same seed, kernel on one overlay and oracle on its twin


def adoption_mix(node_id, overlay):
    if node_id % 2:
        return AssociationRoutingPolicy(node_id, overlay, top_k=2, window=64)
    return FloodingPolicy(node_id, overlay)


POLICIES = {
    "flooding": (FloodingPolicy, False),
    "association": (
        lambda n, ov: AssociationRoutingPolicy(n, ov, top_k=2, window=64),
        False,
    ),
    "adoption-50": (adoption_mix, False),
    "expanding-ring": (ExpandingRingPolicy, False),
    "hybrid": (
        lambda n, ov: HybridShortcutAssociationPolicy(n, ov, top_k=2, window=64),
        False,
    ),
    "topology-adapting": (
        lambda n, ov: TopologyAdaptingPolicy(
            n, ov, top_k=2, window=64, adapt_every=5, max_new_links=2
        ),
        True,
    ),
}


def stats_fields(stats) -> dict:
    """Every field of a ``TrafficStats``, running moments spelled out."""
    return {
        name: vars(value) if isinstance(value, RunningStats) else value
        for name, value in vars(stats).items()
    }


def learned_state(overlay):
    state = []
    for u in range(overlay.n_nodes):
        rules = getattr(overlay.node(u).policy, "rules", None)
        # the window of events is the table's whole state
        state.append(None if rules is None else rules.state())
    return state


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("churn_rate", [0.0, 0.002, 0.05])
@pytest.mark.parametrize("topology", ["random_regular"])  # the overlay's one topology
def test_workloads_match_on_twin_overlays(topology, churn_rate, policy):
    factory, dynamic = POLICIES[policy]
    config = OverlayConfig(
        n_nodes=70,
        degree=4,
        n_categories=8,
        files_per_category=40,
        library_size=12,
        ttl=5,
        churn_rate=churn_rate,
        max_degree=40 if dynamic else None,
    )
    twins = [Overlay(config, seed=21), Overlay(config, seed=21)]
    twins[1].engine = ReferenceEngine(twins[1])
    stats = []
    for overlay in twins:
        overlay.install_policies(factory)
        stats.append(overlay.run_workload(150, warmup=150))
    assert stats_fields(stats[0]) == stats_fields(stats[1])
    assert learned_state(twins[0]) == learned_state(twins[1])
    assert twins[0].topology.edges() == twins[1].topology.edges()


# ----------------------------------------------------------------------
# golden counts, recorded from the dict loop at the commit that replaced it


@pytest.fixture(scope="module")
def golden_config():
    return OverlayConfig(n_nodes=2000, churn_rate=0.002)


def test_golden_flooding_counts(golden_config):
    overlay = Overlay(golden_config, seed=1)
    overlay.install_policies(FloodingPolicy)
    stats = overlay.run_workload(400)
    assert (stats.total_messages, stats.n_succeeded) == (2_590_244, 397)


def test_golden_association_counts(golden_config):
    overlay = Overlay(golden_config, seed=1)
    overlay.install_policies(
        lambda n, ov: AssociationRoutingPolicy(n, ov, top_k=2, window=2048)
    )
    stats = overlay.run_workload(400, warmup=3000)
    assert (stats.total_messages, stats.n_succeeded) == (906_678, 394)
