"""The association decision answered a frontier at a time.

``_PolicyDispatch.frontier`` decides a hop's asked nodes in one pass
(``decide_by_rules``) from the rule tables the overlay lists per node, and
the reply walk calls the overlay's per-node ``on_reply`` list.  The oracle
is the decision as ``AssociationRoutingPolicy.select`` stated it node by
node before the pass (``reference_select``), asked one node at a time, with
every reply hook looked up on the node's policy when the reply passes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.topology import random_regular
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.base import RoutingPolicy, dispatch_select
from repro.routing.flooding import FloodingPolicy
from repro.routing.hybrid import HybridShortcutAssociationPolicy
from repro.routing.topology_adaptation import TopologyAdaptingPolicy
from tests.network.test_engine import StubOverlay
from tests.network.test_engine_differential import stats_fields


def reference_select(policy, node, upstream):
    """``AssociationRoutingPolicy.select`` as one node's own decision: the
    consequents but the upstream and those no longer neighbours, then the
    best ``top_k`` of what is left; flood when nothing is."""
    antecedent = upstream if upstream is not None else node
    neighbors = policy.overlay.topology.neighbors(node)
    live = [
        v
        for v in policy.rules.consequents(antecedent)
        if v != upstream and v in neighbors
    ]
    return live[: policy.top_k] or neighbors


class EchoPolicy(RoutingPolicy):
    """Not an association node: asked through its own ``select``, which
    logs the order it was asked in."""

    def __init__(self, node_id, overlay, log):
        super().__init__(node_id, overlay)
        self.log = log

    def select(self, node, upstream, query):
        self.log.append(node)
        return [upstream] if upstream is not None else []


Q = Query(guid=1, origin=0, file_id=5, category=0, ttl=3)


@st.composite
def rule_overlays(draw):
    """A small overlay of association nodes (some of them ``EchoPolicy``)
    with drawn ``top_k`` and support floors, fed drawn events — the
    antecedent may be the node itself and the consequents include the
    upstream — then partly reset and partly rewired."""
    n = draw(st.integers(4, 12))
    config = OverlayConfig(
        n_nodes=n,
        degree=3 if n % 2 == 0 else 2,
        n_categories=2,
        files_per_category=4,
        library_size=2,
    )
    overlay = Overlay(config, seed=draw(st.integers(0, 2**16)))
    topology = overlay.topology
    log: list[int] = []
    for u in range(n):
        if draw(st.integers(0, 5)) == 0:
            policy = EchoPolicy(u, overlay, log)
        else:
            policy = AssociationRoutingPolicy(
                u,
                overlay,
                top_k=draw(st.integers(1, 4)),
                window=draw(st.integers(4, 40)),
                min_support_count=draw(st.integers(1, 3)),
            )
            nodes = st.integers(0, n - 1)
            for a, c in draw(st.lists(st.tuples(nodes, nodes), max_size=40)):
                policy.rules.observe(a, c)
            if draw(st.integers(0, 7)) == 0:
                policy.reset()
        overlay.node(u).policy = policy
    cut = st.lists(st.sampled_from(topology.edges()), max_size=3, unique=True)
    for u, v in draw(cut):
        # rules keep naming the lost neighbour: a consequent off the topology
        topology.remove_edge(u, v)
    return overlay, log


@settings(max_examples=300, deadline=None)
@given(rule_overlays(), st.data())
def test_the_frontier_pass_is_select_node_for_node(setup, data):
    overlay, log = setup
    n = overlay.n_nodes
    nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=16))
    upstreams = [
        data.draw(st.one_of(st.none(), st.integers(0, n - 1))) for _node in nodes
    ]
    chosen, counts = dispatch_select(overlay).frontier(nodes, upstreams, Q)

    expected = []
    echo_order = []
    for node, upstream in zip(nodes, upstreams):
        policy = overlay.node(node).policy
        if isinstance(policy, AssociationRoutingPolicy):
            picks = reference_select(policy, node, upstream)
            assert policy.select(node, upstream, Q) == picks
            assert type(policy.select(node, upstream, Q)) is type(picks)
        else:
            echo_order.append(node)
            picks = [upstream] if upstream is not None else []
        expected.append(list(picks))
    assert counts == [len(picks) for picks in expected]
    assert chosen == [v for picks in expected for v in picks]
    # the other nodes were asked in frontier order, once each
    assert log == echo_order


@pytest.mark.parametrize("upstream", [None, 3])
def test_an_overlay_without_tables_asks_every_node(upstream):
    topology = random_regular(8, 3, rng=1)
    overlay = StubOverlay(topology, {})
    log: list[int] = []
    for u in range(8):
        overlay.node(u).policy = EchoPolicy(u, overlay, log)
    chosen, counts = dispatch_select(overlay).frontier([2, 5], [upstream, upstream], Q)
    assert log == [2, 5]
    assert counts == ([0, 0] if upstream is None else [1, 1])
    assert chosen == ([] if upstream is None else [upstream, upstream])


# ----------------------------------------------------------------------
# whole workloads: the pass on one overlay, one node at a time on its twin


class AskEach:
    """The dispatch callback with no ``frontier`` method: the engine asks
    node by node, and an association node answers by ``reference_select``."""

    def __init__(self, dispatch):
        self.dispatch = dispatch
        self.flooders = dispatch.flooders

    def __call__(self, node, upstream, query):
        policy = self.dispatch.overlay.node(node).policy
        if isinstance(policy, AssociationRoutingPolicy):
            return reference_select(policy, node, upstream)
        return self.dispatch(node, upstream, query)


class PolicyHooks:
    """``hooks[w]``: the ``on_reply`` of the policy ``w`` runs right now."""

    def __init__(self, overlay):
        self.overlay = overlay

    def __getitem__(self, node):
        return getattr(self.overlay.node(node).policy, "on_reply", None)


class AskEachEngine(QueryEngine):
    """Per-node asking and per-reply hook lookups, on the same kernel."""

    def reach(self, origin, ttl, select=None, query=None):
        if select is not None:
            select = AskEach(select)
        return super().reach(origin, ttl, select, query)

    def _reply_hooks(self):
        return PolicyHooks(self.overlay)


def adoption_30(node_id, overlay):
    # the adopter set is a function of the id alone, so the twins agree
    if (node_id * 7919) % 10 < 3:
        return AssociationRoutingPolicy(node_id, overlay, top_k=2, window=64)
    return FloodingPolicy(node_id, overlay)


def mixed_k(node_id, overlay):
    return AssociationRoutingPolicy(
        node_id,
        overlay,
        top_k=1 + node_id % 4,
        window=64,
        min_support_count=1 + node_id % 3,
    )


WORKLOADS = {
    "association": lambda n, ov: AssociationRoutingPolicy(n, ov, top_k=2, window=64),
    "association-mixed-k": mixed_k,
    "hybrid": lambda n, ov: HybridShortcutAssociationPolicy(n, ov, top_k=2, window=64),
    "topology-adapting": lambda n, ov: TopologyAdaptingPolicy(
        n, ov, top_k=2, window=64, adapt_every=5, max_new_links=2
    ),
    "adoption-30": adoption_30,
}

CONFIG = OverlayConfig(
    n_nodes=70,
    degree=4,
    n_categories=8,
    files_per_category=40,
    library_size=12,
    ttl=5,
    churn_rate=0.02,
    max_degree=40,
)


def log_replies(overlay, log):
    """Wrap every hook that observes replies so each call is logged."""
    for u in range(overlay.n_nodes):
        policy = overlay.node(u).policy
        if type(policy).on_reply is RoutingPolicy.on_reply:
            continue

        def hook(*, _inner=policy.on_reply, **event):
            log.append(
                (
                    event["node_id"],
                    event["upstream"],
                    event["downstream"],
                    event["provider"],
                    event["query"].guid,
                )
            )
            _inner(**event)

        policy.on_reply = hook
        # a hook set on the instance is a rebinding the view must see
        overlay.node(u).policy = policy


def final_state(overlay):
    state = []
    for u in range(overlay.n_nodes):
        policy = overlay.node(u).policy
        rules = getattr(policy, "rules", None)
        state.append(
            (
                None if rules is None else rules.state(),
                getattr(policy, "shortcut_list", None),
                getattr(policy, "links_added", None),
            )
        )
    return state, overlay.topology.edges()


def twins(factory, seed=21):
    pair = [Overlay(CONFIG, seed=seed), Overlay(CONFIG, seed=seed)]
    pair[1].engine = AskEachEngine(pair[1])
    logs = []
    for overlay in pair:
        overlay.install_policies(factory)
        logs.append([])
        log_replies(overlay, logs[-1])
    return pair, logs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_match_per_node_asking(workload):
    pair, logs = twins(WORKLOADS[workload])
    stats = [overlay.run_workload(150, warmup=150) for overlay in pair]
    assert stats_fields(stats[0]) == stats_fields(stats[1])
    assert logs[0] == logs[1]
    assert len(logs[0]) > 100
    assert final_state(pair[0]) == final_state(pair[1])


def test_rebinding_a_policy_changes_the_next_query():
    pair, logs = twins(WORKLOADS["association"], seed=5)
    control = Overlay(CONFIG, seed=5)
    control.install_policies(WORKLOADS["association"])
    for overlay in (*pair, control):
        overlay.run_workload(150)
    tables = pair[0].rule_tables
    ruled = [u for u in range(CONFIG.n_nodes) if tables[u][0]]
    rebound = ruled[::2]
    assert rebound
    for overlay in pair:
        for u in rebound:
            overlay.node(u).policy = FloodingPolicy(u, overlay)
    view = pair[0].policy_view()
    assert all(view.flooders[u] and view.rule_tables[u] is None for u in rebound)
    assert all(view.reply_hooks[u] is None for u in rebound)
    stats = [overlay.run_workload(100) for overlay in pair]
    assert stats_fields(stats[0]) == stats_fields(stats[1])
    assert logs[0] == logs[1]
    assert final_state(pair[0]) == final_state(pair[1])
    # and the rebinding did change what those queries cost
    unbound = control.run_workload(100)
    assert stats[0].total_messages > unbound.total_messages


def test_a_rebound_node_floods_at_the_next_hop():
    overlay = Overlay(CONFIG, seed=8)
    overlay.install_policies(WORKLOADS["association"])
    overlay.run_workload(200)
    dispatch = dispatch_select(overlay)
    ruled = (
        (u, a, [v for v in overlay.node(u).policy.rules.consequents(a, 2) if v != a])
        for u in range(overlay.n_nodes)
        for a in overlay.node(u).policy.rules.antecedents()
        if a != u
    )
    node, antecedent, picks = next(entry for entry in ruled if entry[2])
    neighbors = list(overlay.topology.neighbors(node))
    assert picks != neighbors
    assert dispatch.frontier([node], [antecedent], Q) == (picks, [len(picks)])
    overlay.node(node).policy = AssociationRoutingPolicy(node, overlay)
    assert dispatch.frontier([node], [antecedent], Q) == (neighbors, [len(neighbors)])


def test_churn_keeps_the_view_and_empties_the_rows():
    overlay = Overlay(CONFIG, seed=9)
    overlay.install_policies(WORKLOADS["association"])
    overlay.run_workload(200)
    view = overlay.policy_view()
    node = overlay.churn_one()
    assert overlay.policy_view() is view
    rows = view.rule_tables[node][0]
    assert overlay.node(node).policy.rules.rows is rows and not rows
    assert not view.flooders.any()
