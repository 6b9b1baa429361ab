"""Tests for repro.routing.association (the paper's policy, online)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counts import WindowCounts
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.association import AssociationRoutingPolicy

SMALL = OverlayConfig(
    n_nodes=80, degree=4, n_categories=6, files_per_category=40, library_size=25
)


class TestNeighborRuleTable:
    """The per-node table is a :class:`WindowCounts` keyed by neighbor."""

    def test_threshold_gates_rules(self):
        table = WindowCounts(window=100, min_support_count=3)
        for _ in range(2):
            table.observe(1, 10)
        assert table.consequents(1) == []
        table.observe(1, 10)
        assert table.consequents(1) == [10]

    def test_ordering_by_support(self):
        table = WindowCounts(window=100, min_support_count=1)
        for _ in range(5):
            table.observe(1, 10)
        for _ in range(3):
            table.observe(1, 11)
        assert table.consequents(1) == [10, 11]
        assert table.consequents(1, k=1) == [10]

    def test_window_eviction(self):
        table = WindowCounts(window=4, min_support_count=2)
        table.observe(1, 10)
        table.observe(1, 10)
        assert table.consequents(1) == [10]
        for _ in range(4):
            table.observe(2, 20)
        assert table.consequents(1) == []
        assert table.consequents(2) == [20]

    def test_rule_stats_support_and_confidence(self):
        table = WindowCounts(window=100, min_support_count=1)
        for _ in range(3):
            table.observe(1, 10)
        table.observe(1, 11)
        support, confidence = table.rule_stats(1, 10)
        assert support == 3
        assert confidence == pytest.approx(3 / 4)
        assert table.rule_stats(1, 99) == (0, 0.0)
        assert table.rule_stats(99, 10) == (0, 0.0)

    def test_rule_stats_follow_window_eviction(self):
        table = WindowCounts(window=2, min_support_count=1)
        table.observe(1, 10)
        table.observe(2, 20)
        table.observe(2, 21)  # (1, 10) ages out
        assert table.rule_stats(1, 10) == (0, 0.0)
        assert table.rule_stats(2, 20) == (1, pytest.approx(0.5))

    def test_n_rules(self):
        table = WindowCounts(window=100, min_support_count=2)
        table.observe(1, 10)
        table.observe(1, 10)
        table.observe(2, 20)
        assert table.n_rules() == 1

    def test_clear(self):
        table = WindowCounts(window=10, min_support_count=1)
        table.observe(1, 10)
        table.clear()
        assert table.consequents(1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowCounts(window=0, min_support_count=2)
        with pytest.raises(ValueError):
            WindowCounts(window=512, min_support_count=0)


def unmemoised_consequents(table, upstream, k=None):
    """``consequents`` as it was before the table kept a ranking."""
    counter = table._rows.get(upstream)
    if not counter:
        return []
    qualified = [
        (count, down)
        for down, count in counter.items()
        if count >= table.min_support_count
    ]
    qualified.sort(key=lambda cd: (-cd[0], cd[1]))
    out = [down for _count, down in qualified]
    return out[:k] if k is not None else out


table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.just("consequents"), st.integers(0, 3), st.sampled_from([None, 1, 2, 5])),
        st.tuples(st.just("clear"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), table_ops)
def test_kept_ranking_never_goes_stale(window, min_support_count, ops):
    table = WindowCounts(window=window, min_support_count=min_support_count)
    for op, a, b in ops:
        if op == "observe":
            table.observe(a, b)
        elif op == "clear":
            table.clear()
        else:
            got = table.consequents(a, b)
            assert got == unmemoised_consequents(table, a, b)
            got.append(-1)  # the caller's list, not the table's
    for upstream in range(4):
        assert table.consequents(upstream) == unmemoised_consequents(table, upstream)


def build(seed=1, **policy_kwargs):
    overlay = Overlay(SMALL, seed=seed)
    overlay.install_policies(
        lambda nid, ov: AssociationRoutingPolicy(nid, ov, **policy_kwargs)
    )
    return overlay


class TestAssociationRoutingPolicy:
    def test_uncovered_node_floods(self):
        overlay = build()
        policy = overlay.node(0).policy
        q = overlay.make_query(origin=0)
        assert policy.select(0, None, q) == overlay.topology.neighbors(0)

    def test_covered_node_forwards_to_consequents(self):
        overlay = build(min_support_count=2, top_k=2)
        policy = overlay.node(0).policy
        neighbor = overlay.topology.neighbors(0)[0]
        downstream = overlay.topology.neighbors(0)[1]
        for _ in range(3):
            policy.on_reply(
                node_id=0, upstream=neighbor, downstream=downstream,
                query=None, provider=99,
            )
        q = overlay.make_query(origin=5)
        assert policy.select(0, neighbor, q) == [downstream]

    def test_rule_consequent_equal_to_upstream_falls_back(self):
        overlay = build(min_support_count=1, top_k=1)
        policy = overlay.node(0).policy
        neighbor = overlay.topology.neighbors(0)[0]
        policy.on_reply(
            node_id=0, upstream=neighbor, downstream=neighbor, query=None, provider=9
        )
        q = overlay.make_query(origin=5)
        # The only consequent equals the upstream: flood instead.
        assert policy.select(0, neighbor, q) == overlay.topology.neighbors(0)

    def test_learning_reduces_traffic(self):
        overlay = build(seed=7, min_support_count=2, window=2048)
        cold = overlay.run_workload(100)
        warm = overlay.run_workload(100)  # tables now populated
        assert warm.messages_per_query < cold.messages_per_query

    def test_success_preserved_with_fallback(self):
        overlay = build(seed=8)
        stats = overlay.run_workload(150, warmup=300)
        # Flood fallback guarantees rule misses still resolve.
        assert stats.success_rate > 0.7

    def test_reset_clears_rules(self):
        overlay = build()
        policy = overlay.node(0).policy
        policy.on_reply(node_id=0, upstream=1, downstream=2, query=None, provider=3)
        policy.reset()
        assert policy.rules.consequents(1) == []

    def test_validation(self):
        overlay = Overlay(SMALL, seed=10)
        with pytest.raises(ValueError):
            AssociationRoutingPolicy(0, overlay, top_k=0)
