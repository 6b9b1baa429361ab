"""The lossy-counting guarantees of repro.core.counts.SketchCounts.

The sketch counts (antecedent, consequent) pairs, nested per
antecedent.  These cases hold its error bound (an estimate undercounts
by at most epsilon * N and never overcounts), the absence of false
negatives above the support floor, bounded memory on a uniform stream,
and the pair-level reads (``consequents``, ``matches``, ``rule_stats``,
``n_rules``, ``n_seen``) — each against a plain recount of the stream.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counts import SketchCounts


def sketch(epsilon, stream, min_support_count=1):
    counts = SketchCounts(epsilon, min_support_count)
    for a, c in stream:
        counts.observe(a, c)
    return counts


def estimate(counts, a, c):
    return counts.rule_stats(a, c)[0]


pairs = st.tuples(st.integers(0, 3), st.integers(0, 5))


class TestLossyCounter:
    def test_exact_for_short_streams(self):
        counts = sketch(0.01, [(0, 1), (0, 2), (0, 1)])  # bucket width 100
        assert estimate(counts, 0, 1) == 2
        assert estimate(counts, 0, 2) == 1
        assert estimate(counts, 0, 3) == 0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SketchCounts(0.0, 1)
        with pytest.raises(ValueError):
            SketchCounts(1.0, 1)

    def test_memory_stays_bounded_on_uniform_stream(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100_000, size=20_000).tolist()
        counts = sketch(0.01, ((v % 50, v) for v in values))
        # Lossy counting guarantees O(log(eps N)/eps) entries; in practice
        # far fewer for uniform data.  Assert well under the stream length.
        assert len(counts) < 5_000

    def test_heavy_hitter_survives(self):
        rng = np.random.default_rng(1)
        counts = SketchCounts(0.01, min_support_count=4_000)
        for value in rng.integers(0, 1000, size=10_000).tolist():
            counts.observe(7, value)
            counts.observe(7, -1)  # 50% of the stream
        # the only pair whose count can reach 40% of the stream
        assert counts.consequents(7) == [-1]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(pairs, min_size=1, max_size=2000),
        st.sampled_from([0.02, 0.05, 0.1]),
    )
    def test_error_bound_property(self, stream, epsilon):
        """estimate <= true count <= estimate + eps * N for tracked pairs,
        and any pair with true count > eps * N is still tracked."""
        counts = sketch(epsilon, stream)
        n = len(stream)
        assert counts.n_seen == n
        for (a, c), true_count in Counter(stream).items():
            est = estimate(counts, a, c)
            assert est <= true_count
            if true_count > epsilon * n:
                assert est > 0, f"frequent pair {(a, c)} evicted"
            if est > 0:
                assert true_count <= est + epsilon * n

    @settings(max_examples=25, deadline=None)
    @given(st.lists(pairs, min_size=10, max_size=1000), st.integers(1, 6))
    def test_items_over_has_no_false_negatives(self, stream, floor):
        """Every pair truly seen ``floor + eps * N`` times is a rule: the
        undercount can hide at most ``eps * N`` of them."""
        epsilon = 0.05
        counts = sketch(epsilon, stream, min_support_count=floor)
        n = len(stream)
        for (a, c), count in Counter(stream).items():
            if count >= floor + epsilon * n:
                assert counts.matches(a, c)
                assert c in counts.consequents(a)


class TestStreamingPairCounter:
    def test_top_repliers_ordering(self):
        counts = sketch(
            0.001, [("u", "v1")] * 5 + [("u", "v2")] * 3 + [("u", "v3")]
        )
        assert counts.consequents("u", k=2) == ["v1", "v2"]

    def test_top_repliers_respects_k_validation(self):
        with pytest.raises(ValueError):
            SketchCounts(0.001, 1).consequents("u", k=0)

    def test_pairs_over_count(self):
        counts = sketch(0.001, [(1, 2)] * 4 + [(1, 3)], min_support_count=2)
        assert counts.matches(1, 2) and not counts.matches(1, 3)
        assert counts.n_rules() == 1

    def test_estimate(self):
        counts = sketch(0.001, [("a", "b")])
        assert estimate(counts, "a", "b") == 1
        assert estimate(counts, "a", "c") == 0

    def test_n_seen(self):
        counts = sketch(0.001, [(1, 2), (3, 4)])
        assert counts.n_seen == 2
