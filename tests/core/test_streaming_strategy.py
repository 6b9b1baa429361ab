"""Tests for repro.core.streaming (the streaming strategy)."""

import pytest

from repro.core.counts import SketchCounts, WindowCounts
from repro.core.streaming import StreamingRules
from repro.obs.registry import get_global_registry
from tests.conftest import make_block


def stationary_blocks(n_blocks, pairs_per_block=40):
    pairs = [(1, 10), (2, 20)] * (pairs_per_block // 2)
    return [make_block(pairs, index=i) for i in range(n_blocks)]


def drifting_blocks(n_blocks, pairs_per_block=40):
    return [
        make_block([(1, 100 + i)] * pairs_per_block, index=i)
        for i in range(n_blocks)
    ]


class TestExactWindowCounts:
    def test_threshold_crossing(self):
        counts = WindowCounts(window=100, min_support_count=3)
        for _ in range(2):
            counts.observe(1, 10)
        assert not counts.covers(1)
        counts.observe(1, 10)
        assert counts.covers(1)
        assert counts.matches(1, 10)
        assert not counts.matches(1, 11)

    def test_window_eviction_uncovers(self):
        counts = WindowCounts(window=4, min_support_count=3)
        for _ in range(3):
            counts.observe(1, 10)
        assert counts.covers(1)
        # Push unrelated pairs to evict the old ones.
        for _ in range(4):
            counts.observe(2, 20)
        assert not counts.covers(1)
        assert counts.covers(2)

    def test_n_rules(self):
        counts = WindowCounts(window=100, min_support_count=2)
        counts.observe(1, 10)
        counts.observe(1, 10)
        counts.observe(1, 11)
        assert counts.n_rules() == 1


class TestConsequentsOrdering:
    """``consequents(k=None)`` returns *every* qualified replier; equal
    counts break ties by ascending replier id on both backends."""

    def _exact(self):
        counts = WindowCounts(window=100, min_support_count=2)
        for replier, copies in [(30, 2), (10, 3), (20, 2), (40, 1)]:
            for _ in range(copies):
                counts.observe(1, replier)
        return counts

    def _lossy(self):
        counts = SketchCounts(epsilon=0.001, min_support_count=2)
        for replier, copies in [(30, 2), (10, 3), (20, 2), (40, 1)]:
            for _ in range(copies):
                counts.observe(1, replier)
        return counts

    @pytest.mark.parametrize("make", ["_exact", "_lossy"])
    def test_k_none_returns_all_qualified_ranked(self, make):
        counts = getattr(self, make)()
        # 10 leads on count; 20 and 30 tie at 2 and order by replier id;
        # 40 never qualified.
        assert counts.consequents(1, k=None) == [10, 20, 30]
        assert counts.consequents(1) == [10, 20, 30]

    @pytest.mark.parametrize("make", ["_exact", "_lossy"])
    def test_k_truncates_after_the_same_ranking(self, make):
        counts = getattr(self, make)()
        assert counts.consequents(1, k=1) == [10]
        assert counts.consequents(1, k=2) == [10, 20]
        assert counts.consequents(1, k=10) == [10, 20, 30]

    @pytest.mark.parametrize("make", ["_exact", "_lossy"])
    def test_unknown_source_is_empty_not_error(self, make):
        counts = getattr(self, make)()
        assert counts.consequents(99, k=None) == []
        assert counts.consequents(99, k=3) == []

    def test_all_equal_counts_sort_purely_by_replier(self):
        counts = WindowCounts(window=100, min_support_count=2)
        for replier in (7, 3, 11, 5):
            counts.observe(1, replier)
            counts.observe(1, replier)
        assert counts.consequents(1, k=None) == [3, 5, 7, 11]


class TestLossyRebuildQualified:
    """``from_state`` is the one place the sketch's qualified figures are
    rebuilt from its entries (``observe`` keeps them current otherwise)."""

    @staticmethod
    def _rebuilt(counts):
        return SketchCounts.from_state(counts.state())

    def test_rebuild_reconstructs_coverage_from_sketch(self):
        counts = SketchCounts(epsilon=0.001, min_support_count=2)
        for _ in range(2):
            counts.observe(1, 10)
            counts.observe(2, 20)
        twin = self._rebuilt(counts)
        assert twin.covers(1) and twin.covers(2)
        assert twin.antecedents() == [1, 2]
        assert twin.n_rules() == 2

    def test_rebuild_counts_qualified_consequents_per_source(self):
        counts = SketchCounts(epsilon=0.001, min_support_count=2)
        for replier in (10, 11, 12):
            counts.observe(1, replier)
            counts.observe(1, replier)
        counts.observe(2, 20)  # below threshold
        twin = self._rebuilt(counts)
        assert twin.n_rules() == 3
        assert twin.consequents(1) == [10, 11, 12]
        assert not twin.covers(2)

    def test_rebuild_on_empty_sketch(self):
        twin = self._rebuilt(SketchCounts(epsilon=0.001, min_support_count=2))
        assert twin.n_rules() == 0
        assert not twin.covers(1)


class TestStreamingRules:
    def test_near_perfect_on_stationary(self):
        run = StreamingRules(min_support_count=2, window_pairs=100).run(
            stationary_blocks(5)
        )
        assert run.average_coverage == 1.0
        assert run.average_success == 1.0
        assert run.n_generations == 0

    def test_adapts_quickly_to_drift(self):
        # Replier changes each block; streaming picks the new pair up after
        # min_support_count observations within the block, so success is
        # high even though batch sliding would score 0.
        run = StreamingRules(min_support_count=2, window_pairs=100).run(
            drifting_blocks(5)
        )
        assert run.average_success > 0.85

    def test_lossy_backend_close_to_exact(self):
        blocks = stationary_blocks(5)
        exact = StreamingRules(min_support_count=2, backend="exact").run(blocks)
        lossy = StreamingRules(min_support_count=2, backend="lossy").run(blocks)
        assert abs(exact.average_coverage - lossy.average_coverage) < 0.1
        assert abs(exact.average_success - lossy.average_success) < 0.1

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            StreamingRules().run(stationary_blocks(1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_support_count": 0},
            {"window_pairs": 0},
            {"backend": "exotic"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamingRules(**kwargs)

    @pytest.mark.parametrize("epsilon", [0.0, float("nan")])
    def test_epsilon_is_validated_up_front(self, epsilon):
        for backend in ("lossy", "exact"):
            with pytest.raises(ValueError, match="epsilon"):
                StreamingRules(backend=backend, epsilon=epsilon)

    @pytest.mark.parametrize("backend", ["exact", "lossy"])
    def test_one_test_timing_per_scored_block(self, backend):
        def timings():
            family = get_global_registry().family("repro_offline_test_seconds")
            return family.labels("streaming").count if family else 0

        before = timings()
        StreamingRules(min_support_count=2, backend=backend).run(stationary_blocks(4))
        assert timings() - before == 3

    def test_trials_aligned_with_batch_strategies(self):
        blocks = stationary_blocks(4)
        run = StreamingRules(min_support_count=2).run(blocks)
        assert run.n_trials == 3  # first block is warmup, like training
        assert [t.block_index for t in run.trials] == [1, 2, 3]


class TestRuleStats:
    def test_exact_support_and_confidence_from_window(self):
        counts = WindowCounts(window=100, min_support_count=2)
        for _ in range(3):
            counts.observe(1, 2)
        counts.observe(1, 3)
        support, confidence = counts.rule_stats(1, 2)
        assert support == 3
        assert confidence == pytest.approx(3 / 4)
        assert counts.rule_stats(1, 9) == (0, 0.0)
        assert counts.rule_stats(7, 2) == (0, 0.0)

    def test_exact_stats_age_out_with_the_window(self):
        counts = WindowCounts(window=2, min_support_count=1)
        counts.observe(1, 2)
        counts.observe(3, 4)
        counts.observe(3, 5)  # (1, 2) slides out
        assert counts.rule_stats(1, 2) == (0, 0.0)
        support, confidence = counts.rule_stats(3, 4)
        assert support == 1
        assert confidence == pytest.approx(0.5)

    def test_lossy_stats_match_exact_on_small_streams(self):
        counts = SketchCounts(epsilon=0.001, min_support_count=2)
        for _ in range(6):
            counts.observe(1, 2)
        for _ in range(2):
            counts.observe(1, 3)
        support, confidence = counts.rule_stats(1, 2)
        assert support == 6
        assert confidence == pytest.approx(6 / 8)
        assert counts.rule_stats(1, 9) == (0, 0.0)


class TestGeneratorInput:
    @pytest.mark.parametrize("backend", ["exact", "lossy"])
    def test_generator_run_equals_list_run(self, backend):
        blocks = drifting_blocks(8)
        from_list = StreamingRules(min_support_count=2, backend=backend).run(blocks)
        from_generator = StreamingRules(min_support_count=2, backend=backend).run(
            iter(blocks)
        )
        assert from_generator == from_list

    def test_generator_with_too_few_blocks(self):
        with pytest.raises(ValueError):
            StreamingRules(min_support_count=2).run(iter(drifting_blocks(1)))
