"""Tests for repro.core.strategies on hand-built block sequences."""

import pytest

from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from tests.conftest import make_block


def stationary_blocks(n_blocks, pairs_per_block=40):
    """Identical traffic in every block: (1->10) and (2->20)."""
    pairs = [(1, 10), (2, 20)] * (pairs_per_block // 2)
    return [make_block(pairs, index=i) for i in range(n_blocks)]


def drifting_blocks(n_blocks, pairs_per_block=40):
    """The replier for source 1 changes every block."""
    out = []
    for i in range(n_blocks):
        pairs = [(1, 100 + i)] * pairs_per_block
        out.append(make_block(pairs, index=i))
    return out


class TestStaticRuleset:
    def test_perfect_on_stationary_traffic(self):
        run = StaticRuleset(min_support_count=2).run(stationary_blocks(6))
        assert run.n_trials == 5
        assert run.average_coverage == 1.0
        assert run.average_success == 1.0
        assert run.n_generations == 1

    def test_fails_on_drifting_traffic(self):
        run = StaticRuleset(min_support_count=2).run(drifting_blocks(5))
        assert run.average_coverage == 1.0  # same source keeps querying
        assert run.average_success == 0.0  # but the replier moved

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            StaticRuleset().run(stationary_blocks(1))

    def test_first_trial_marked_fresh(self):
        run = StaticRuleset(min_support_count=2).run(stationary_blocks(4))
        assert run.trials[0].fresh_ruleset
        assert not run.trials[1].fresh_ruleset


class TestSlidingWindow:
    def test_perfect_on_drifting_coverage(self):
        # Sliding always trains on the immediately preceding block, so for
        # per-block drift the antecedent is covered but success is 0.
        run = SlidingWindow(min_support_count=2).run(drifting_blocks(5))
        assert run.average_coverage == 1.0
        assert run.average_success == 0.0

    def test_perfect_on_slow_drift(self):
        # Replier changes every 2 blocks: sliding succeeds on the second
        # block of each phase.
        blocks = []
        for i in range(8):
            replier = 100 + (i // 2)
            blocks.append(make_block([(1, replier)] * 20, index=i))
        run = SlidingWindow(min_support_count=2).run(blocks)
        assert run.average_success == pytest.approx(4 / 7)

    def test_generates_once_per_trial(self):
        run = SlidingWindow(min_support_count=2).run(stationary_blocks(7))
        assert run.n_generations == 6
        assert run.blocks_per_generation == pytest.approx(1.0)
        assert all(t.fresh_ruleset for t in run.trials)


class TestLazySlidingWindow:
    def test_laziness_one_equals_sliding(self):
        blocks = drifting_blocks(6)
        lazy = LazySlidingWindow(laziness=1, min_support_count=2).run(blocks)
        sliding = SlidingWindow(min_support_count=2).run(blocks)
        assert lazy.coverage_series == sliding.coverage_series
        assert lazy.success_series == sliding.success_series

    def test_generation_cadence(self):
        run = LazySlidingWindow(laziness=3, min_support_count=2).run(
            stationary_blocks(10)
        )
        # Initial generation + one after every 3 trials (except at the end).
        assert run.n_generations == 3
        fresh_flags = [t.fresh_ruleset for t in run.trials]
        assert fresh_flags == [True, False, False, True, False, False, True, False, False]

    def test_sawtooth_on_phase_drift(self):
        # Drift every block; lazy with laziness 4 only succeeds right
        # after regeneration... actually never, since each block moves on.
        run = LazySlidingWindow(laziness=4, min_support_count=2).run(drifting_blocks(9))
        assert run.average_success == 0.0
        assert run.average_coverage == 1.0

    def test_rejects_bad_laziness(self):
        with pytest.raises(ValueError):
            LazySlidingWindow(laziness=0)


class TestAdaptiveSlidingWindow:
    def test_no_regeneration_when_quality_high(self):
        run = AdaptiveSlidingWindow(
            history=3, initial_threshold=0.5, min_support_count=2
        ).run(stationary_blocks(8))
        assert run.n_generations == 1  # initial only
        assert run.average_success == 1.0

    def test_regenerates_on_drop(self):
        # Stationary for a while, then the replier flips once and stays.
        blocks = [make_block([(1, 10)] * 20, index=i) for i in range(4)]
        blocks += [make_block([(1, 11)] * 20, index=i) for i in range(4, 8)]
        run = AdaptiveSlidingWindow(
            history=3, initial_threshold=0.5, min_support_count=2
        ).run(blocks)
        assert run.n_generations == 2  # initial + one at the flip
        # After regeneration, success recovers.
        assert run.success_series[-1] == 1.0

    def test_threshold_history_changes_sensitivity(self):
        blocks = drifting_blocks(10)
        eager = AdaptiveSlidingWindow(history=2, min_support_count=2).run(blocks)
        # Per-block drift keeps success at 0, so every trial triggers
        # regeneration regardless of history size (thresholds stay > 0
        # only until the rolling mean collapses).
        assert eager.n_generations >= 2

    def test_rejects_bad_history(self):
        with pytest.raises(ValueError):
            AdaptiveSlidingWindow(history=0)


class TestStrategyValidation:
    @pytest.mark.parametrize(
        "strategy_cls", [StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow]
    )
    def test_all_require_two_blocks(self, strategy_cls):
        with pytest.raises(ValueError):
            strategy_cls().run([make_block([(1, 1)])])

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(min_support_count=0)

    @pytest.mark.parametrize("kwargs", [{"top_k": 0}, {"min_confidence": 7.0}])
    def test_pruning_parameters_checked_at_construction(self, kwargs):
        """Was accepted, and failed at the first generation — after the
        trace had been generated or mapped."""
        with pytest.raises(ValueError):
            LazySlidingWindow(**kwargs)


class TestGeneratorInput:
    """Strategies must accept one-shot block iterators (store streaming)."""

    def realistic_blocks(self, n_blocks=8):
        import numpy as np

        from repro.trace.blocks import blocks_from_arrays

        rng = np.random.default_rng(42)
        n = n_blocks * 60
        return blocks_from_arrays(
            rng.integers(0, 12, size=n).astype(np.int64),
            rng.integers(50, 58, size=n).astype(np.int64),
            block_size=60,
        )

    @pytest.mark.parametrize(
        "strategy_cls",
        [StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow],
    )
    def test_generator_run_equals_list_run(self, strategy_cls):
        blocks = self.realistic_blocks()
        from_list = strategy_cls(min_support_count=2).run(blocks)
        from_generator = strategy_cls(min_support_count=2).run(iter(blocks))
        assert from_generator == from_list

    @pytest.mark.parametrize(
        "strategy_cls",
        [StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow],
    )
    def test_generator_with_too_few_blocks(self, strategy_cls):
        blocks = stationary_blocks(1)
        with pytest.raises(ValueError):
            strategy_cls(min_support_count=2).run(iter(blocks))

    def test_lazy_generation_cadence_preserved_on_generator(self):
        blocks = drifting_blocks(12)
        eager = LazySlidingWindow(min_support_count=2, laziness=3).run(blocks)
        lazy = LazySlidingWindow(min_support_count=2, laziness=3).run(iter(blocks))
        assert lazy.n_generations == eager.n_generations
        assert [t.fresh_ruleset for t in lazy.trials] == [
            t.fresh_ruleset for t in eager.trials
        ]

    def test_run_off_trace_store_matches_in_memory(self, tmp_path):
        import numpy as np

        from repro.trace.store import TraceStoreReader, TraceStoreWriter

        blocks = self.realistic_blocks()
        sources = np.concatenate([b.sources for b in blocks])
        repliers = np.concatenate([b.repliers for b in blocks])
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=60) as writer:
            writer.append(sources, repliers)
        reader = TraceStoreReader(tmp_path / "t.rptrace")
        in_memory = SlidingWindow(min_support_count=2).run(blocks)
        from_store = SlidingWindow(min_support_count=2).run(reader.iter_blocks())
        assert from_store == in_memory
