"""Tests for partitioned parallel evaluation (repro.parallel.partition)."""

import numpy as np
import pytest

from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult, merge_runs
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.parallel.partition import (
    BlockShard,
    evaluate_store,
    evaluate_store_partitioned,
    plan_shards,
    run_shard,
)
from repro.trace.store import TraceStoreReader, TraceStoreWriter


def make_store(path, n_pairs=6000, block_size=500, seed=0):
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, 40, size=n_pairs).astype(np.int64)
    repliers = rng.integers(100, 130, size=n_pairs).astype(np.int64)
    with TraceStoreWriter(path, block_size=block_size) as writer:
        writer.append(sources, repliers)
    return str(path)


def strategies():
    return [
        StaticRuleset(),
        SlidingWindow(),
        LazySlidingWindow(laziness=3),
        AdaptiveSlidingWindow(),
        StreamingRules(),
        StreamingRules(backend="lossy"),
    ]


def merge_in_process(path, strategy, n_shards):
    """Shard + evaluate in-process (no pool): exercises the same math."""
    with TraceStoreReader(path) as reader:
        shards = plan_shards(
            strategy, reader.n_blocks, n_shards, block_pairs=reader.block_pairs()
        )
        return merge_runs([run_shard(reader, strategy, s) for s in shards])


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", strategies(), ids=lambda s: s.name)
    @pytest.mark.parametrize("n_shards", [2, 3, 5, 11])
    def test_sharded_equals_serial(self, tmp_path, strategy, n_shards):
        path = make_store(tmp_path / "t.rptrace")
        serial = evaluate_store(path, strategy)
        assert merge_in_process(path, strategy, n_shards) == serial

    def test_process_pool_equals_serial(self, tmp_path):
        path = make_store(tmp_path / "t.rptrace")
        strategy = SlidingWindow()
        serial = evaluate_store(path, strategy)
        assert (
            evaluate_store_partitioned(path, strategy, workers=2) == serial
        )

    def test_more_workers_than_blocks(self, tmp_path):
        # 6 blocks, 5 scoreable: 50 workers clamp to one block per shard.
        path = make_store(tmp_path / "t.rptrace", n_pairs=3000, block_size=500)
        strategy = LazySlidingWindow(laziness=2)
        serial = evaluate_store(path, strategy)
        assert merge_in_process(path, strategy, 50) == serial

    def test_compressed_torn_store(self, tmp_path):
        # A zlib store that lost its footer (simulated crash): recovery
        # truncates to intact blocks, and partitioned evaluation of the
        # recovered prefix still matches its serial run.
        from repro.trace.store import TraceStoreWriter

        rng = np.random.default_rng(3)
        path = tmp_path / "z.rptrace"
        writer = TraceStoreWriter(path, block_size=400)
        writer.append(
            rng.integers(0, 40, 4000).astype(np.int64),
            rng.integers(100, 130, 4000).astype(np.int64),
        )
        writer.abandon()  # no footer
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 37)  # tear the last block
        with TraceStoreReader(path) as reader:
            assert reader.recovered
            assert 2 <= reader.n_blocks < 10
        strategy = SlidingWindow()
        serial = evaluate_store(str(path), strategy)
        assert merge_in_process(str(path), strategy, 3) == serial
        assert (
            evaluate_store_partitioned(str(path), strategy, workers=2) == serial
        )

    def test_workers_one_is_serial(self, tmp_path):
        path = make_store(tmp_path / "t.rptrace", n_pairs=2000, block_size=500)
        strategy = StaticRuleset()
        assert evaluate_store_partitioned(
            path, strategy, workers=1
        ) == evaluate_store(path, strategy)


class TestPlanning:
    def test_single_block_store_rejected(self, tmp_path):
        path = make_store(tmp_path / "t.rptrace", n_pairs=500, block_size=500)
        with TraceStoreReader(path) as reader:
            assert reader.n_blocks == 1
        with pytest.raises(ValueError, match=">= 2 blocks"):
            plan_shards(SlidingWindow(), 1, 4)
        with pytest.raises(ValueError, match=">= 2 blocks"):
            evaluate_store_partitioned(path, SlidingWindow(), workers=4)

    def test_scored_ranges_tile_exactly(self):
        shards = plan_shards(SlidingWindow(), 12, 5)
        covered = []
        for shard in shards:
            covered.extend(range(shard.scored_start, shard.scored_stop))
        assert covered == list(range(1, 12))
        sizes = [s.n_scored for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_warmup_semantics_per_strategy(self):
        assert plan_shards(StaticRuleset(), 10, 2)[1].warmup == (0,)
        assert plan_shards(SlidingWindow(), 10, 2)[1].warmup == (5,)
        lazy = plan_shards(LazySlidingWindow(laziness=4), 10, 2)[1]
        assert lazy.warmup == (4, 5)  # last schedule point 4 -> start 6
        adaptive = plan_shards(AdaptiveSlidingWindow(), 10, 2)[1]
        assert adaptive.warmup == tuple(range(0, 6))  # full prefix
        exact = plan_shards(
            StreamingRules(window_pairs=900), 10, 2, block_pairs=[500] * 10
        )[1]
        assert exact.warmup == (4, 5)  # two 500-pair blocks cover 900

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            BlockShard(warmup=(), scored_start=1, scored_stop=2)
        with pytest.raises(ValueError):
            BlockShard(warmup=(0,), scored_start=2, scored_stop=2)
        with pytest.raises(ValueError):
            BlockShard(warmup=(3,), scored_start=2, scored_stop=4)


def trial(i, fresh=True):
    return TrialResult(
        block_index=i,
        result=RulesetTestResult(n_total=10, n_covered=5, n_successful=2),
        fresh_ruleset=fresh,
        ruleset_size=3,
    )


class TestMergeRuns:
    def test_empty_partials_skipped_not_nan(self):
        # Regression: an empty partition's nan averages must not poison
        # the merged aggregates.
        full = StrategyRun("sliding", (trial(1), trial(2)), n_generations=2)
        empty = StrategyRun("sliding", (), n_generations=0)
        merged = merge_runs([empty, full, empty])
        assert merged == full
        assert merged.average_coverage == pytest.approx(0.5)
        assert not np.isnan(merged.average_coverage)

    def test_all_empty_merges_to_empty(self):
        merged = merge_runs([StrategyRun("lazy", (), 0), StrategyRun("lazy", (), 0)])
        assert merged.n_trials == 0
        assert np.isnan(merged.average_coverage)  # display-only nan

    def test_mixed_strategies_error(self):
        a = StrategyRun("sliding", (trial(1),), n_generations=1)
        b = StrategyRun("lazy", (trial(2),), n_generations=1)
        with pytest.raises(ValueError, match="different strategies"):
            merge_runs([a, b])
        # Even when one of them is empty: strategy mixing is a caller bug.
        with pytest.raises(ValueError, match="different strategies"):
            merge_runs([a, StrategyRun("lazy", (), 0)])

    def test_overlapping_ranges_error(self):
        a = StrategyRun("sliding", (trial(1), trial(2)), n_generations=2)
        b = StrategyRun("sliding", (trial(2), trial(3)), n_generations=2)
        with pytest.raises(ValueError, match="overlap"):
            merge_runs([a, b])

    def test_no_runs_error(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_runs([])

    def test_out_of_order_partials_sorted(self):
        a = StrategyRun("sliding", (trial(1), trial(2)), n_generations=2)
        b = StrategyRun("sliding", (trial(3), trial(4)), n_generations=2)
        merged = merge_runs([b, a])
        assert [t.block_index for t in merged.trials] == [1, 2, 3, 4]
        assert merged.n_generations == 4
