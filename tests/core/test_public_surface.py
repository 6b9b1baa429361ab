"""The names ``benchmarks/perf/offline.py`` reaches for, exercised as it
uses them.

The benchmark's files may not change with the code they measure, so this
is the contract: every import, attribute and call shape here is one the
offline workloads rely on (``tests/live/test_public_surface.py`` is the
same for the live ones).
"""

import numpy as np

from repro.core.evaluation import ruleset_test
from repro.core.generation import generate_ruleset
from repro.core.runner import StrategyRun, TrialResult, merge_runs
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.parallel.partition import (
    evaluate_store,
    evaluate_store_partitioned,
    plan_shards,
    run_shard,
)
from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.store import TraceStoreReader, TraceStoreWriter

STRATEGIES = (StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow)


def columns(n_pairs, seed=3):
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, 6, n_pairs)
    return sources, 100 + (sources + rng.integers(0, 2, n_pairs)) % 4


def test_generate_and_test_take_a_block_and_nothing_else():
    """``manual_sliding``: GENERATE-RULESET and RULESET-TEST by default
    arguments, ``len(ruleset)`` for the trial's rule count."""
    blocks = blocks_from_arrays(*columns(400), block_size=100)
    it = iter(blocks)
    previous = next(it)
    trials = []
    for block in it:
        ruleset = generate_ruleset(previous)
        trials.append(
            TrialResult(
                block_index=block.index,
                result=ruleset_test(ruleset, block),
                fresh_ruleset=True,
                ruleset_size=len(ruleset),
            )
        )
        previous = block
    manual = StrategyRun("sliding", tuple(trials), n_generations=len(trials))
    assert manual == SlidingWindow().run(blocks)
    assert all(t.ruleset_size > 0 and t.result.n_covered > 0 for t in trials)


def test_strategies_default_construct_and_run_a_store_stream(tmp_path):
    """``stream_strategies`` / ``run_counts`` / ``check_store``: every
    strategy class takes no arguments, runs a reader's one-shot block
    stream, and the run exposes the four counted figures."""
    path = tmp_path / "surface.rptrace"
    sources, repliers = columns(600)
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(sources, repliers)
    in_memory = blocks_from_arrays(sources, repliers, block_size=100)
    for cls in STRATEGIES:
        with TraceStoreReader(path) as reader:
            run = cls().run(reader.iter_blocks())
        assert run == cls().run(in_memory) == evaluate_store(path, cls())
        counted = [
            run.n_trials,
            run.n_generations,
            sum(t.result.n_covered for t in run.trials),
            sum(t.result.n_successful for t in run.trials),
        ]
        assert counted[0] == 5 and counted[1] >= 1 and counted[2] >= counted[3] > 0
    for backend in ("exact", "lossy"):
        with TraceStoreReader(path) as reader:
            run = StreamingRules(backend=backend).run(reader.iter_blocks())
        assert run.n_trials == 5 and run.trials[-1].ruleset_size > 0


def test_probe_call_shapes(tmp_path):
    """``store_probes``: positional ``PairBlock(s, r, index=i)``, mining and
    testing block by block, shard planning, ``run_shard`` partials into
    ``merge_runs``, and the 2-worker partitioned evaluation."""
    path = tmp_path / "probe.rptrace"
    sources, repliers = columns(600)
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(sources, repliers)
    blocks = [
        PairBlock(sources[i : i + 100], repliers[i : i + 100], index=i // 100)
        for i in range(0, 600, 100)
    ]
    rulesets = [generate_ruleset(b) for b in blocks]
    assert all(len(r) > 0 for r in rulesets)
    for pair in zip(rulesets, blocks[1:]):
        assert ruleset_test(*pair).n_total == 100
    with TraceStoreReader(path) as reader:
        shards = plan_shards(
            AdaptiveSlidingWindow(), reader.n_blocks, 2, block_pairs=reader.block_pairs()
        )
        assert sum(s.n_warmup for s in shards) > 0
        partials = [
            run_shard(reader, SlidingWindow(), shard)
            for shard in plan_shards(SlidingWindow(), reader.n_blocks, 2)
        ]
    assert merge_runs(partials) == evaluate_store(path, SlidingWindow())
    for cls in (SlidingWindow, AdaptiveSlidingWindow):
        assert evaluate_store_partitioned(path, cls(), workers=2) == evaluate_store(
            path, cls()
        )
