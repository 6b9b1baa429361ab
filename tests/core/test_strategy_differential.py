"""The one strategy loop against the paper's four, on degenerate traces.

``RulesetStrategy.run`` is one loop that defers regeneration to the top of
the next trial; §III-B writes four *eager* loops that regenerate right
after testing a block.  The eager loops are written out here over the
dict-and-loop GENERATE-RULESET / RULESET-TEST of ``reference_rules.py``,
and every way a trace reaches a strategy — a list, a one-shot generator,
``evaluate_store``, ``evaluate_store_partitioned`` at 1-3 workers — must
give the equal ``StrategyRun``, trial for trial and generation for
generation, on the traces where an off-by-one shows: two blocks only, an
empty block mid-trace, one source, all-identical pairs, one pair per
block, a support floor above every count, ``laziness=1``, ``history=1``.

Mutants of the loop, and a test here that each one fails (ids of
``test_list_and_generator_equal_the_eager_loops``):

* regenerate from the current block instead of the previous one —
  ``[sliding-drift]``;
* ``fresh`` not cleared after a generation's first trial —
  ``[static-drift]``;
* lazy counter off by one (due after ``laziness - 1`` or ``+ 1`` trials) —
  ``[lazy3-drift]``;
* a value joins the rolling history before it is compared with the
  threshold — ``[adaptive3-top1-confidence]``.

``StreamingRules.run`` is a block fold; its oracle is the per-pair loop it
replaced (``reference_streaming.py``: ``covers`` / ``matches`` /
``observe`` on the ``make_counts()`` table), which both backends must
equal exactly.  Two independent checks sit on top: a brute-force recount
of the last ``window_pairs`` pairs (a ``Counter`` over a ``deque``) for
the exact backend, and Manku–Motwani's bounds over the true whole-stream
counts for the lossy one.  All run over the same traces and routes, and
a hypothesis sweep covers windows of 1, below a block and above several
blocks, bucket widths that do not divide the block size, floors 1-4,
empty blocks mid-trace and list vs generator input; six generator blocks
of the paper's 10,000 pairs then meet the folds with the thousands of
carried keys no sweep reaches.  Mutants of the fold;
each fails ``test_streaming_fold_equals_the_loop_on_swept_traces`` and the
``test_streaming_list_and_generator_equal_the_oracles`` case named:

* a pair folded into the counts before it is scored (its rule interval
  opens on the pair itself) — ``[drift-exact-w7]``;
* the window one pair too long — ``[drift-exact-w7]``;
* a bucket compressed before its boundary pair is scored instead of after
  — ``[drift-lossy]``;
* a rule interval whose end is exclusive instead of inclusive —
  ``[drift-exact-w7]``.

A store block is read through its decoded row index and an in-memory
block through one sort of its keys, so
``test_streaming_store_blocks_equal_memory_blocks_and_the_loop`` runs
both backends over both and the loop, on row indexes 1 and 2 bytes wide,
one key a block, floor 1 and a bucket width (9) that divides no block
size.  Mutants of the lossy fold's coverage, and the cases that fail
them:

* a source's earliest open taken as the max of its keys' opens —
  ``[rows-1-byte-lossy]`` and ``[floor-1-lossy]``;
* the sources of rules the sketch already holds ignored (covered only
  from a key lifted in the segment) — every ``lossy`` case.
"""

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.core.thresholds import RollingThreshold
from repro.parallel.partition import evaluate_store, evaluate_store_partitioned
from repro.trace.blocks import blocks_from_arrays
from repro.trace.store import TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.conftest import make_block
from tests.core.reference_rules import (
    reference_generate_ruleset,
    reference_ruleset_test,
)
from tests.core.reference_streaming import reference_streaming_run


# -- the paper's eager loops ---------------------------------------------------
def _trial(ruleset, block, fresh):
    return TrialResult(
        block_index=block.index,
        result=reference_ruleset_test(ruleset, block),
        fresh_ruleset=fresh,
        ruleset_size=len(ruleset),
    )


def eager_static(blocks, **generation):
    ruleset = reference_generate_ruleset(blocks[0], **generation)
    trials = [_trial(ruleset, b, fresh=(i == 0)) for i, b in enumerate(blocks[1:])]
    return StrategyRun("static", tuple(trials), n_generations=1)


def eager_sliding(blocks, **generation):
    trials = []
    for previous, block in zip(blocks, blocks[1:]):
        ruleset = reference_generate_ruleset(previous, **generation)
        trials.append(_trial(ruleset, block, fresh=True))
    return StrategyRun("sliding", tuple(trials), n_generations=len(trials))


def eager_lazy(blocks, *, laziness, **generation):
    ruleset = reference_generate_ruleset(blocks[0], **generation)
    n_generations, since = 1, 0
    trials = []
    for block in blocks[1:]:
        trials.append(_trial(ruleset, block, fresh=(since == 0)))
        since += 1
        if since == laziness and block is not blocks[-1]:
            ruleset = reference_generate_ruleset(block, **generation)
            n_generations += 1
            since = 0
    return StrategyRun("lazy", tuple(trials), n_generations=n_generations)


def eager_adaptive(blocks, *, history, **generation):
    coverage_threshold = RollingThreshold(history, initial=0.7)
    success_threshold = RollingThreshold(history, initial=0.7)
    ruleset = reference_generate_ruleset(blocks[0], **generation)
    n_generations, fresh = 1, True
    trials = []
    for block in blocks[1:]:
        ct, st = coverage_threshold.current(), success_threshold.current()
        trial = _trial(ruleset, block, fresh)
        trials.append(trial)
        fresh = False
        coverage_threshold.observe(trial.coverage)
        success_threshold.observe(trial.success)
        if (trial.coverage < ct or trial.success < st) and block is not blocks[-1]:
            ruleset = reference_generate_ruleset(block, **generation)
            n_generations += 1
            fresh = True
    return StrategyRun("adaptive", tuple(trials), n_generations=n_generations)


#: name -> (strategy factory, its eager loop), both taking generation kwargs.
STRATEGIES = {
    "static": (StaticRuleset, eager_static),
    "sliding": (SlidingWindow, eager_sliding),
    "lazy3": (
        lambda **g: LazySlidingWindow(laziness=3, **g),
        lambda blocks, **g: eager_lazy(blocks, laziness=3, **g),
    ),
    "lazy1": (
        lambda **g: LazySlidingWindow(laziness=1, **g),
        lambda blocks, **g: eager_lazy(blocks, laziness=1, **g),
    ),
    "adaptive3": (
        lambda **g: AdaptiveSlidingWindow(history=3, **g),
        lambda blocks, **g: eager_adaptive(blocks, history=3, **g),
    ),
    "adaptive1": (
        lambda **g: AdaptiveSlidingWindow(history=1, **g),
        lambda blocks, **g: eager_adaptive(blocks, history=1, **g),
    ),
}


# -- degenerate traces ---------------------------------------------------------
def _drift(n_blocks, pairs_per_block, *, n_sources=4, seed=5):
    """Random pairs whose popular repliers move every other block, so rule
    sets go stale, thresholds are breached and regeneration points differ
    between the strategies."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n_blocks):
        sources = rng.integers(0, n_sources, pairs_per_block)
        repliers = 100 + (sources + i // 2 + rng.integers(0, 2, pairs_per_block)) % 5
        blocks.append(make_block(list(zip(sources.tolist(), repliers.tolist())), index=i))
    return blocks


def _with_empty_block(blocks, at):
    return [make_block([], index=b.index) if b.index == at else b for b in blocks]


#: name -> (blocks, generation kwargs)
TRACES = {
    "drift": (_drift(9, 60), {"min_support_count": 2}),
    "two-blocks": (_drift(2, 60), {"min_support_count": 2}),
    "one-source": (_drift(7, 40, n_sources=1), {"min_support_count": 2}),
    "identical-pairs": (
        [make_block([(1, 10)] * 30, index=i) for i in range(6)],
        {"min_support_count": 2},
    ),
    "block-size-1": (_drift(8, 1), {"min_support_count": 1}),
    "support-above-every-count": (_drift(6, 60), {"min_support_count": 1000}),
    "top1-confidence": (
        _drift(7, 60),
        {"min_support_count": 2, "top_k": 1, "min_confidence": 0.3},
    ),
}
#: a store drops empty blocks on write, so this one is list/generator only.
IN_MEMORY_TRACES = {
    **TRACES,
    "empty-block-mid-trace": (
        _with_empty_block(_drift(7, 60), at=3),
        {"min_support_count": 2},
    ),
}


@pytest.mark.parametrize("trace", IN_MEMORY_TRACES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_list_and_generator_equal_the_eager_loops(strategy, trace):
    make, eager = STRATEGIES[strategy]
    blocks, generation = IN_MEMORY_TRACES[trace]
    want = eager(blocks, **generation)
    assert make(**generation).run(blocks) == want
    assert make(**generation).run(b for b in blocks) == want
    # one strategy object, run twice: a run leaves nothing behind
    reused = make(**generation)
    assert reused.run(blocks) == reused.run(iter(blocks)) == want


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Each storable trace written once, block for block."""
    root = tmp_path_factory.mktemp("differential")
    paths = {}
    for name, (blocks, _generation) in TRACES.items():
        paths[name] = root / f"{name}.rptrace"
        with TraceStoreWriter(paths[name], block_size=len(blocks[0])) as writer:
            for block in blocks:
                writer.append_block(block)
    return paths


@pytest.mark.parametrize("trace", TRACES)
def test_store_serial_equals_the_eager_loops(stores, trace):
    blocks, generation = TRACES[trace]
    for make, eager in STRATEGIES.values():
        assert evaluate_store(stores[trace], make(**generation)) == eager(
            blocks, **generation
        )


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trace", TRACES)
def test_store_partitioned_equals_the_eager_loops(stores, trace, workers):
    blocks, generation = TRACES[trace]
    for name in ("static", "sliding", "lazy3", "lazy1", "adaptive3"):
        make, eager = STRATEGIES[name]
        got = evaluate_store_partitioned(
            stores[trace], make(**generation), workers=workers
        )
        assert got == eager(blocks, **generation), name


# -- StreamingRules: a recount and the lossy bounds ----------------------------
def _pairs(block):
    return zip(block.sources.tolist(), block.repliers.tolist())


def _covers(rules, source):
    return any(a == source for a, _c in rules)


def eager_streaming_exact(blocks, *, window_pairs, min_support_count):
    """Score each pair against the rules of the last ``window_pairs`` pairs,
    recounted from scratch, then let it into the window."""
    window = deque(_pairs(blocks[0]), maxlen=window_pairs)

    def rules():
        return {p for p, n in Counter(window).items() if n >= min_support_count}

    trials = []
    for block in blocks[1:]:
        covered = successful = 0
        for pair in _pairs(block):
            current = rules()
            if _covers(current, pair[0]):
                covered += 1
                successful += pair in current
            window.append(pair)
        trials.append(
            TrialResult(
                block_index=block.index,
                result=RulesetTestResult(len(block), covered, successful),
                fresh_ruleset=True,
                ruleset_size=len(rules()),
            )
        )
    return StrategyRun("streaming", tuple(trials), n_generations=0)


def lossy_bounds(blocks, *, epsilon, min_support_count):
    """Per trial, the (least, most) covered, successful and rule counts a
    lossy sketch may report.  Its count of a pair undercounts the true
    count ``f`` by at most ``epsilon * n`` after ``n`` pairs and never
    overcounts, so a pair with ``f >= floor + epsilon * n`` must be a rule
    and one with ``f < floor`` cannot be."""
    seen = Counter(_pairs(blocks[0]))
    n = len(blocks[0])
    floor = min_support_count

    def must_and_may():
        slack = epsilon * n
        must = {p for p, f in seen.items() if f >= floor + slack}
        return must, {p for p, f in seen.items() if f >= floor}

    bounds = []
    for block in blocks[1:]:
        least, most = [0, 0], [0, 0]
        for pair in _pairs(block):
            for tally, rules in zip((least, most), must_and_may()):
                tally[0] += _covers(rules, pair[0])
                tally[1] += pair in rules
            seen[pair] += 1
            n += 1
        must, may = must_and_may()
        bounds.append((least, most, (len(must), len(may))))
    return bounds


#: name -> StreamingRules settings beside the trace's support floor.
STREAMING = {
    "exact-w45": {"backend": "exact", "window_pairs": 45},
    "exact-w7": {"backend": "exact", "window_pairs": 7},
    "lossy": {"backend": "lossy", "epsilon": 0.02},
}


def _streaming(config, generation):
    return StreamingRules(
        min_support_count=generation["min_support_count"], **STREAMING[config]
    )


def assert_streaming_oracle(run, config, blocks, generation):
    floor = generation["min_support_count"]
    options = STREAMING[config]
    assert run == reference_streaming_run(_streaming(config, generation), blocks)
    if options["backend"] == "exact":
        assert run == eager_streaming_exact(
            blocks, window_pairs=options["window_pairs"], min_support_count=floor
        )
        return
    bounds = lossy_bounds(blocks, epsilon=options["epsilon"], min_support_count=floor)
    assert run.n_generations == 0
    assert [t.block_index for t in run.trials] == [b.index for b in blocks[1:]]
    for trial, block, (least, most, rules) in zip(run.trials, blocks[1:], bounds):
        assert trial.result.n_total == len(block)
        assert least[0] <= trial.result.n_covered <= most[0]
        assert least[1] <= trial.result.n_successful <= most[1]
        assert rules[0] <= trial.ruleset_size <= rules[1]


@pytest.mark.parametrize("config", STREAMING)
@pytest.mark.parametrize("trace", IN_MEMORY_TRACES)
def test_streaming_list_and_generator_equal_the_oracles(trace, config):
    blocks, generation = IN_MEMORY_TRACES[trace]
    run = _streaming(config, generation).run(blocks)
    assert _streaming(config, generation).run(b for b in blocks) == run
    reused = _streaming(config, generation)
    assert reused.run(blocks) == reused.run(iter(blocks)) == run
    assert_streaming_oracle(run, config, blocks, generation)


@pytest.mark.parametrize("trace", IN_MEMORY_TRACES)
def test_window_counts_equal_the_recount_pair_by_pair(trace):
    """The exact backend's table against the recount at every pair, on
    every read the live servent makes."""
    blocks, generation = IN_MEMORY_TRACES[trace]
    floor = generation["min_support_count"]
    for window_pairs in (45, 7):
        counts = StreamingRules(
            min_support_count=floor, window_pairs=window_pairs
        ).make_counts()
        window = deque(maxlen=window_pairs)
        for block in blocks:
            for source, replier in _pairs(block):
                recount = Counter(window)
                rules = {p: n for p, n in recount.items() if n >= floor}
                assert counts.covers(source) == _covers(rules, source)
                assert counts.matches(source, replier) == ((source, replier) in rules)
                assert counts.consequents(source) == [
                    c
                    for _n, c in sorted(
                        (-n, c) for (a, c), n in rules.items() if a == source
                    )
                ]
                assert counts.n_rules() == len(rules)
                counts.observe(source, replier)
                window.append((source, replier))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trace", TRACES)
def test_streaming_store_routes_equal_the_oracles(stores, trace, workers):
    blocks, generation = TRACES[trace]
    for config in STREAMING:
        serial = evaluate_store(stores[trace], _streaming(config, generation))
        got = evaluate_store_partitioned(
            stores[trace], _streaming(config, generation), workers=workers
        )
        assert got == serial == _streaming(config, generation).run(blocks), config
        assert_streaming_oracle(got, config, blocks, generation)


@st.composite
def streaming_cases(draw):
    """A ``StreamingRules`` and a trace: equal-size blocks, some empty
    after the warm-up one, few sources and repliers so pairs repeat."""
    size = draw(st.integers(1, 24))
    n_blocks = draw(st.integers(2, 7))
    n_sources = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, n_sources - 1), st.integers(100, 103))
    blocks = []
    for index in range(n_blocks):
        n = draw(st.sampled_from([size, size, 0])) if index else size
        pairs = draw(st.lists(pair, min_size=n, max_size=n))
        blocks.append(make_block(pairs, index=index))
    floor = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # one pair, below a block, above several blocks, past int64
        window = draw(st.sampled_from([1, max(1, size - 1), 3 * size + 1, 2**64]))
        strategy = StreamingRules(min_support_count=floor, window_pairs=window)
    else:
        width = draw(st.integers(2, 40).filter(lambda w: size % w))
        strategy = StreamingRules(
            min_support_count=floor, backend="lossy", epsilon=1 / (width - 0.5)
        )
    return strategy, blocks


@settings(max_examples=300, deadline=None)
@given(streaming_cases(), st.booleans())
def test_streaming_fold_equals_the_loop_on_swept_traces(case, as_generator):
    strategy, blocks = case
    run = strategy.run(iter(blocks) if as_generator else blocks)
    assert run == reference_streaming_run(strategy, blocks)


#: name -> StreamingRules settings for the paper's 10,000-pair blocks: a
#: window below, equal to and above a block, and a bucket width (6,667)
#: whose boundaries all fall inside blocks.
BLOCK_SCALE = {
    "exact-w7000": {"window_pairs": 7_000},
    "exact-w10000": {"window_pairs": 10_000},
    "exact-w25000": {"window_pairs": 25_000},
    "lossy-eps1.5e-4": {"backend": "lossy", "epsilon": 1.5e-4},
}


@pytest.fixture(scope="module")
def paper_blocks():
    """Six generator blocks of 10,000 pairs: each block meets a carried
    state of thousands of keys, which the swept traces never reach."""
    arrays = MonitorTraceGenerator(
        MonitorTraceConfig(block_size=10_000), seed=11
    ).generate_pair_arrays(60_000)
    return blocks_from_arrays(arrays.source, arrays.replier, block_size=10_000)


@pytest.mark.parametrize("floor", [1, 10])
@pytest.mark.parametrize("config", BLOCK_SCALE)
def test_streaming_folds_equal_the_loop_at_block_scale(paper_blocks, config, floor):
    strategy = StreamingRules(min_support_count=floor, **BLOCK_SCALE[config])
    run = strategy.run(b for b in paper_blocks)
    assert run == reference_streaming_run(strategy, paper_blocks)


def _wide(n_blocks, pairs_per_block, seed=3):
    """Blocks of more than 256 distinct keys, whose store row index is 2
    bytes wide; each source's repliers are skewed so some keys reach a
    floor of 2 while others of the same source do not."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n_blocks):
        sources = rng.integers(0, 40, pairs_per_block)
        repliers = 1000 + rng.geometric(0.15, pairs_per_block) + i % 3
        pairs = list(zip(sources.tolist(), repliers.tolist()))
        blocks.append(make_block(pairs, index=i))
    return blocks


#: name -> (blocks, support floor, store row width in bytes).
FOLD_TRACES = {
    "rows-1-byte": (_drift(7, 60, n_sources=6), 2, 1),
    "rows-2-bytes": (_wide(5, 700), 2, 2),
    "one-key": ([make_block([(1, 10)] * 30, index=i) for i in range(5)], 2, 1),
    "floor-1": (_drift(7, 60, n_sources=6), 1, 1),
}
#: name -> StreamingRules settings: windows below and above a block, and
#: a bucket width of 9 pairs, which divides none of the block sizes.
FOLD_CONFIGS = {
    "exact-w45": {"window_pairs": 45},
    "exact-w1000": {"window_pairs": 1000},
    "lossy": {"backend": "lossy", "epsilon": 1 / 8.5},
}


@pytest.mark.parametrize("config", FOLD_CONFIGS)
@pytest.mark.parametrize("trace", FOLD_TRACES)
def test_streaming_store_blocks_equal_memory_blocks_and_the_loop(
    tmp_path, trace, config
):
    blocks, floor, width = FOLD_TRACES[trace]
    path = tmp_path / "t.rptrace"
    with TraceStoreWriter(path, block_size=len(blocks[0])) as writer:
        for block in blocks:
            writer.append_block(block)
    strategy = StreamingRules(min_support_count=floor, **FOLD_CONFIGS[config])
    want = reference_streaming_run(strategy, blocks)
    memory = [make_block(list(_pairs(b)), index=b.index) for b in blocks]
    assert strategy.run(memory) == want
    with TraceStoreReader(path) as reader:
        assert {row["width"] for row in reader.describe_blocks()} == {width}
        assert strategy.run(reader.iter_blocks()) == want


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("bad", [-1, 2**31])
def test_out_of_range_ids_raise_the_batch_strategies_error(bad, at):
    """Warm-up or scored block: every strategy rejects the block the same
    way, none counts the id."""
    blocks = _drift(4, 20)
    blocks[at] = make_block([(1, bad), *_pairs(blocks[at])], index=at)
    makers = [make for make, _eager in STRATEGIES.values()]
    makers += [lambda c=config, **g: _streaming(c, g) for config in STREAMING]
    errors = set()
    for make in makers:
        with pytest.raises(ValueError) as raised:
            make(min_support_count=2).run(blocks)
        errors.add(str(raised.value))
    assert errors == {"node ids must be in [0, 2**31) for key packing"}
