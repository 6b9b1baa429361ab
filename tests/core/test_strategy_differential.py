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
"""

import numpy as np
import pytest

from repro.core.runner import StrategyRun, TrialResult
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.thresholds import RollingThreshold
from repro.parallel.partition import evaluate_store, evaluate_store_partitioned
from repro.trace.store import TraceStoreWriter
from tests.conftest import make_block
from tests.core.reference_rules import (
    reference_generate_ruleset,
    reference_ruleset_test,
)


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
