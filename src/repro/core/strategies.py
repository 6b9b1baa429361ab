"""The paper's four rule-set maintenance strategies.

Each class mirrors the pseudocode of §III-B (STATIC-RULESET,
SLIDING-WINDOW, LAZY-SLIDING-WINDOW, ADAPTIVE-SLIDING-WINDOW): a rule set
is generated from one block and tested against subsequent blocks; the
strategies differ only in *when* they regenerate.  All of them share the
generation parameters (support-prune threshold, optional top-k /
confidence pruning) through the common base class.

``run`` accepts any *iterable* of blocks — a list, or a one-shot
generator such as :meth:`repro.trace.store.TraceStoreReader.iter_blocks`.
Every strategy needs at most the previous block to regenerate from, so
streaming consumption retains O(1) blocks: a disk-resident trace far
larger than memory evaluates with the same results as the in-memory
path (regeneration that the eager loop performed after testing block
``b`` is deferred to just before testing ``b+1``, which produces the
identical rule sets because it only ever fires when a next block
exists).
"""

from __future__ import annotations

import abc
from dataclasses import replace
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from repro.core.evaluation import RulesetTestResult, ruleset_test
from repro.core.generation import generate_ruleset
from repro.core.rules import RuleSet
from repro.core.runner import StrategyRun, TrialResult
from repro.core.thresholds import RollingThreshold
from repro.obs.registry import get_global_registry
from repro.trace.blocks import PairBlock

__all__ = [
    "RulesetStrategy",
    "StaticRuleset",
    "SlidingWindow",
    "LazySlidingWindow",
    "AdaptiveSlidingWindow",
]


def _observe_block_timing(phase: str, strategy: str, seconds: float) -> None:
    """Record one per-block mining/test duration in the global registry.

    Block granularity (10k pairs per observation at paper scale) keeps
    the instrumentation cost invisible next to the work it measures;
    :func:`repro.experiments.report.offline_timings_section` surfaces
    the distributions in the markdown report.
    """
    get_global_registry().histogram(
        f"repro_offline_{phase}_seconds",
        f"Per-block {phase} duration in the offline simulator.",
        ("strategy",),
    ).labels(strategy).observe(seconds)


class RulesetStrategy(abc.ABC):
    """Base class: shared generation parameters and the run() contract."""

    name: str = "abstract"

    def __init__(
        self,
        *,
        min_support_count: int = 10,
        top_k: int | None = None,
        min_confidence: float = 0.0,
    ) -> None:
        self.min_support_count = int(min_support_count)
        self.top_k = top_k
        self.min_confidence = float(min_confidence)
        if self.min_support_count < 1:
            raise ValueError("min_support_count must be >= 1")

    def _generate(self, block: PairBlock) -> RuleSet:
        t0 = perf_counter()
        ruleset = generate_ruleset(
            block,
            min_support_count=self.min_support_count,
            top_k=self.top_k,
            min_confidence=self.min_confidence,
        )
        _observe_block_timing("mine", self.name, perf_counter() - t0)
        return ruleset

    def _test(self, ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
        t0 = perf_counter()
        result = ruleset_test(ruleset, block)
        _observe_block_timing("test", self.name, perf_counter() - t0)
        return result

    @abc.abstractmethod
    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        """Process the block stream and return the per-trial results.

        Every strategy trains on at least the first block, so the first
        *tested* block is the second one and a run needs >= 2 blocks.
        ``blocks`` may be a one-shot generator; strategies hold at most
        the previous block.
        """

    # -- partitioned evaluation ---------------------------------------------
    # A trace can be split across workers by contiguous block range
    # (``evaluate_store_partitioned``).  Each strategy declares which blocks
    # must *precede* a shard's scored range to reproduce the serial
    # rule-set state at the shard boundary, and run_partition() replays
    # warm-up + scored blocks, keeping only the scored trials.

    def partition_warmup(
        self, scored_start: int, block_pairs: Sequence[int] | None = None
    ) -> Sequence[int]:
        """Block indices needed before ``scored_start`` to seed state.

        The returned indices are streamed (in order) ahead of the scored
        range; trials they produce are discarded by
        :meth:`run_partition`.  The base implementation is the safe
        fallback — the full prefix, which replays the serial run exactly
        and is therefore always bit-identical (used by strategies whose
        state is unboundedly history-dependent, e.g. adaptive
        thresholds).  Subclasses with bounded lookback override it.

        ``block_pairs`` (per-block pair counts, e.g. from a store's
        footer index) is only consulted by strategies whose warm-up is
        denominated in pairs rather than blocks.
        """
        if scored_start < 1:
            raise ValueError("scored_start must be >= 1 (block 0 only trains)")
        return range(0, scored_start)

    def run_partition(
        self, blocks: Iterable[PairBlock], scored_start: int
    ) -> StrategyRun:
        """Run over warm-up + scored blocks, keeping only scored trials.

        ``blocks`` must stream exactly
        ``partition_warmup(scored_start)`` followed by the shard's
        scored range.  ``n_generations`` of the returned partial run
        counts only generations the serial loop would have performed
        *inside* the scored range (a generation fires at the trial whose
        ``fresh_ruleset`` flag it sets, so the kept-fresh count is that
        attribution), which is what makes
        :func:`~repro.core.runner.merge_runs` totals equal the serial
        run's.
        """
        if scored_start < 1:
            raise ValueError("scored_start must be >= 1 (block 0 only trains)")
        run = self.run(blocks)
        kept = tuple(t for t in run.trials if t.block_index >= scored_start)
        return StrategyRun(
            self.name,
            kept,
            n_generations=sum(1 for t in kept if t.fresh_ruleset),
        )

    def _stream(self, blocks: Iterable[PairBlock]) -> tuple[PairBlock, Iterator[PairBlock]]:
        """Split a block stream into (training block, test-block iterator).

        Raises up front when the stream holds fewer than two blocks, so
        list and generator inputs fail identically.
        """
        it = iter(blocks)
        first = next(it, None)
        second = next(it, None)
        if first is None or second is None:
            n = 0 if first is None else 1
            raise ValueError(
                f"{self.name} needs at least 2 blocks (1 train + 1 test), "
                f"got {n}"
            )

        def rest() -> Iterator[PairBlock]:
            yield second
            yield from it

        return first, rest()


class StaticRuleset(RulesetStrategy):
    """STATIC-RULESET: one rule set from the first block, used forever."""

    name = "static"

    def partition_warmup(
        self, scored_start: int, block_pairs: Sequence[int] | None = None
    ) -> Sequence[int]:
        # The only state is the rule set mined from block 0; a shard
        # anywhere in the trace needs just that one training block.
        super().partition_warmup(scored_start, block_pairs)
        return (0,)

    def run_partition(
        self, blocks: Iterable[PairBlock], scored_start: int
    ) -> StrategyRun:
        run = super().run_partition(blocks, scored_start)
        if scored_start > 1 and run.trials and run.trials[0].fresh_ruleset:
            # The shard re-mined block 0 locally, so its first trial
            # reports a fresh rule set — but serially only block 1's
            # trial follows the (single) generation.  Clear the flag so
            # merged partials equal the serial run, and leave the one
            # real generation to the shard that scored block 1.
            first = replace(run.trials[0], fresh_ruleset=False)
            run = StrategyRun(
                run.strategy_name, (first,) + run.trials[1:], n_generations=0
            )
        return run

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        train, rest = self._stream(blocks)
        ruleset = self._generate(train)
        trials = []
        for i, block in enumerate(rest, start=1):
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=self._test(ruleset, block),
                    fresh_ruleset=(i == 1),
                    ruleset_size=len(ruleset),
                )
            )
        return StrategyRun(self.name, tuple(trials), n_generations=1)


class SlidingWindow(RulesetStrategy):
    """SLIDING-WINDOW: regenerate from block b-1 before testing block b."""

    name = "sliding"

    def partition_warmup(
        self, scored_start: int, block_pairs: Sequence[int] | None = None
    ) -> Sequence[int]:
        # The rule set tested against block b is always mined from block
        # b-1: one overlapping prefix block fully seeds the shard.
        super().partition_warmup(scored_start, block_pairs)
        return (scored_start - 1,)

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        previous, rest = self._stream(blocks)
        trials = []
        n_generations = 0
        for block in rest:
            ruleset = self._generate(previous)
            n_generations += 1
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=self._test(ruleset, block),
                    fresh_ruleset=True,
                    ruleset_size=len(ruleset),
                )
            )
            previous = block
        return StrategyRun(self.name, tuple(trials), n_generations=n_generations)


class LazySlidingWindow(RulesetStrategy):
    """LAZY-SLIDING-WINDOW: regenerate only every ``laziness`` blocks.

    The rule set generated from block ``b`` is used for the next
    ``laziness`` trials (paper default: 10), then replaced with one built
    from the most recent block.
    """

    name = "lazy"

    def __init__(self, *, laziness: int = 10, **kwargs) -> None:
        super().__init__(**kwargs)
        if laziness < 1:
            raise ValueError("laziness must be >= 1")
        self.laziness = int(laziness)

    def partition_warmup(
        self, scored_start: int, block_pairs: Sequence[int] | None = None
    ) -> Sequence[int]:
        # The regeneration schedule is fixed (every ``laziness`` trials
        # from block 0), so the serial rule set in force at block b was
        # mined from the last schedule point g <= b-1.  Streaming from g
        # re-aligns the shard's trials-since-generation counter with the
        # serial schedule: at most ``laziness`` warm-up blocks.
        super().partition_warmup(scored_start, block_pairs)
        g = ((scored_start - 1) // self.laziness) * self.laziness
        return range(g, scored_start)

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        previous, rest = self._stream(blocks)
        ruleset = self._generate(previous)
        n_generations = 1
        trials = []
        trials_since_generation = 0
        for block in rest:
            # Deferred regeneration: the eager loop regenerated from the
            # just-tested block only when another block followed; firing
            # at the top of the next iteration (from the retained
            # previous block) is the streaming-safe equivalent.
            if trials_since_generation >= self.laziness:
                ruleset = self._generate(previous)
                n_generations += 1
                trials_since_generation = 0
            fresh = trials_since_generation == 0
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=self._test(ruleset, block),
                    fresh_ruleset=fresh,
                    ruleset_size=len(ruleset),
                )
            )
            trials_since_generation += 1
            previous = block
        return StrategyRun(self.name, tuple(trials), n_generations=n_generations)


class AdaptiveSlidingWindow(RulesetStrategy):
    """ADAPTIVE-SLIDING-WINDOW: regenerate when quality drops below thresholds.

    Coverage and success thresholds are rolling means of the previous
    ``history`` measured values (paper: 10 and 50), starting from
    ``initial_threshold`` (paper: 0.7).  After testing a block, if either
    measured value fell below its threshold, a new rule set is generated
    from that block — exactly the pseudocode's
    ``if results[coverage] < ct ... then R <- GENERATE-RULESET(b)``.
    """

    name = "adaptive"

    def __init__(
        self,
        *,
        history: int = 10,
        initial_threshold: float = 0.7,
        slack: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.history = int(history)
        self.initial_threshold = float(initial_threshold)
        self.slack = float(slack)
        if self.history < 1:
            raise ValueError("history must be >= 1")

    # partition_warmup: inherited full-prefix fallback.  The rolling
    # coverage/success thresholds observe every trial, and each observed
    # value depends on the rule set then in force — whose generation
    # points are data-dependent — so the state at a shard boundary has
    # no bounded lookback.  Replaying the full prefix is the only
    # bit-identical warm-up; partitioned adaptive runs therefore gain
    # correctness/uniform plumbing, not wall-clock (documented in
    # docs/performance.md).

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        previous, rest = self._stream(blocks)
        coverage_threshold = RollingThreshold(
            self.history, initial=self.initial_threshold, slack=self.slack
        )
        success_threshold = RollingThreshold(
            self.history, initial=self.initial_threshold, slack=self.slack
        )
        ruleset = self._generate(previous)
        n_generations = 1
        fresh = True
        regenerate = False
        trials = []
        for block in rest:
            if regenerate:
                # Deferred from the previous trial's threshold breach —
                # fires only when another block arrived, matching the
                # eager loop's "regenerate unless this was the last
                # block" guard.
                ruleset = self._generate(previous)
                n_generations += 1
                fresh = True
                regenerate = False
            ct = coverage_threshold.current()
            st = success_threshold.current()
            result = self._test(ruleset, block)
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=result,
                    fresh_ruleset=fresh,
                    ruleset_size=len(ruleset),
                )
            )
            coverage_threshold.observe(result.coverage)
            success_threshold.observe(result.success)
            fresh = False
            regenerate = result.coverage < ct or result.success < st
            previous = block
        return StrategyRun(self.name, tuple(trials), n_generations=n_generations)
