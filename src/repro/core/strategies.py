"""The paper's four rule-set maintenance strategies.

The pseudocode of §III-B (STATIC-RULESET, SLIDING-WINDOW,
LAZY-SLIDING-WINDOW, ADAPTIVE-SLIDING-WINDOW) is one loop: a rule set is
generated from one block and tested against subsequent blocks; the
strategies differ only in *when* they regenerate.  The loop is
:meth:`RulesetStrategy.run`, and each class says only when regeneration is
due: never, always, every ``laziness`` trials, or when a rolling threshold
is breached.  All of them share the generation parameters (support-prune
threshold, optional top-k / confidence pruning) through the base class.

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
import itertools
from dataclasses import replace
from time import perf_counter
from typing import Callable, Iterable, Sequence

from repro.core.evaluation import RulesetTestResult, ruleset_test
from repro.core.generation import check_generation_params, generate_ruleset
from repro.core.rules import RuleSet
from repro.core.runner import StrategyRun, TrialResult, observe_block_timing
from repro.core.thresholds import RollingThreshold
from repro.trace.blocks import PairBlock

__all__ = [
    "RulesetStrategy",
    "StaticRuleset",
    "SlidingWindow",
    "LazySlidingWindow",
    "AdaptiveSlidingWindow",
]


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
        check_generation_params(
            self.min_support_count, self.top_k, self.min_confidence
        )

    def _generate(self, block: PairBlock) -> RuleSet:
        t0 = perf_counter()
        ruleset = generate_ruleset(
            block,
            min_support_count=self.min_support_count,
            top_k=self.top_k,
            min_confidence=self.min_confidence,
        )
        observe_block_timing("mine", self.name, perf_counter() - t0)
        return ruleset

    def _test(self, ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
        t0 = perf_counter()
        result = ruleset_test(ruleset, block)
        observe_block_timing("test", self.name, perf_counter() - t0)
        return result

    @abc.abstractmethod
    def _schedule(self) -> Callable[[RulesetTestResult], bool]:
        """One run's regeneration rule: called with each trial's result, in
        order, it says whether a new rule set is due before the next trial.
        Whatever it remembers between trials belongs to that one run."""

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        """Process the block stream and return the per-trial results.

        Every strategy trains on at least the first block, so the first
        *tested* block is the second one and a run needs >= 2 blocks.
        ``blocks`` may be a one-shot generator; strategies hold at most
        the previous block.
        """
        it = iter(blocks)
        previous = next(it, None)
        regeneration_due = self._schedule()
        n_generations = 0
        due = True  # block 0 only trains: the first rule set comes from it
        trials = []
        for block in it:
            fresh = due
            if due:
                # Deferred from the previous trial (see the module docstring).
                ruleset = self._generate(previous)
                n_generations += 1
            result = self._test(ruleset, block)
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=result,
                    fresh_ruleset=fresh,
                    ruleset_size=len(ruleset),
                )
            )
            due = regeneration_due(result)
            previous = block
        if not trials:
            raise ValueError(
                f"{self.name} needs at least 2 blocks (1 train + 1 test), "
                f"got {0 if previous is None else 1}"
            )
        return StrategyRun(self.name, tuple(trials), n_generations=n_generations)

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

        ``block_pairs`` (per-block pair counts, e.g. a store's
        ``block_pairs()``) is only consulted by strategies whose warm-up is
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

    def _schedule(self) -> Callable[[RulesetTestResult], bool]:
        return lambda result: False


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

    def _schedule(self) -> Callable[[RulesetTestResult], bool]:
        return lambda result: True


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

    def _schedule(self) -> Callable[[RulesetTestResult], bool]:
        trials = itertools.count(1)
        return lambda result: next(trials) % self.laziness == 0


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

    def _schedule(self) -> Callable[[RulesetTestResult], bool]:
        coverage_threshold = RollingThreshold(
            self.history, initial=self.initial_threshold, slack=self.slack
        )
        success_threshold = RollingThreshold(
            self.history, initial=self.initial_threshold, slack=self.slack
        )

        def breached(result: RulesetTestResult) -> bool:
            # Each value is compared with the threshold in force before it
            # joins the history.
            due = (
                result.coverage < coverage_threshold.current()
                or result.success < success_threshold.current()
            )
            coverage_threshold.observe(result.coverage)
            success_threshold.observe(result.success)
            return due

        return breached
