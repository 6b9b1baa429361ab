"""Streaming rule maintenance (the paper's future-work algorithm).

§VI describes "an additional algorithm ... that would create rule sets for
query routing and update these rules immediately as query and reply
messages are received ... Initial simulations have been very promising, and
consistently show coverage and success values above 90%."

:class:`StreamingRules` implements that algorithm with two interchangeable
counting backends:

* ``backend="exact"`` — :class:`~repro.core.counts.WindowCounts`, exact
  counts over the most recent ``window_pairs`` query–reply pairs;
* ``backend="lossy"`` — :class:`~repro.core.counts.SketchCounts`,
  bounded-memory Manku–Motwani counts over the whole stream, tying the
  implementation to the data-stream literature the paper cites.

Evaluation is *prequential* (test-then-train): each arriving pair is first
scored against the current rules — would this query's source have been
covered, and would the rules have pointed at the neighbor that actually
replied? — and only then folded into the counts.  Per-block coverage and
success are the prequential tallies, so the strategy plugs into the same
:class:`~repro.core.runner.StrategyRun` reporting as the batch strategies.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

from repro.core.counts import SketchCounts, WindowCounts
from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult, observe_block_timing
from repro.trace.blocks import PairBlock

__all__ = ["StreamingRules"]


class StreamingRules:
    """Immediate per-pair rule updates with prequential evaluation.

    Parameters
    ----------
    min_support_count:
        Same support semantics as the batch strategies: a (source, replier)
        pair is a rule once its windowed count reaches this value.
    window_pairs:
        Size of the exact sliding window (default: one paper block,
        10,000 pairs).  Ignored by the lossy backend.
    backend:
        ``"exact"`` or ``"lossy"``.
    epsilon:
        Lossy-counting error bound (lossy backend only).
    """

    name = "streaming"

    def __init__(
        self,
        *,
        min_support_count: int = 10,
        window_pairs: int = 10_000,
        backend: str = "exact",
        epsilon: float = 1e-4,
    ) -> None:
        if min_support_count < 1:
            raise ValueError("min_support_count must be >= 1")
        if window_pairs < 1:
            raise ValueError("window_pairs must be >= 1")
        if backend not in ("exact", "lossy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.min_support_count = int(min_support_count)
        self.window_pairs = int(window_pairs)
        self.backend = backend
        self.epsilon = float(epsilon)

    def make_counts(self) -> WindowCounts | SketchCounts:
        """A fresh :mod:`repro.core.counts` table for this configuration.

        It is the strategy's online core without the block-driven
        evaluation loop; :mod:`repro.live` drives one per servent to
        adapt routing as live traffic arrives.
        """
        if self.backend == "exact":
            return WindowCounts(self.window_pairs, self.min_support_count)
        return SketchCounts(self.epsilon, self.min_support_count)

    def partition_warmup(
        self, scored_start: int, block_pairs: Sequence[int] | None = None
    ) -> Sequence[int]:
        """Blocks needed before ``scored_start`` for partitioned runs.

        The exact backend's entire state is the sliding window of the
        last ``window_pairs`` pairs, so enough trailing blocks to cover
        that many pairs reproduce it bit-for-bit (``block_pairs`` —
        per-block pair counts — sizes that tail; without it the full
        prefix is the safe fallback).  The lossy sketch accumulates over
        the whole history, so it always warms from block 0.
        """
        if scored_start < 1:
            raise ValueError("scored_start must be >= 1 (block 0 only warms)")
        if self.backend != "exact" or block_pairs is None:
            return range(0, scored_start)
        start, covered = scored_start, 0
        while start > 0 and covered < self.window_pairs:
            start -= 1
            covered += int(block_pairs[start])
        return range(start, scored_start)

    def run_partition(
        self, blocks: Iterable[PairBlock], scored_start: int
    ) -> StrategyRun:
        """Run over warm-up + scored blocks, keeping only scored trials.

        Warm-up blocks past the first are scored and discarded (scoring
        never mutates the counts, so the final state matches observe-only
        warm-up).  ``n_generations`` stays 0 — streaming maintenance has
        no batch generations to attribute, in partials or merged runs.
        """
        if scored_start < 1:
            raise ValueError("scored_start must be >= 1 (block 0 only warms)")
        run = self.run(blocks)
        kept = tuple(t for t in run.trials if t.block_index >= scored_start)
        return StrategyRun(self.name, kept, n_generations=0)

    def run(self, blocks: Iterable[PairBlock]) -> StrategyRun:
        """Prequentially process ``blocks`` (any iterable, e.g. a store
        reader's block generator — no block is retained after its pairs
        fold into the counts).

        The first block only warms the counts (it is the other strategies'
        training block, so per-trial series stay aligned across
        strategies); every subsequent block yields a
        :class:`~repro.core.runner.TrialResult`.
        """
        it = iter(blocks)
        warmup = next(it, None)
        if warmup is None:
            raise ValueError("streaming needs at least 2 blocks")
        counts = self.make_counts()
        for source, replier in zip(
            warmup.sources.tolist(), warmup.repliers.tolist()
        ):
            counts.observe(source, replier)
        del warmup
        trials = []
        for block in it:
            t0 = perf_counter()
            n_total = len(block)
            n_covered = 0
            n_successful = 0
            for source, replier in zip(
                block.sources.tolist(), block.repliers.tolist()
            ):
                if counts.covers(source):
                    n_covered += 1
                    if counts.matches(source, replier):
                        n_successful += 1
                counts.observe(source, replier)
            observe_block_timing("test", self.name, perf_counter() - t0)
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=RulesetTestResult(
                        n_total=n_total,
                        n_covered=n_covered,
                        n_successful=n_successful,
                    ),
                    fresh_ruleset=True,  # rules are *always* fresh
                    ruleset_size=counts.n_rules(),
                )
            )
        if not trials:
            raise ValueError("streaming needs at least 2 blocks")
        # Continuous maintenance: report zero batch generations; the
        # blocks_per_generation metric is inf by construction.
        return StrategyRun(self.name, tuple(trials), n_generations=0)
