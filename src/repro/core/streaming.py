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

:meth:`StreamingRules.run` scores a whole block at once with array passes,
giving what the per-event tables would give pair by
pair (``tests/core/reference_streaming.py`` is that loop, kept as the
oracle):

* exact — a pair is a rule at stream position ``t`` while its ``floor``-th
  most recent occurrence before ``t`` is at most ``window_pairs`` back, so
  each occurrence ``p_j`` opens a rule interval ``[p_j + 1, p_{j-floor+1}
  + window_pairs]``; a source is covered where one of its pairs' intervals
  holds ``t``.  Between blocks only each key's last ``floor`` positions
  inside the window are kept, and ordered with the block's keys by
  :func:`~repro.trace.blocks.key_order`.
* lossy — counts only rise between two compressions, so the stream is cut
  at bucket boundaries, and the block is read as its histogram's rows
  (:meth:`~repro.trace.blocks.PairBlock.key_inverse`).  Inside a segment a
  key's pairs count the sketch's count plus their occurrence rank, and
  every rule holds to the segment's end, so a source is covered from its
  earliest open: the segment's start for a rule the sketch holds, else
  the pair after the one that lifts one of its keys onto the floor.  Each
  boundary compresses the sorted ``(keys, counts, deltas)`` arrays as
  ``SketchCounts`` compresses its rows.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.core.counts import SketchCounts, WindowCounts
from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult, observe_block_timing
from repro.trace.blocks import PairBlock, key_order, source_bits
from repro.utils.validation import check_fraction

__all__ = ["StreamingRules"]

_EMPTY = np.empty(0, dtype=np.int64)


def _heads(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``ordered`` starts."""
    head = np.empty(len(ordered), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return head


def _n_covered(sources, first, last, keys) -> int:
    """How many of ``keys`` (the pairs at positions ``0..len - 1``) have a
    source with an interval ``[first, last]`` holding their position (an
    interval may be empty only as ``[t + 1, t]``); ``sources`` are the
    intervals' sources, as :func:`~repro.trace.blocks.source_bits`.

    Sorted by their opens as ``source | position``, a source's intervals
    melt into disjoint segments: a segment starts at an interval that
    opens past the running maximum of the closes before it (an earlier
    source's closes all sort below this source's opens).  A segment
    counts the pairs between two searches of the sorted queries, and the
    segment bounds, sorted too, keep the searches cache-local."""
    opens = sources | first
    order = np.argsort(opens)
    opens = opens[order]
    ends = np.maximum.accumulate((sources | last)[order])
    starts = np.empty(len(opens), dtype=bool)
    starts[:1] = True
    np.greater(opens[1:], ends[:-1], out=starts[1:])
    stops = np.empty(len(opens), dtype=bool)
    stops[:-1] = starts[1:]
    stops[-1:] = True
    queries = np.sort(source_bits(keys) | np.arange(len(keys)))
    return int(
        np.sum(np.searchsorted(queries, ends[stops], "right"))
        - np.sum(np.searchsorted(queries, opens[starts], "left"))
    )


class _WindowFold:
    """Exact counts over the last ``window`` pairs, one block at a time.

    State: each key's last ``floor`` positions inside the window, sorted
    by (key, position) — older ones can neither make a rule nor end one.
    """

    def __init__(self, window: int, floor: int) -> None:
        # any window past 2**62 pairs holds the whole stream; the cap keeps
        # position arithmetic inside int64
        self.window, self.floor = min(window, 1 << 62), floor
        self.keys = self.positions = _EMPTY
        #: stream position of the block's first pair.
        self.start = 0

    def __call__(self, block: PairBlock) -> tuple[int, int, int]:
        """Fold one block in; ``(covered, successful, n_rules)``."""
        window, floor = self.window, self.floor
        start, stop = self.start, self.start + len(block)
        block_keys = block.packed_keys()
        keys = np.concatenate((self.keys, block_keys))
        # carried keys sit before the block's, so each key's carried
        # positions stay before its block ones
        order = key_order(keys)
        keys = keys[order]
        positions = np.concatenate((self.positions, np.arange(start, stop)))[order]
        m = len(keys)
        pad = np.full(floor, -1, dtype=np.int64)
        behind_keys = np.concatenate((pad, keys))
        behind = np.concatenate((pad, positions))
        # floor occurrences in [t - window, t - 1]: the floor-th one back
        # is the same key and at most window back
        successful = np.count_nonzero(
            (behind_keys[:m] == keys)
            & (behind[:m] >= positions - window)
            & (positions >= start)
        )
        # the rule interval each occurrence opens, cut to this block
        oldest_same = behind_keys[1 : m + 1] == keys
        oldest = behind[1 : m + 1]
        first = np.maximum(positions + 1, start)
        last = np.minimum(oldest + window, stop - 1)
        opens = oldest_same & (first <= last)
        # a key's intervals rise at both ends, so a run of them that each
        # meet the one before covers one stretch, from the run's first
        # open to its last close
        opened = keys[opens]
        first, last = first[opens] - start, last[opens] - start
        run = _heads(opened)
        run[1:] |= first[1:] > last[:-1] + 1
        ends = np.empty(len(run), dtype=bool)
        ends[:-1] = run[1:]
        ends[-1:] = True
        covered = _n_covered(
            source_bits(opened[run]), first[run], last[ends], block_keys
        )
        # carry each key's last `floor` positions still inside the window
        ahead_keys = np.concatenate((keys, pad))
        newest = ahead_keys[floor:] != keys
        cutoff = stop - window
        n_rules = np.count_nonzero(
            (ahead_keys[1 : m + 1] != keys) & oldest_same & (oldest >= cutoff)
        )
        kept = newest & (positions >= cutoff)
        self.keys, self.positions = keys[kept], positions[kept]
        self.start = stop
        return covered, int(successful), int(n_rules)


class _SketchFold:
    """Lossy counting, one block at a time, cut at bucket boundaries.

    State: the sketch's entries as sorted ``keys`` with aligned ``counts``
    and ``deltas``, the pairs seen and the current bucket — what
    ``SketchCounts.state()`` lists.
    """

    def __init__(self, epsilon: float, floor: int) -> None:
        self.width = math.ceil(1.0 / epsilon)
        self.floor = floor
        self.keys = self.counts = self.deltas = _EMPTY
        self.n_seen = 0
        self.bucket = 1

    def __call__(self, block: PairBlock) -> tuple[int, int, int]:
        """Fold one block in, read as its histogram's keys and each pair's
        row of them; ``(covered, successful, n_rules)``."""
        rows = block.key_inverse()  # first: an in-memory block sorts once
        keys, _ = block.key_histogram()
        # the block's distinct sources, and each row's and pair's among them
        source_keys = source_bits(keys)
        head = _heads(source_keys)
        sources = source_keys[head]
        row_source = np.cumsum(head) - 1
        pair_source = row_source[rows]
        covered = successful = 0
        start, n = 0, len(rows)
        while start < n:
            stop = min(n, start + self.width - self.n_seen % self.width)
            segment_covered, segment_successful = self._segment(
                keys, rows[start:stop], sources, row_source, pair_source[start:stop]
            )
            covered += segment_covered
            successful += segment_successful
            self.n_seen += stop - start
            if self.n_seen % self.width == 0:
                keep = self.counts + self.deltas > self.bucket
                self.keys = self.keys[keep]
                self.counts = self.counts[keep]
                self.deltas = self.deltas[keep]
                self.bucket += 1
            start = stop
        return covered, successful, int(np.count_nonzero(self.counts >= self.floor))

    def _segment(self, keys, rows, sources, row_source, pair_source) -> tuple[int, int]:
        """Score and count the pairs ``keys[rows]``, which no compression
        separates; ``sources`` are the block's distinct sources, and
        ``row_source`` / ``pair_source`` each row's and pair's among them."""
        floor, n = self.floor, len(rows)
        sizes = np.bincount(rows)
        present = np.flatnonzero(sizes)
        sizes = sizes[present]
        distinct = keys[present]
        at = np.searchsorted(self.keys, distinct)
        held = np.zeros(len(distinct), dtype=np.int64)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == distinct[found]
        held[found] = self.counts[at[found]]
        # a key's pairs count held, held + 1, ... when they are tested
        short = np.maximum(floor - held, 0)
        successful = int(np.maximum(sizes - short, 0).sum())
        # every rule holds to the segment's end, so a source is covered
        # from its earliest open: the start, for a rule the sketch holds,
        # else the pair after the one that lifts a key onto the floor
        earliest = np.full(len(sources), n, dtype=np.int64)
        reach = (short > 0) & (short <= sizes)
        if reach.any():
            # the lifting keys' pairs, by key then position
            lifting = np.zeros(len(keys), dtype=bool)
            lifting[present[reach]] = True
            pairs = np.flatnonzero(lifting[rows])
            pairs = pairs[np.argsort(rows[pairs], kind="stable")]
            offsets = np.cumsum(sizes[reach]) - sizes[reach]
            lifts = pairs[offsets + short[reach] - 1] + 1
            owner = row_source[present[reach]]
            runs = np.flatnonzero(_heads(owner))
            earliest[owner[runs]] = np.minimum.reduceat(lifts, runs)
        held_rules = source_bits(self.keys[self.counts >= floor])
        slot = np.searchsorted(sources, held_rules)
        inside = slot < len(sources)
        slot = slot[inside]
        earliest[slot[sources[slot] == held_rules[inside]]] = 0
        covered = int(np.count_nonzero(np.arange(n) >= earliest[pair_source]))
        # fold in: held keys add their counts, new keys enter the bucket
        self.counts[at[found]] += sizes[found]
        # one merge for the three columns: the i-th new key lands after
        # the held keys below it and the i new keys before it
        new = ~found
        slots = at[new] + np.arange(np.count_nonzero(new))
        kept = np.ones(len(self.keys) + len(slots), dtype=bool)
        kept[slots] = False
        merged = []
        for held_column, new_column in (
            (self.keys, distinct[new]),
            (self.counts, sizes[new]),
            (self.deltas, self.bucket - 1),
        ):
            column = np.empty(len(kept), dtype=np.int64)
            column[kept] = held_column
            column[slots] = new_column
            merged.append(column)
        self.keys, self.counts, self.deltas = merged
        return covered, successful


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
        Lossy-counting error bound, a fraction in ``(0, 1)``; used by the
        lossy backend and checked for both.
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
        self.epsilon = check_fraction("epsilon", epsilon)

    def make_counts(self) -> WindowCounts | SketchCounts:
        """A fresh :mod:`repro.core.counts` table for this configuration.

        It is the strategy's online core, one event at a time:
        :mod:`repro.live` drives one per servent to adapt routing as live
        traffic arrives.  :meth:`run` folds whole blocks without one and
        scores every pair as this table would.
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
        :class:`~repro.core.runner.TrialResult`.  Blocks are read through
        their packed keys (exact) or histogram rows (lossy), so an id
        outside ``[0, 2**31)`` raises ``ValueError`` as it does for the
        batch strategies.
        """
        it = iter(blocks)
        warmup = next(it, None)
        if warmup is None:
            raise ValueError("streaming needs at least 2 blocks")
        if self.backend == "exact":
            fold = _WindowFold(self.window_pairs, self.min_support_count)
        else:
            fold = _SketchFold(self.epsilon, self.min_support_count)
        fold(warmup)
        del warmup
        trials = []
        for block in it:
            t0 = perf_counter()
            n_covered, n_successful, n_rules = fold(block)
            observe_block_timing("test", self.name, perf_counter() - t0)
            trials.append(
                TrialResult(
                    block_index=block.index,
                    result=RulesetTestResult(
                        n_total=len(block),
                        n_covered=n_covered,
                        n_successful=n_successful,
                    ),
                    fresh_ruleset=True,  # rules are *always* fresh
                    ruleset_size=n_rules,
                )
            )
        if not trials:
            raise ValueError("streaming needs at least 2 blocks")
        # Continuous maintenance: report zero batch generations; the
        # blocks_per_generation metric is inf by construction.
        return StrategyRun(self.name, tuple(trials), n_generations=0)
