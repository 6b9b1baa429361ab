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

:meth:`StreamingRules.run` scores a whole block at once with array passes
over its packed keys, giving what the per-event tables would give pair by
pair (``tests/core/reference_streaming.py`` is that loop, kept as the
oracle):

* exact — a pair is a rule at stream position ``t`` while its ``floor``-th
  most recent occurrence before ``t`` is at most ``window_pairs`` back, so
  each occurrence ``p_j`` opens a rule interval ``[p_j + 1, p_{j-floor+1}
  + window_pairs]``; a source is covered where one of its pairs' intervals
  holds ``t``.  Between blocks only each key's last ``floor`` positions
  inside the window are kept.
* lossy — counts only rise between two compressions, so the stream is cut
  at bucket boundaries: inside a segment a pair's count is the sketch's
  plus its occurrence rank, and a source is covered from the pair after
  its first key reaches the floor.  Each boundary compresses the sorted
  ``(keys, counts, deltas)`` arrays as ``SketchCounts`` compresses its rows.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.core.counts import SketchCounts, WindowCounts
from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult, observe_block_timing
from repro.trace.blocks import PairBlock, source_bits
from repro.utils.validation import check_fraction

__all__ = ["StreamingRules"]

_EMPTY = np.empty(0, dtype=np.int64)
_LOW = np.uint64(0xFFFFFFFF)
_SIGN = np.uint64(1 << 63)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The order that sorts int64 ``keys``, equal keys by position — what
    numpy's stable ``argsort`` gives, without its timsort.

    A radix sort of two 32-bit digits, the low half of each key first:
    each pass is one ``np.sort`` of ``digit << 32 | index``, so equal
    digits keep the previous pass's order.  Flipping the sign bit turns
    signed order into unsigned order.  ``len(keys)`` must be below
    ``2**32``."""
    unsigned = keys.view(np.uint64) ^ _SIGN
    index = np.arange(len(keys), dtype=np.uint64)
    low = unsigned << np.uint64(32)
    low |= index
    low.sort()
    low &= _LOW
    order = low.view(np.int64)
    high = unsigned[order]
    high &= ~_LOW
    high |= index
    high.sort()
    high &= _LOW
    return order[high.view(np.int64)]


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

    def __call__(self, block_keys: np.ndarray) -> tuple[int, int, int]:
        """Fold one block in; ``(covered, successful, n_rules)``."""
        window, floor = self.window, self.floor
        start, stop = self.start, self.start + len(block_keys)
        keys = np.concatenate((self.keys, block_keys))
        positions = np.concatenate((self.positions, np.arange(start, stop)))
        order = _stable_order(keys)
        keys, positions = keys[order], positions[order]
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
        sources = source_bits(keys[opens])
        covered = _n_covered(
            sources, first[opens] - start, last[opens] - start, block_keys
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

    def __call__(self, block_keys: np.ndarray) -> tuple[int, int, int]:
        """Fold one block in; ``(covered, successful, n_rules)``."""
        covered = successful = 0
        start, n = 0, len(block_keys)
        while start < n:
            stop = min(n, start + self.width - self.n_seen % self.width)
            segment_covered, segment_successful = self._segment(block_keys[start:stop])
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

    def _segment(self, segment: np.ndarray) -> tuple[int, int]:
        """Score and count pairs no compression separates."""
        floor, n = self.floor, len(segment)
        order = _stable_order(segment)
        keys = segment[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        group = np.cumsum(head) - 1
        distinct = keys[heads]
        at = np.searchsorted(self.keys, distinct)
        held = np.zeros(len(distinct), dtype=np.int64)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == distinct[found]
        held[found] = self.counts[at[found]]
        # each pair's count when it is tested: the sketch's plus its rank
        before = held[group] + np.arange(n) - heads[group]
        successful = int(np.count_nonzero(before >= floor))
        # a source is covered from the start by a rule the sketch holds,
        # and from the pair after the one that lifts a key onto the floor
        reach = before == floor - 1
        held_rules = source_bits(self.keys[self.counts >= floor])
        opening = np.concatenate((held_rules, source_bits(keys[reach])))
        first = np.concatenate((np.zeros(len(held_rules), np.int64), order[reach] + 1))
        covered = _n_covered(opening, first, n - 1, segment)
        # fold in: held keys add their counts, new keys enter the bucket
        sizes = np.diff(np.append(heads, n))
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
        :meth:`~repro.trace.blocks.PairBlock.packed_keys`, so an id
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
        fold(warmup.packed_keys())
        del warmup
        trials = []
        for block in it:
            t0 = perf_counter()
            n_covered, n_successful, n_rules = fold(block.packed_keys())
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
