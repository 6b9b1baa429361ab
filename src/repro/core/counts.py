"""Online pair counts: the one table under every live rule set.

The paper has one learning event — "a query from antecedent *a* was
answered through consequent *c*" — and one table built from it: pair
counts, support-pruned, read back as the top-k consequents of an
antecedent (§III-B, §VI).  What the antecedent *is* differs per caller
(an upstream neighbor, a live connection, a query category); the table
does not.  Two backends share one method set:

==========================  ==============================================
``observe(a, c) -> bool``   fold in one event; True when the pair just
                            reached the support floor (a new rule)
``observe_all(a, cs)``      fold in ``(a, c)`` for each ``c`` in order,
                            as that many ``observe`` calls would
``covers(a)``               does any rule have antecedent ``a``?
``matches(a, c)``           is ``{a} -> {c}`` a rule?
``consequents(a, k=None)``  rule consequents of ``a``, highest support
                            first, ties to the smaller id; all of them,
                            or the best ``k`` (``k < 1`` raises)
``antecedents()``           the antecedents some rule covers
``n_rules()``               pairs at or above the support floor
``rule_stats(a, c)``        ``(support, confidence)``; confidence is the
                            support over ``a``'s total count
``clear()``                 forget everything
``rows`` / ``rank(row)``    the per-antecedent rows and the ranking kept
                            on a row, for a reader that walks them itself
``state()`` / ``from_state``  plain-data round trip (:mod:`repro.persist`)
==========================  ==============================================

:func:`forward_picks` is what every substrate forwards a covered query to.

* :class:`WindowCounts` — exact counts over a sliding window of the most
  recent ``window`` events, kept as one flat deque of the events' own
  antecedent and consequent objects;
* :class:`SketchCounts` — Manku–Motwani lossy counting over the whole
  stream in bounded memory: a retained count undercounts the truth by at
  most ``epsilon * n_seen``, and every pair seen more often than that is
  retained.

Both nest their counts per antecedent, so a read touches one
antecedent's consequents and nothing else, and both keep the
antecedent's total, its number of qualified consequents and the table's
rule count current inside ``observe`` — no read ever re-scans counts.
"""

from __future__ import annotations

import math
from collections import deque

from repro.utils.validation import check_fraction

__all__ = ["SketchCounts", "WindowCounts", "forward_picks"]


def forward_picks(ranked, top_k: int, upstream, usable) -> list[int]:
    """The consequents of ``ranked`` (best first) but ``upstream`` and any
    not ``in usable`` (neighbours, connections, live super-peers), cut at
    ``top_k`` after dropping, so a departed peer never takes a live one's
    slot.  Empty: no rule applies, and the caller floods (§III-B)."""
    picks = ranked[:top_k]
    for c in picks:
        if c == upstream or c not in usable:
            # rare: check the whole ranking once, and cut what is left
            kept = [c for c in ranked if c != upstream and c in usable]
            return forward_picks(kept, top_k, None, usable)
    return list(picks)


class _Row(dict):
    """One antecedent's ``consequent -> count`` map, plus the figures
    ``observe`` keeps current for it (slots: an instance ``__dict__`` per
    row would cost more than the figures it holds)."""

    __slots__ = ("total", "qualified", "ranked", "deltas")

    def __init__(self, deltas: dict[int, int] | None = None) -> None:
        #: sum of the row's counts — the confidence denominator.
        self.total = 0
        #: consequents at or above the support floor.
        self.qualified = 0
        #: those consequents, best first, or ``None`` once a count moved
        #: that may have reordered them.
        self.ranked: tuple[int, ...] | None = None
        #: sketch only: consequent -> largest possible undercount.
        self.deltas = deltas


class _PairCounts:
    """The reads, which are the same for both backends."""

    min_support_count: int
    _rows: dict[int, _Row]
    _n_rules: int

    def observe_all(self, a: int, cs) -> None:
        """``observe(a, c)`` for each ``c`` of ``cs``, in order."""
        for c in cs:
            self.observe(a, c)

    def covers(self, a: int) -> bool:
        row = self._rows.get(a)
        return row is not None and row.qualified > 0

    def matches(self, a: int, c: int) -> bool:
        row = self._rows.get(a)
        return row is not None and row.get(c, 0) >= self.min_support_count

    def consequents(self, a: int, k: int | None = None) -> list[int]:
        """Rule consequents of ``a``, best first — the caller's own list."""
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        row = self._rows.get(a)
        if row is None:
            return []
        ranked = row.ranked
        if ranked is None:
            ranked = self.rank(row)
        return list(ranked[:k])

    def rank(self, row: _Row) -> tuple[int, ...]:
        """``row``'s rule consequents, best first, ties to the smaller id,
        kept as ``row.ranked`` until ``observe`` moves a count in a way
        that may reorder them."""
        floor = self.min_support_count
        # by id, then stably by count: equal counts stay in id order
        row.ranked = tuple(
            sorted(
                sorted([c for c, n in row.items() if n >= floor]),
                key=row.__getitem__,
                reverse=True,
            )
        )
        return row.ranked

    @property
    def rows(self) -> dict[int, _Row]:
        """antecedent -> its row: one dict for the table's whole life
        (``clear`` empties it in place), so a reader may keep it."""
        return self._rows

    def antecedents(self) -> list[int]:
        """Antecedents that have at least one rule."""
        return [a for a, row in self._rows.items() if row.qualified]

    def n_rules(self) -> int:
        return self._n_rules

    def rule_stats(self, a: int, c: int) -> tuple[int, float]:
        """``(support, confidence)`` of ``{a} -> {c}``; ``(0, 0.0)`` for a
        pair the table does not hold."""
        row = self._rows.get(a)
        support = row.get(c, 0) if row is not None else 0
        if support == 0:
            return 0, 0.0
        return support, support / row.total


def _check_floor(min_support_count: int) -> int:
    if min_support_count < 1:
        raise ValueError("min_support_count must be >= 1")
    return int(min_support_count)


class WindowCounts(_PairCounts):
    """Exact pair counts over the last ``window`` events.

    A pair is a rule while its windowed count reaches
    ``min_support_count`` — the support pruning of the offline
    GENERATE-RULESET, applied to a window that slides one event at a time.
    """

    def __init__(self, window: int, min_support_count: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.min_support_count = _check_floor(min_support_count)
        #: the window, oldest first: each event's antecedent, then its
        #: consequent, the caller's own objects and no tuple per event (a
        #: tuple costs ~64 bytes and is a collector-tracked object, and a
        #: full window pins ``window`` of them).
        self._events: deque[int] = deque()
        self._rows: dict[int, _Row] = {}
        self._n_rules = 0

    def observe(self, a: int, c: int) -> bool:
        rows = self._rows
        floor = self.min_support_count
        row = rows.get(a)
        if row is None:
            row = rows[a] = _Row()
        new = row[c] = row.get(c, 0) + 1
        row.total += 1
        ranked = row.ranked
        if ranked is not None and new >= floor:
            # a count under the floor ranks nothing; one that joins it
            # does, and one already ranked moved up past its predecessor
            # unless that still counts more (or as much, with a smaller id)
            if new == floor:
                row.ranked = None
            else:
                at = ranked.index(c)
                if at:
                    ahead = ranked[at - 1]
                    n_ahead = row[ahead]
                    if n_ahead < new or (n_ahead == new and ahead > c):
                        row.ranked = None
        reached = new == floor
        if reached:
            row.qualified += 1
            self._n_rules += 1
        events = self._events
        events.append(a)
        events.append(c)
        if len(events) > 2 * self.window:
            a = events.popleft()
            c = events.popleft()
            row = rows[a]
            left = row[c] - 1
            row.total -= 1
            row.ranked = None
            if left == floor - 1:
                row.qualified -= 1
                self._n_rules -= 1
            if left:
                row[c] = left
            else:
                del row[c]
                if not row:
                    del rows[a]
        return reached

    def clear(self) -> None:
        self._events.clear()
        self._rows.clear()
        self._n_rules = 0

    def state(self) -> dict:
        """The window *is* the state; everything else is a function of it
        and :meth:`from_state` rebuilds it by replaying the window."""
        pairs = iter(self._events)
        return {
            "backend": "exact",
            "window_pairs": self.window,
            "threshold": self.min_support_count,
            "window": [(int(a), int(c)) for a, c in zip(pairs, pairs)],
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowCounts":
        counts = cls(state["window_pairs"], state["threshold"])
        for a, c in state["window"]:
            counts.observe(a, c)
        return counts


class SketchCounts(_PairCounts):
    """Lossy-counting pair counts over the whole stream.

    Every ``ceil(1 / epsilon)`` events the sketch drops the pairs whose
    count plus possible undercount does not exceed the number of buckets
    seen so far; dropping a rule takes it out of the antecedent's total,
    its qualified count and ``n_rules`` in the same step.
    """

    def __init__(self, epsilon: float, min_support_count: int) -> None:
        self.epsilon = check_fraction("epsilon", epsilon)
        self.min_support_count = _check_floor(min_support_count)
        self.bucket_width = math.ceil(1.0 / self.epsilon)
        self._rows: dict[int, _Row] = {}
        self.clear()

    def __len__(self) -> int:
        """Pairs retained (bounded by ``O(log(epsilon * n_seen) / epsilon)``)."""
        return sum(map(len, self._rows.values()))

    def observe(self, a: int, c: int) -> bool:
        rows = self._rows
        row = rows.get(a)
        if row is None:
            row = rows[a] = _Row({})
        new = row.get(c, 0) + 1
        if new == 1:
            row.deltas[c] = self._bucket - 1
        row[c] = new
        row.total += 1
        row.ranked = None
        reached = new == self.min_support_count
        if reached:
            row.qualified += 1
            self._n_rules += 1
        self.n_seen += 1
        if self.n_seen % self.bucket_width == 0:
            self._compress()
            # a rule dropped by the compression it arrived on never was one
            return reached and c in rows.get(a, ())
        return reached

    def _compress(self) -> None:
        bucket = self._bucket
        floor = self.min_support_count
        rows = self._rows
        for a in list(rows):
            row = rows[a]
            deltas = row.deltas
            doomed = [c for c, n in row.items() if n + deltas[c] <= bucket]
            if not doomed:
                continue
            row.ranked = None
            for c in doomed:
                n = row.pop(c)
                del deltas[c]
                row.total -= n
                if n >= floor:
                    row.qualified -= 1
                    self._n_rules -= 1
            if not row:
                del rows[a]
        self._bucket = bucket + 1

    def clear(self) -> None:
        self._rows.clear()
        self._n_rules = 0
        self.n_seen = 0
        self._bucket = 1

    def state(self) -> dict:
        """Entries are listed sorted, so equal sketches give equal states."""
        return {
            "backend": "lossy",
            "epsilon": self.epsilon,
            "threshold": self.min_support_count,
            "n_seen": self.n_seen,
            "current_bucket": self._bucket,
            "entries": sorted(
                (int(a), int(c), int(n), int(row.deltas[c]))
                for a, row in self._rows.items()
                for c, n in row.items()
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SketchCounts":
        counts = cls(state["epsilon"], state["threshold"])
        counts.n_seen = state["n_seen"]
        counts._bucket = state["current_bucket"]
        rows = counts._rows
        for a, c, n, delta in state["entries"]:
            row = rows.get(a)
            if row is None:
                row = rows[a] = _Row({})
            row[c] = n
            row.deltas[c] = delta
            row.total += n
            if n >= counts.min_support_count:
                row.qualified += 1
                counts._n_rules += 1
        return counts
