"""Routing rules and rule sets.

A :class:`RuleSet` is the table the paper's simulator kept — "the host from
which one or more queries were received, a node that returned a reply
message ... and the number of times that that node sent reply messages" —
held as the arrays GENERATE-RULESET mines it as: sorted packed
``(antecedent << 32) | consequent`` keys and their support counts.  It
answers the read half of the :mod:`repro.core.counts` method set under
the same names, order and errors, so what the antecedent *is* (a neighbor,
or a packed (neighbor, category) key) is the caller's business.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.trace.blocks import key_repliers, key_sources, pack_keys, scan_id_range

__all__ = ["Rule", "RuleSet"]


@dataclass(frozen=True, slots=True)
class Rule:
    """One routing rule {antecedent} -> {consequent} with its support count."""

    antecedent: int
    consequent: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a rule's support count must be >= 1")

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"{{{self.antecedent}}} -> {{{self.consequent}}} (n={self.count})"


class RuleSet:
    """An immutable set of routing rules, held sorted by packed key
    (``RuleSet()`` is the empty one)."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        table = np.array(
            [(r.antecedent, r.consequent, r.count) for r in rules], dtype=np.int64
        ).reshape(-1, 3)
        scan_id_range(table[:, 0], table[:, 1])
        keys = pack_keys(table[:, 0], table[:, 1])
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate {antecedent} -> {consequent} in rule set")
        self._set(keys, table[order, 2])

    def _set(self, keys: np.ndarray, counts: np.ndarray) -> None:
        #: strictly increasing packed keys and, aligned, their support counts.
        self.keys, self.counts = keys, counts
        #: the distinct antecedents, sorted; antecedent ``i``'s rules are
        #: ``keys[starts[i]:starts[i + 1]]``.
        self.antes, starts = np.unique(key_sources(keys), return_index=True)
        self.starts = np.append(starts, len(keys))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_arrays(cls, keys: np.ndarray, counts: np.ndarray) -> "RuleSet":
        """Wrap strictly increasing packed ``keys`` of range-checked ids and
        their ``counts`` — what ``np.unique`` returns for a block's keys."""
        ruleset = cls.__new__(cls)
        ruleset._set(keys, counts)
        return ruleset

    @classmethod
    def from_counts(cls, counts: Mapping[tuple[int, int], int]) -> "RuleSet":
        """Build from a {(antecedent, consequent): count} mapping."""
        return cls(Rule(a, c, n) for (a, c), n in counts.items())

    # -- queries (the read half of the repro.core.counts method set) --------
    def __len__(self) -> int:
        """Number of rules (antecedent–consequent pairs)."""
        return len(self.keys)

    n_rules = __len__

    def ranked(self) -> np.ndarray:
        """Indices into :attr:`keys`, antecedent by antecedent, each one's
        rules highest support first and ties to the smaller consequent."""
        return np.lexsort((self.keys, -self.counts, key_sources(self.keys)))

    def __iter__(self) -> Iterator[Rule]:
        order = self.ranked()
        keys, counts = self.keys[order], self.counts[order].tolist()
        rows = zip(key_sources(keys).tolist(), key_repliers(keys).tolist(), counts)
        return (Rule(a, c, n) for a, c, n in rows)

    def antecedents(self) -> list[int]:
        """Antecedents that have at least one rule."""
        return self.antes.tolist()

    def _span(self, a: int) -> tuple[int, int]:
        """Bounds of ``a``'s rules in :attr:`keys` (empty when it has none)."""
        i = int(np.searchsorted(self.antes, a))
        if i == len(self.antes) or self.antes[i] != a:
            return 0, 0
        return self.starts[i], self.starts[i + 1]

    def covers(self, a: int) -> bool:
        """Whether any rule's antecedent is ``a``."""
        lo, hi = self._span(a)
        return bool(lo < hi)

    def matches(self, a: int, c: int) -> bool:
        """Whether {a} -> {c} is a rule in this set."""
        lo, hi = self._span(a)
        return bool((key_repliers(self.keys[lo:hi]) == c).any())

    def consequents(self, a: int, k: int | None = None) -> list[int]:
        """Rule consequents of ``a``, highest support first, ties to the
        smaller id; all of them, or the best ``k`` (the paper's "sent to
        the k neighbors with the highest support")."""
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        lo, hi = self._span(a)
        consequents = key_repliers(self.keys[lo:hi])
        best_first = np.lexsort((consequents, -self.counts[lo:hi]))
        return consequents[best_first[:k]].tolist()

    def __repr__(self) -> str:  # pragma: no cover
        return f"RuleSet(rules={len(self)}, antecedents={len(self.antes)})"
