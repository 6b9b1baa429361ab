"""RULESET-TEST: the paper's coverage and success measures.

Given a rule set and a test block of query–reply pairs (Eq. 1 and Eq. 2 of
the paper):

* ``N`` — queries in the test block that received a reply (every pair);
* ``n`` — those whose *source* matches some rule antecedent;
* ``s`` — those whose (source, replier) matches a rule exactly;
* coverage ``alpha = n / N``; success ``rho = s / n``.

A block is tested through its key histogram (the distinct packed
``(source, replier)`` keys, sorted, and their counts, which
GENERATE-RULESET reads too), from the rule set's side: :func:`_locate`
searches the sorted keys once per antecedent, for the range of keys with
that source, and once per rule, for the rule's own key.  ``n`` is the
histogram's counts summed over the antecedents' ranges and ``s`` over
the rules found, so one test costs a search per rule, not per distinct
key.  :func:`match_block` spreads the same answer over the keys for the
tests that need one per key or, through the block's inverse, per pair.
The pair-by-pair loops these are property-tested against are
``tests/core/reference_rules.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.rules import RuleSet
from repro.trace.blocks import PairBlock, source_key_range
from repro.utils.rng import as_generator

__all__ = [
    "RulesetTestResult",
    "match_block",
    "ruleset_test",
    "ruleset_test_fallback",
    "ruleset_test_random_subset",
]


@dataclass(frozen=True)
class RulesetTestResult:
    """Outcome of testing one rule set against one block."""

    n_total: int  # N: replied queries in the test block
    n_covered: int  # n: queries whose source matches an antecedent
    n_successful: int  # s: queries whose (source, replier) matches a rule

    def __post_init__(self) -> None:
        if not 0 <= self.n_successful <= self.n_covered <= self.n_total:
            raise ValueError(
                f"inconsistent counts: s={self.n_successful} "
                f"n={self.n_covered} N={self.n_total}"
            )

    @property
    def coverage(self) -> float:
        """alpha = n / N (0 when the test block is empty)."""
        return self.n_covered / self.n_total if self.n_total else 0.0

    @property
    def success(self) -> float:
        """rho = s / n (0 when no query is covered)."""
        return self.n_successful / self.n_covered if self.n_covered else 0.0

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return (
            f"coverage={self.coverage:.3f} success={self.success:.3f} "
            f"(N={self.n_total}, n={self.n_covered}, s={self.n_successful})"
        )


def _locate(
    ruleset: RuleSet, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where ``ruleset`` lands in a block's sorted distinct ``keys``.

    Returns ``(lo, hi, at, found)``: the keys whose source is antecedent
    ``ruleset.antes[i]`` are ``keys[lo[i]:hi[i]]``, and rule
    ``ruleset.keys[j]`` sits at ``keys[at[j]]`` where ``found[j]``.
    """
    first, last = source_key_range(ruleset.antes)
    lo = np.searchsorted(keys, first)
    hi = np.searchsorted(keys, last, side="right")
    at = np.searchsorted(keys, ruleset.keys)
    found = at < len(keys)
    found[found] = keys[at[found]] == ruleset.keys[found]
    return lo, hi, at, found


def match_block(
    ruleset: RuleSet, block: PairBlock
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RULESET-TEST's membership answer, spread over the distinct pairs.

    Returns ``(covered, hit, rule)`` with one entry per key of
    ``block.key_histogram()``: whether the key's source is a rule
    antecedent, whether the key is a rule, and — where it is — that
    rule's index into ``ruleset.keys`` (0 elsewhere).  Indexing them by
    ``block.key_inverse()`` gives the answer for each pair.
    """
    keys, _ = block.key_histogram()
    lo, hi, at, found = _locate(ruleset, keys)
    # The antecedents' ranges are disjoint: +1 where one opens, -1 where
    # it closes, and a running sum marks the keys inside one.
    edges = np.bincount(lo, minlength=len(keys) + 1) - np.bincount(
        hi, minlength=len(keys) + 1
    )
    covered = np.cumsum(edges[:-1]) > 0
    hit = np.zeros(len(keys), dtype=bool)
    hit[at[found]] = True
    rule = np.zeros(len(keys), dtype=np.intp)
    rule[at[found]] = np.flatnonzero(found)
    return covered, hit, rule


def ruleset_test(ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
    """Vectorized RULESET-TEST: sums of the block's key counts over the
    antecedents' key ranges (``n``) and over the rules it holds (``s``)."""
    keys, counts = block.key_histogram()
    lo, hi, at, found = _locate(ruleset, keys)
    below = np.concatenate(([0], np.cumsum(counts)))
    return RulesetTestResult(
        n_total=len(block),
        n_covered=int((below[hi] - below[lo]).sum()),
        n_successful=int(counts[at[found]].sum()),
    )


def _per_pair(
    ruleset: RuleSet, block: PairBlock
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`match_block`'s ``covered`` and ``hit``, one entry per pair."""
    covered, hit, _ = match_block(ruleset, block)
    inverse = block.key_inverse()
    return covered[inverse], hit[inverse]


def ruleset_test_fallback(
    tiers: Sequence[tuple[RuleSet, PairBlock]]
) -> RulesetTestResult:
    """RULESET-TEST over rule sets keyed finest first.

    Every ``(ruleset, block)`` tier holds the same query–reply pairs under
    its own antecedent key (say ``(source, category)``, then ``source``).
    Each pair is scored by the first tier whose rule set covers its
    antecedent, so a finer key refines the coarser rules where it has
    support and falls back to them where it has none; with one tier this
    is the paper's RULESET-TEST.
    """
    (ruleset, block), *coarser = tiers
    if not coarser:
        return ruleset_test(ruleset, block)
    # Tiers key the same pairs differently, so they are combined per pair.
    covered, hit = _per_pair(ruleset, block)
    for ruleset, block in coarser:
        if len(block) != len(hit):
            raise ValueError("every tier must hold the same pairs")
        also_covered, also_hit = _per_pair(ruleset, block)
        hit = hit | (also_hit & ~covered)
        covered = covered | also_covered
    return RulesetTestResult(
        n_total=len(block), n_covered=int(covered.sum()), n_successful=int(hit.sum())
    )


def ruleset_test_random_subset(
    ruleset: RuleSet, block: PairBlock, *, k: int, rng=None
) -> RulesetTestResult:
    """RULESET-TEST under random-subset forwarding (§III-B.1 variant).

    The paper's other option when several rules share an antecedent:
    "future queries can either be sent to a random subset of neighbors as
    with k-random walks, or sent to the k neighbors with the highest
    support."  Here a covered query succeeds only if the *actual* replier
    is among ``k`` consequents drawn uniformly (without replacement) from
    the antecedent's rules — the stochastic counterpart to top-k, used by
    the ``topk-ablation`` comparison.

    Vectorized: for a covered query whose replier *is* one of its source's
    ``m`` consequents, the replier lands in a uniform ``k``-subset with
    probability ``k/m``, independently per query — so one Bernoulli draw
    per matched query replaces the per-query ``rng.choice`` of the
    reference loop (``tests/core/reference_rules.py``).  The two are
    distributionally identical (exactly equal whenever ``k`` covers every
    antecedent's consequent list) but consume the RNG stream differently.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = as_generator(rng)
    covered, hit, rule = match_block(ruleset, block)
    _, counts = block.key_histogram()
    # Consequent-list length m of each matched key's source (0: unmatched).
    sizes = np.diff(ruleset.starts)
    m = np.zeros(len(hit), dtype=sizes.dtype)
    m[hit] = np.repeat(sizes, sizes)[rule[hit]]
    # Matched & m <= k: always chosen.  Matched & m > k: in the subset
    # with probability k/m, one draw per such pair in block order.
    # Unmatched: never.
    stochastic = m > k
    n_successful = int(counts[hit & ~stochastic].sum())
    if stochastic.any():
        drawn = m[block.key_inverse()]
        drawn = drawn[drawn > k]
        n_successful += int((rng.random(len(drawn)) * drawn < k).sum())
    return RulesetTestResult(
        n_total=len(block),
        n_covered=int(counts[covered].sum()),
        n_successful=n_successful,
    )
