"""RULESET-TEST: the paper's coverage and success measures.

Given a rule set and a test block of query–reply pairs (Eq. 1 and Eq. 2 of
the paper):

* ``N`` — queries in the test block that received a reply (every pair);
* ``n`` — those whose *source* matches some rule antecedent;
* ``s`` — those whose (source, replier) matches a rule exactly;
* coverage ``alpha = n / N``; success ``rho = s / n``.

A block is tested through its key histogram (the distinct packed
``(source, replier)`` keys and their counts, which GENERATE-RULESET reads
too): membership is asked once per distinct key by sorted-array search,
stated once in :func:`match_block`, and ``n`` and ``s`` are the counts
summed over its masks.  Tests that need an answer per pair scatter the
masks through the block's inverse.  The pair-by-pair loops these are
property-tested against are ``tests/core/reference_rules.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.rules import RuleSet
from repro.trace.blocks import PairBlock
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


def match_block(
    ruleset: RuleSet, block: PairBlock
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RULESET-TEST's membership question, asked once per distinct pair.

    Returns ``(covered, hit, rule)`` with one entry per key of
    ``block.key_histogram()``: whether the key's source is a rule
    antecedent, whether the key is a rule, and — where it is — that
    rule's index into ``ruleset.keys``.  Indexing them by
    ``block.key_inverse()`` gives the answer for each pair.
    """
    keys, _ = block.key_histogram()
    if len(ruleset) == 0:
        nothing = np.zeros(len(keys), dtype=bool)
        return nothing, nothing, np.zeros(len(keys), dtype=np.intp)
    covered = np.isin(keys >> 32, ruleset.antes)
    # Both sides are sorted, so each binary search starts where the
    # previous one ended.
    rule = np.searchsorted(ruleset.keys, keys)
    rule[rule == len(ruleset)] = 0
    return covered, ruleset.keys[rule] == keys, rule


def ruleset_test(ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
    """Vectorized RULESET-TEST."""
    return ruleset_test_fallback([(ruleset, block)])


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
        covered, hit, _ = match_block(ruleset, block)
        _, counts = block.key_histogram()
        return RulesetTestResult(
            n_total=len(block),
            n_covered=int(counts[covered].sum()),
            n_successful=int(counts[hit].sum()),
        )
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
