"""RULESET-TEST: the paper's coverage and success measures.

Given a rule set and a test block of query–reply pairs (Eq. 1 and Eq. 2 of
the paper):

* ``N`` — queries in the test block that received a reply (every pair);
* ``n`` — those whose *source* matches some rule antecedent;
* ``s`` — those whose (source, replier) matches a rule exactly;
* coverage ``alpha = n / N``; success ``rho = s / n``.

Pairs are packed into int64 keys and tested by sorted-array membership;
the pair-by-pair loops these are property-tested against are
``tests/core/reference_rules.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rules import RuleSet
from repro.trace.blocks import PairBlock

__all__ = [
    "RulesetTestResult",
    "ruleset_test",
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


def ruleset_test(ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
    """Vectorized RULESET-TEST."""
    n_total = len(block)
    if n_total == 0 or len(ruleset) == 0:
        return RulesetTestResult(n_total=n_total, n_covered=0, n_successful=0)
    covered = np.isin(block.sources, ruleset.antecedent_array)
    n_covered = int(covered.sum())
    if n_covered == 0:
        return RulesetTestResult(n_total=n_total, n_covered=0, n_successful=0)
    keys = block.packed_keys()
    # pair_key_array is sorted; searchsorted membership is O(n log r).
    rule_keys = ruleset.pair_key_array
    pos = np.searchsorted(rule_keys, keys)
    pos[pos == len(rule_keys)] = len(rule_keys) - 1
    hit = rule_keys[pos] == keys
    n_successful = int(hit.sum())
    return RulesetTestResult(
        n_total=n_total, n_covered=n_covered, n_successful=n_successful
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
    from repro.utils.rng import as_generator

    if k < 1:
        raise ValueError("k must be >= 1")
    rng = as_generator(rng)
    n_total = len(block)
    if n_total == 0 or len(ruleset) == 0:
        return RulesetTestResult(n_total=n_total, n_covered=0, n_successful=0)
    antes = ruleset.sorted_antecedent_array
    pos = np.searchsorted(antes, block.sources)
    pos[pos == len(antes)] = len(antes) - 1
    covered = antes[pos] == block.sources
    n_covered = int(covered.sum())
    if n_covered == 0:
        return RulesetTestResult(n_total=n_total, n_covered=0, n_successful=0)
    # Consequent-list length m for each covered query's source.
    m = ruleset.consequent_count_array[pos[covered]]
    # Exact-rule matches among covered queries (same membership test as
    # ruleset_test).
    keys = block.packed_keys()[covered]
    rule_keys = ruleset.pair_key_array
    kpos = np.searchsorted(rule_keys, keys)
    kpos[kpos == len(rule_keys)] = len(rule_keys) - 1
    matched = rule_keys[kpos] == keys
    # Matched & m <= k: always chosen.  Matched & m > k: in the subset
    # with probability k/m.  Unmatched: never.
    certain = matched & (m <= k)
    stochastic = matched & (m > k)
    n_successful = int(certain.sum())
    n_stochastic = int(stochastic.sum())
    if n_stochastic:
        draws = rng.random(n_stochastic)
        n_successful += int((draws * m[stochastic] < k).sum())
    return RulesetTestResult(
        n_total=n_total, n_covered=n_covered, n_successful=n_successful
    )
