"""Category-dimension rules (the paper's §VI query-string extension).

§VI proposes "adding dimensions such as the query strings during rule
generation and then clustering based on this information" to raise rule
quality.  This module implements that extension for the trace-driven
engine: antecedents become **(source neighbor, interest category)** pairs
instead of bare neighbors, where the category is recovered from the query
string (our generated query strings encode it; real deployments would
cluster query terms — we ship a keyword clusterer in
:func:`categorize_queries` for free-form strings).  The pair is one packed
antecedent (:meth:`CategorizedBlock.keyed`) over the same
:class:`~repro.core.rules.RuleSet`, mined by the same
:func:`~repro.core.generation.generate_ruleset`; there is no second table.

The win: a neighbor whose queries span several interests is served by a
*different* reply path per interest; host-only rules merge those paths
(the top-k consequents may be wrong for the minority interests), while
(host, category) rules keep them apart.  The ``category-rules``
experiment quantifies the success gain over host-only rules.

Coverage semantics are hierarchical, mirroring how a deployment would
behave: a query is covered if its (source, category) antecedent has
rules, *falling back* to the source's host-only rules otherwise
(:func:`~repro.core.evaluation.ruleset_test_fallback`) — the
extension strictly refines the baseline rather than fragmenting it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.blocks import PairBlock

__all__ = ["CategorizedBlock", "categorize_queries"]


@dataclass(frozen=True)
class CategorizedBlock:
    """A :class:`PairBlock` plus the per-pair query category."""

    block: PairBlock
    categories: np.ndarray

    def __post_init__(self) -> None:
        if len(self.categories) != len(self.block):
            raise ValueError("categories must align with the block's pairs")

    def __len__(self) -> int:
        return len(self.block)

    @classmethod
    def from_arrays(cls, sources, repliers, categories, *, index: int = 0):
        block = PairBlock(
            sources=np.asarray(sources, dtype=np.int64),
            repliers=np.asarray(repliers, dtype=np.int64),
            index=index,
        )
        return cls(block=block, categories=np.asarray(categories, dtype=np.int64))

    def keyed(self, n_categories: int) -> PairBlock:
        """The same pairs with ``source * n_categories + category`` as the
        antecedent: the one place a (source, category) key is packed.  A
        category outside ``[0, n_categories)`` would alias another source's
        key, so it raises; the packed id's own range is checked when the
        block's keys are, like any other antecedent's."""
        categories = self.categories
        if len(categories) and not (
            0 <= categories.min() and categories.max() < n_categories
        ):
            raise ValueError(f"categories must be in [0, {n_categories})")
        return PairBlock(
            sources=self.block.sources * np.int64(n_categories) + categories,
            repliers=self.block.repliers,
            index=self.block.index,
        )


def categorize_queries(
    query_strings: Sequence[str], *, n_clusters: int
) -> np.ndarray:
    """Cluster free-form query strings into ``n_clusters`` categories.

    A deliberately simple keyword clusterer for real traces whose strings
    do not encode a category: each query is labelled by its *topic token*
    — the token that recurs most across the collection (shared interest
    vocabulary), ties broken lexicographically — hashed into
    ``n_clusters`` buckets.  Collection-unique tokens (file names, typos)
    are ignored unless a query has nothing else.  Generated traces should
    instead use the exact category from
    :meth:`repro.workload.querygen.QueryTextModel.parse`.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    token_freq: Counter[str] = Counter()
    tokenized = []
    for text in query_strings:
        tokens = [t for t in text.lower().split() if t]
        tokenized.append(tokens)
        token_freq.update(set(tokens))
    labels = np.empty(len(tokenized), dtype=np.int64)
    for i, tokens in enumerate(tokenized):
        if not tokens:
            labels[i] = 0
            continue
        shared = [t for t in tokens if token_freq[t] > 1]
        pool = shared or tokens
        topic = max(pool, key=lambda t: (token_freq[t], t))
        # Stable cross-run hashing (builtin hash is salted per process).
        digest = 0
        for ch in topic:
            digest = (digest * 131 + ord(ch)) % (1 << 31)
        labels[i] = digest % n_clusters
    return labels
