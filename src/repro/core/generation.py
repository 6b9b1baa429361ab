"""GENERATE-RULESET: build a rule set from one block of query–reply pairs.

The procedure from §III-B.1 and §IV-B of the paper: count how often each
(query-source, reply-source) pair of neighbors co-occurs within the block,
then *support-prune* pairs seen fewer than ``min_support_count`` times
(paper default: 10).  Two extensions from §III-B.1 / §VI are options here:
keeping only the top-k consequents per antecedent, and confidence-based
pruning (confidence of ``{u} -> {v}`` = pair count / number of replied
queries from ``u`` in the block).

Each pair is packed into one int64 key, the block is counted once into its
key histogram (:meth:`~repro.trace.blocks.PairBlock.key_histogram`, which
RULESET-TEST reads too) and the three prunings are masks over it, which
the :class:`~repro.core.rules.RuleSet` then holds as they are; the
dict-based loop this is tested against is ``tests/core/reference_rules.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules import RuleSet
from repro.trace.blocks import PairBlock, key_sources

__all__ = ["check_generation_params", "generate_ruleset"]


def check_generation_params(
    min_support_count: int, top_k: int | None, min_confidence: float
) -> None:
    """Reject pruning parameters GENERATE-RULESET cannot run with."""
    if min_support_count < 1:
        raise ValueError("min_support_count must be >= 1")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1 or None")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")


def generate_ruleset(
    block: PairBlock,
    *,
    min_support_count: int = 10,
    top_k: int | None = None,
    min_confidence: float = 0.0,
) -> RuleSet:
    """Build a rule set from ``block``.

    Parameters
    ----------
    block:
        The training block of query–reply pairs.
    min_support_count:
        Support-pruning threshold: (source, replier) pairs used fewer than
        this many times in the block are removed (paper default 10).
    top_k:
        If given, keep only the ``k`` highest-support consequents per
        antecedent ("sent to the k neighbors with the highest support").
    min_confidence:
        Confidence-pruning threshold in [0, 1] (§VI extension); 0 disables.
    """
    check_generation_params(min_support_count, top_k, min_confidence)
    keys, counts = block.key_histogram()
    keep = counts >= min_support_count
    if min_confidence > 0.0:
        # The denominator is every replied query from the antecedent in the
        # block, support-pruned pairs included.
        _, starts, sizes = np.unique(
            key_sources(keys), return_index=True, return_counts=True
        )
        totals = np.repeat(np.add.reduceat(counts, starts), sizes)
        keep &= counts / totals >= min_confidence
    ruleset = RuleSet.from_arrays(keys[keep], counts[keep])
    if top_k is not None:
        order = ruleset.ranked()
        sizes = np.diff(ruleset.starts)
        rank = np.arange(len(order)) - np.repeat(ruleset.starts[:-1], sizes)
        keep = np.sort(order[rank < top_k])
        ruleset = RuleSet.from_arrays(ruleset.keys[keep], ruleset.counts[keep])
    return ruleset
