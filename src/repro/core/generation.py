"""GENERATE-RULESET: build a rule set from one block of query–reply pairs.

The procedure from §III-B.1 and §IV-B of the paper: count how often each
(query-source, reply-source) pair of neighbors co-occurs within the block,
then *support-prune* pairs seen fewer than ``min_support_count`` times
(paper default: 10).  Two extensions from §III-B.1 / §VI are options here:
keeping only the top-k consequents per antecedent, and confidence-based
pruning (confidence of ``{u} -> {v}`` = pair count / number of replied
queries from ``u`` in the block).

Each pair is packed into one int64 key and the block is counted with a
single ``np.unique`` pass; the dict-based loop this is tested against is
``tests/core/reference_rules.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules import Rule, RuleSet
from repro.trace.blocks import PairBlock, scan_id_range

__all__ = ["generate_ruleset", "pack_pair_keys"]


def pack_pair_keys(
    sources: np.ndarray, repliers: np.ndarray, *, validate: bool = True
) -> np.ndarray:
    """Pack parallel (source, replier) id arrays into single int64 keys.

    Ids must be in ``[0, 2**31)`` so the packed key is collision-free.
    ``validate=False`` skips the min/max range scan — only pass it when the
    arrays were already checked (e.g. via :meth:`PairBlock.validate_ids`,
    which runs the scan once per block instead of on every call).
    """
    sources = np.asarray(sources, dtype=np.int64)
    repliers = np.asarray(repliers, dtype=np.int64)
    if validate:
        scan_id_range(sources, repliers)
    return (sources << 32) | repliers


def _counts_numpy(block: PairBlock) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(block.packed_keys(), return_counts=True)


def _source_totals_numpy(block: PairBlock) -> dict[int, int]:
    uniq, counts = np.unique(block.sources, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


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
    if min_support_count < 1:
        raise ValueError("min_support_count must be >= 1")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1 or None")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")

    keys, counts = _counts_numpy(block)
    keep = counts >= min_support_count
    keys, counts = keys[keep], counts[keep]
    if min_confidence > 0.0 and keys.size:
        totals = _source_totals_numpy(block)
        antecedents = (keys >> 32).tolist()
        conf_keep = np.fromiter(
            (
                c / totals[a] >= min_confidence
                for a, c in zip(antecedents, counts.tolist())
            ),
            dtype=bool,
            count=len(antecedents),
        )
        keys, counts = keys[conf_keep], counts[conf_keep]
    rules = [
        Rule(int(key >> 32), int(key & 0xFFFFFFFF), int(count))
        for key, count in zip(keys.tolist(), counts.tolist())
    ]

    if top_k is not None:
        by_ante: dict[int, list[Rule]] = {}
        for rule in rules:
            by_ante.setdefault(rule.antecedent, []).append(rule)
        rules = []
        for lst in by_ante.values():
            lst.sort(key=lambda r: (-r.count, r.consequent))
            rules.extend(lst[:top_k])
    return RuleSet(rules)
