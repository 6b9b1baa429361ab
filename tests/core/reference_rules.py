"""The per-pair Python loops GENERATE-RULESET and RULESET-TEST are defined
by, kept as oracles.

``repro.core.generation.generate_ruleset`` counts a block's key
histogram, and ``repro.core.evaluation.ruleset_test`` answers from the
rule side, searching the histogram's sorted keys once per antecedent and
once per rule (``match_block`` spreads that answer over the keys for
``ruleset_test_fallback`` and ``ruleset_test_random_subset``); these are
the dict-and-loop forms of the paper's pseudo-code that used to live next
to them under ``src/`` (``implementation="python"``,
``ruleset_test_reference``, ``ruleset_test_random_subset_reference``).
The loop bodies are unchanged; the property tests run both and compare.
``reference_ruleset_test_fallback`` is the same loop over tiers,
``reference_match_block`` asks the rule set about each distinct pair in
turn, and ``per_pair_random_subset`` is the per-pair array form whose
random draws the ``topk-ablation`` goldens record.
"""

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.evaluation import RulesetTestResult
from repro.core.rules import Rule, RuleSet
from repro.trace.blocks import PairBlock
from repro.utils.rng import as_generator


def reference_generate_ruleset(
    block: PairBlock,
    *,
    min_support_count: int = 10,
    top_k: int | None = None,
    min_confidence: float = 0.0,
) -> RuleSet:
    """Dict-based GENERATE-RULESET."""
    pair_counts: Counter[tuple[int, int]] = Counter(
        zip(block.sources.tolist(), block.repliers.tolist())
    )
    source_totals: Counter[int] = Counter(block.sources.tolist())
    rules = []
    for (source, replier), count in pair_counts.items():
        if count < min_support_count:
            continue
        if min_confidence > 0.0 and count / source_totals[source] < min_confidence:
            continue
        rules.append(Rule(source, replier, count))
    if top_k is not None:
        by_ante: dict[int, list[Rule]] = {}
        for rule in rules:
            by_ante.setdefault(rule.antecedent, []).append(rule)
        rules = []
        for lst in by_ante.values():
            lst.sort(key=lambda r: (-r.count, r.consequent))
            rules.extend(lst[:top_k])
    return RuleSet(rules)


def reference_ruleset_test(ruleset: RuleSet, block: PairBlock) -> RulesetTestResult:
    """Pair-by-pair RULESET-TEST."""
    n_total = len(block)
    n_covered = 0
    n_successful = 0
    for source, replier in zip(block.sources.tolist(), block.repliers.tolist()):
        if ruleset.covers(source):
            n_covered += 1
            if ruleset.matches(source, replier):
                n_successful += 1
    return RulesetTestResult(
        n_total=n_total, n_covered=n_covered, n_successful=n_successful
    )


def reference_match_block(
    ruleset: RuleSet, block: PairBlock
) -> tuple[list[bool], list[bool], list[int | None]]:
    """``match_block`` asked pair by pair: for each distinct
    (source, replier) of the block in sorted order, whether a rule's
    antecedent is the source, whether the pair is a rule, and that rule's
    position in ``ruleset.keys`` (``None`` where it is not one)."""
    rule_keys = ruleset.keys.tolist()
    covered, hit, rule = [], [], []
    pairs = set(zip(block.sources.tolist(), block.repliers.tolist()))
    for source, replier in sorted(pairs):
        covered.append(ruleset.covers(source))
        hit.append(ruleset.matches(source, replier))
        rule.append(rule_keys.index(source << 32 | replier) if hit[-1] else None)
    return covered, hit, rule


def reference_ruleset_test_fallback(
    tiers: Sequence[tuple[RuleSet, PairBlock]]
) -> RulesetTestResult:
    """Pair-by-pair RULESET-TEST over tiers: the first tier whose rule set
    covers a pair's antecedent scores it."""
    n_total = len(tiers[0][1])
    n_covered = 0
    n_successful = 0
    for i in range(n_total):
        for ruleset, block in tiers:
            source, replier = int(block.sources[i]), int(block.repliers[i])
            if ruleset.covers(source):
                n_covered += 1
                if ruleset.matches(source, replier):
                    n_successful += 1
                break
    return RulesetTestResult(
        n_total=n_total, n_covered=n_covered, n_successful=n_successful
    )


def per_pair_random_subset(
    ruleset: RuleSet, block: PairBlock, *, k: int, rng=None
) -> RulesetTestResult:
    """Random-subset RULESET-TEST asked pair by pair with arrays: one
    Bernoulli(k/m) draw per matched pair whose source has ``m > k``
    consequents, in block order — the draws the vectorized form must
    reproduce exactly for one seed."""
    rng = as_generator(rng)
    sources, repliers = block.sources.tolist(), block.repliers.tolist()
    covered = [ruleset.covers(s) for s in sources]
    m = [
        len(ruleset.consequents(s)) if ruleset.matches(s, r) else 0
        for s, r in zip(sources, repliers)
    ]
    stochastic = np.array([x for x in m if x > k], dtype=np.int64)
    n_successful = sum(1 for x in m if 0 < x <= k)
    if len(stochastic):
        n_successful += int((rng.random(len(stochastic)) * stochastic < k).sum())
    return RulesetTestResult(
        n_total=len(block), n_covered=sum(covered), n_successful=n_successful
    )


def reference_ruleset_test_random_subset(
    ruleset: RuleSet, block: PairBlock, *, k: int, rng=None
) -> RulesetTestResult:
    """Random-subset RULESET-TEST drawing an explicit uniform ``k``-subset
    per covered query (one ``rng.choice`` each, where the array code draws
    one Bernoulli per matched query)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = as_generator(rng)
    n_total = len(block)
    n_covered = 0
    n_successful = 0
    for source, replier in zip(block.sources.tolist(), block.repliers.tolist()):
        consequents = ruleset.consequents(source)
        if not consequents:
            continue
        n_covered += 1
        if len(consequents) <= k:
            chosen = consequents
        else:
            idx = rng.choice(len(consequents), size=k, replace=False)
            chosen = [consequents[i] for i in idx]
        if replier in chosen:
            n_successful += 1
    return RulesetTestResult(
        n_total=n_total, n_covered=n_covered, n_successful=n_successful
    )
