"""Tests for repro.core.evaluation (RULESET-TEST).

``TestDistinctKeys`` holds the three tests, which read a block's key
histogram, to the pair-by-pair loops of ``tests/core/reference_rules.py``,
and ``TestRuleSide`` holds ``ruleset_test`` and ``match_block``'s per-key
arrays, which search that histogram once per antecedent and per rule, to
the same loops on ids 0 and 2**31 - 1, absent antecedents, blocks wholly
below or above the rules, one-key and empty blocks and empty rule sets.
Each of these mutants of ``repro.core.evaluation`` fails the named tests:

* ending an antecedent's key range at ``(a + 1) << 32`` (``side="left"``)
  instead of at ``a << 32 | 0xFFFFFFFF``, the last key
  ``repro.trace.blocks.source_key_range`` gives, which overflows int64 for
  ``a = 2**31 - 1``: ``test_degenerate[ids-0-and-max]``,
  ``TestRuleSide::test_sweep`` and ``TestRuleSide::test_extremes``;
* summing keys instead of ``counts`` (``(hi - lo).sum()`` for
  ``(below[hi] - below[lo]).sum()`` in ``ruleset_test``):
  ``test_degenerate[one-key-repeated]`` and ``TestRuleSide::test_sweep``;
* dropping the inverse scatter in the fallback tier (``_per_pair``
  returning the per-key masks): ``test_degenerate[one-key-repeated]``,
  ``test_sweep`` and
  ``tests/core/test_category_rules_properties.py::test_vectorized_equals_brute_force``;
* random-subset draws in key order instead of pair order
  (``np.repeat(m, counts)`` for ``m[block.key_inverse()]``):
  ``test_degenerate[draws-in-pair-order]`` and the ``topk-ablation``
  executor goldens.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import (
    RulesetTestResult,
    match_block,
    ruleset_test,
    ruleset_test_fallback,
    ruleset_test_random_subset,
)
from repro.core.generation import generate_ruleset
from repro.core.rules import Rule, RuleSet
from repro.core.strategies import AdaptiveSlidingWindow, LazySlidingWindow, SlidingWindow
from repro.trace.blocks import PairBlock
from tests.conftest import make_block
from tests.core.reference_rules import (
    per_pair_random_subset,
    reference_match_block,
    reference_ruleset_test,
    reference_ruleset_test_fallback,
    reference_ruleset_test_random_subset,
)

MAX_ID = 2**31 - 1


class TestRulesetTestResult:
    def test_coverage_and_success(self):
        r = RulesetTestResult(n_total=10, n_covered=5, n_successful=4)
        assert r.coverage == 0.5
        assert r.success == 0.8

    def test_empty_block(self):
        r = RulesetTestResult(n_total=0, n_covered=0, n_successful=0)
        assert r.coverage == 0.0
        assert r.success == 0.0

    def test_zero_covered(self):
        r = RulesetTestResult(n_total=10, n_covered=0, n_successful=0)
        assert r.success == 0.0

    @pytest.mark.parametrize(
        "counts",
        [(10, 11, 0), (10, 5, 6), (5, 3, -1)],
    )
    def test_inconsistent_counts_rejected(self, counts):
        n, c, s = counts
        with pytest.raises(ValueError):
            RulesetTestResult(n_total=n, n_covered=c, n_successful=s)


class TestRulesetTest:
    def test_perfect_match(self):
        block = make_block([(1, 10), (1, 10), (2, 20)])
        rs = RuleSet([Rule(1, 10, 2), Rule(2, 20, 1)])
        r = ruleset_test(rs, block)
        assert r.coverage == 1.0
        assert r.success == 1.0

    def test_covered_but_wrong_consequent(self):
        block = make_block([(1, 99), (1, 99)])
        rs = RuleSet([Rule(1, 10, 5)])
        r = ruleset_test(rs, block)
        assert r.coverage == 1.0
        assert r.success == 0.0

    def test_uncovered_sources(self):
        block = make_block([(7, 10), (8, 10)])
        rs = RuleSet([Rule(1, 10, 5)])
        r = ruleset_test(rs, block)
        assert r.coverage == 0.0
        assert r.success == 0.0

    def test_mixed(self):
        block = make_block([(1, 10), (1, 11), (2, 20), (3, 30)])
        rs = RuleSet([Rule(1, 10, 5), Rule(2, 21, 3)])
        r = ruleset_test(rs, block)
        assert r.n_total == 4
        assert r.n_covered == 3  # sources 1, 1, 2
        assert r.n_successful == 1  # only (1, 10)

    def test_empty_ruleset(self):
        block = make_block([(1, 10)])
        r = ruleset_test(RuleSet(), block)
        assert r.coverage == 0.0

    def test_empty_block(self):
        rs = RuleSet([Rule(1, 10, 1)])
        r = ruleset_test(rs, make_block([]))
        assert r.n_total == 0

    def test_train_on_self_is_perfect_without_pruning(self, small_block):
        rs = generate_ruleset(small_block, min_support_count=1)
        r = ruleset_test(rs, small_block)
        assert r.coverage == 1.0
        assert r.success == 1.0


pairs_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=120
)


@settings(max_examples=60, deadline=None)
@given(pairs_strategy, pairs_strategy, st.integers(1, 4))
def test_vectorized_equals_reference(train_pairs, test_pairs, min_support):
    """Property: numpy RULESET-TEST agrees with the pure-Python one."""
    rs = generate_ruleset(make_block(train_pairs), min_support_count=min_support)
    block = make_block(test_pairs)
    fast = ruleset_test(rs, block)
    slow = reference_ruleset_test(rs, block)
    assert (fast.n_total, fast.n_covered, fast.n_successful) == (
        slow.n_total,
        slow.n_covered,
        slow.n_successful,
    )


@settings(max_examples=40, deadline=None)
@given(pairs_strategy, pairs_strategy)
def test_counts_identities(train_pairs, test_pairs):
    """Property: s <= n <= N and the alpha/rho identities hold."""
    rs = generate_ruleset(make_block(train_pairs), min_support_count=1)
    r = ruleset_test(rs, make_block(test_pairs))
    assert 0 <= r.n_successful <= r.n_covered <= r.n_total
    if r.n_total:
        assert r.coverage * r.n_total == pytest.approx(r.n_covered)
    if r.n_covered:
        assert r.success * r.n_covered == pytest.approx(r.n_successful)


def coarse(block: PairBlock) -> PairBlock:
    """The same pairs under a coarser antecedent (two sources per key),
    as a fallback tier holds them."""
    return PairBlock(sources=block.sources // 2, repliers=block.repliers)


def assert_all_three_agree(rules: RuleSet, block: PairBlock, k: int = 1) -> None:
    """ruleset_test, a two-tier ruleset_test_fallback and
    ruleset_test_random_subset against their per-pair oracles."""
    assert ruleset_test(rules, block) == reference_ruleset_test(rules, block)
    coarser = coarse(block)
    tiers = [(rules, block), (generate_ruleset(coarser, min_support_count=2), coarser)]
    assert ruleset_test_fallback(tiers) == reference_ruleset_test_fallback(tiers)
    fast = ruleset_test_random_subset(rules, block, k=k, rng=7)
    assert fast == per_pair_random_subset(rules, block, k=k, rng=7)
    slow = reference_ruleset_test_random_subset(rules, block, k=k, rng=7)
    assert (fast.n_total, fast.n_covered) == (slow.n_total, slow.n_covered)


DEGENERATE = {
    "empty-ruleset": (RuleSet(), [(1, 10), (2, 20), (1, 10)]),
    "empty-block": (RuleSet([Rule(1, 10, 1), Rule(1, 11, 1)]), []),
    "one-key-repeated": (
        RuleSet([Rule(1, 10, 3), Rule(1, 11, 2), Rule(1, 12, 1)]),
        [(1, 10)] * 50,
    ),
    "every-pair-a-rule": (
        RuleSet([Rule(1, 10, 2), Rule(1, 11, 1), Rule(2, 10, 1), Rule(3, 3, 1)]),
        [(1, 10), (1, 11), (2, 10), (1, 10), (3, 3)],
    ),
    "ids-0-and-max": (
        RuleSet([Rule(0, MAX_ID, 2), Rule(MAX_ID, MAX_ID, 1), Rule(0, 1, 1)]),
        [(0, MAX_ID), (MAX_ID, 0), (0, 0), (MAX_ID, MAX_ID), (0, MAX_ID),
         (7, 0), (0, 7), (0, 8), (0, 1)],
    ),
    # Random-subset draws go to pairs in block order, not key order.
    "draws-in-pair-order": (
        RuleSet(
            [Rule(1, c, 1) for c in range(10, 12)]
            + [Rule(2, c, 1) for c in range(10, 15)]
        ),
        [(2, 10), (1, 10), (2, 11), (1, 11), (2, 14)] * 12,
    ),
}

ids = st.sampled_from([0, 1, 2, 3, 4, 5, MAX_ID])


class TestDistinctKeys:
    """The histogram-based tests equal the per-pair loops."""

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_degenerate(self, case):
        rules, pairs = DEGENERATE[case]
        assert_all_three_agree(rules, make_block(pairs), k=1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(ids, ids), unique=True, max_size=12),
        st.lists(st.tuples(ids, ids), max_size=80),
        st.integers(1, 3),
    )
    def test_sweep(self, rule_pairs, pairs, k):
        rules = RuleSet(Rule(a, c, 1 + i) for i, (a, c) in enumerate(rule_pairs))
        assert_all_three_agree(rules, make_block(pairs), k=k)

    @pytest.mark.parametrize(
        "strategy", [SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow]
    )
    def test_a_block_tested_then_mined_sorts_once(self, monkeypatch, strategy):
        """Mining and testing read one histogram: every block is counted
        once, whether it is only mined, only tested, or tested and then
        mined — and asking for its inverse does not count it again."""
        import repro.trace.blocks as blocks_module

        calls = []
        real = blocks_module.count_keys

        def counting(keys):
            calls.append(len(keys))
            return real(keys)

        monkeypatch.setattr(blocks_module, "count_keys", counting)
        rng = np.random.default_rng(3)
        blocks = [
            PairBlock(rng.integers(0, 4, 60 + i), rng.integers(0, 4, 60 + i), i)
            for i in range(6)
        ]
        strategy(min_support_count=2).run(blocks)
        assert calls == [len(b) for b in blocks]
        ruleset = generate_ruleset(blocks[0], min_support_count=2)
        ruleset_test_random_subset(ruleset, blocks[1], k=1, rng=0)
        ruleset_test_fallback([(ruleset, blocks[2]), (ruleset, blocks[2])])
        assert calls == [len(b) for b in blocks]


LOW = [0, 1, 2, 3]
HIGH = [MAX_ID - 2, MAX_ID - 1, MAX_ID]

#: (rule ids, block ids) per layout: "below" puts every block key under
#: every rule, "above" over them, and "interleaved" gives the rules
#: antecedents no block pair has as a source, between the block's ones.
LAYOUTS = {
    "mixed": (LOW + HIGH, LOW + HIGH),
    "below": (HIGH, LOW),
    "above": (LOW, HIGH),
    "interleaved": ([0, 2, MAX_ID - 1], [1, 3, MAX_ID]),
}


@st.composite
def rules_and_block(draw):
    rule_ids, block_ids = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    rule_pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(rule_ids), st.sampled_from(LOW + HIGH)),
            unique=True,
            max_size=10,
        )
    )
    pair = st.tuples(st.sampled_from(block_ids), st.sampled_from(LOW + HIGH))
    if draw(st.booleans()):
        pairs = [draw(pair)] * draw(st.integers(1, 30))  # one distinct key
    else:
        pairs = draw(st.lists(pair, max_size=60))
    rules = RuleSet(Rule(a, c, 1 + i) for i, (a, c) in enumerate(rule_pairs))
    return rules, make_block(pairs)


def assert_rule_side_agrees(rules: RuleSet, block: PairBlock) -> None:
    """ruleset_test and match_block's per-key arrays against the loops;
    ``rule`` is only defined where ``hit`` is."""
    assert ruleset_test(rules, block) == reference_ruleset_test(rules, block)
    covered, hit, rule = match_block(rules, block)
    want_covered, want_hit, want_rule = reference_match_block(rules, block)
    assert covered.tolist() == want_covered
    assert hit.tolist() == want_hit
    assert rule[hit].tolist() == [r for r in want_rule if r is not None]


class TestRuleSide:
    """RULESET-TEST answered per antecedent and per rule equals the
    per-pair loops."""

    @settings(max_examples=300, deadline=None)
    @given(rules_and_block())
    def test_sweep(self, case):
        assert_rule_side_agrees(*case)

    @pytest.mark.parametrize(
        "rules, pairs",
        [
            (RuleSet(), []),
            (RuleSet(), [(MAX_ID, MAX_ID)]),
            (RuleSet([Rule(MAX_ID, 0, 1)]), []),
            (RuleSet([Rule(MAX_ID, 0, 1)]), [(MAX_ID, MAX_ID)] * 3),
            (RuleSet([Rule(MAX_ID, MAX_ID, 1)]), [(MAX_ID, MAX_ID), (0, 0)]),
            (RuleSet([Rule(0, 0, 1)]), [(0, MAX_ID), (0, 0), (MAX_ID, 0)]),
        ],
        ids=["both-empty", "no-rules", "no-pairs", "max-covered-missed",
             "max-hit", "zero-hit"],
    )
    def test_extremes(self, rules, pairs):
        assert_rule_side_agrees(rules, make_block(pairs))
