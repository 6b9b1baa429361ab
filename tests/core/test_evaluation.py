"""Tests for repro.core.evaluation (RULESET-TEST)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import (
    RulesetTestResult,
    ruleset_test,
)
from repro.core.generation import generate_ruleset
from repro.core.rules import Rule, RuleSet
from tests.conftest import make_block
from tests.core.reference_rules import reference_ruleset_test


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
