"""Tests for ruleset_test_random_subset (§III-B.1 random forwarding)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import (
    ruleset_test,
    ruleset_test_random_subset,
)
from repro.core.rules import Rule, RuleSet
from tests.conftest import make_block
from tests.core.reference_rules import reference_ruleset_test_random_subset


def multi_consequent_ruleset():
    return RuleSet(
        [
            Rule(1, 10, 9),
            Rule(1, 11, 5),
            Rule(1, 12, 1),
        ]
    )


class TestRandomSubset:
    def test_k_at_least_all_equals_full_match(self):
        rs = multi_consequent_ruleset()
        block = make_block([(1, 10), (1, 11), (1, 12), (1, 99)])
        full = ruleset_test(rs, block)
        rand = ruleset_test_random_subset(rs, block, k=3, rng=0)
        assert (rand.n_covered, rand.n_successful) == (
            full.n_covered,
            full.n_successful,
        )

    def test_k1_success_rate_is_one_third_on_average(self):
        rs = multi_consequent_ruleset()
        block = make_block([(1, 10)] * 300)
        result = ruleset_test_random_subset(rs, block, k=1, rng=np.random.default_rng(5))
        # One of three consequents drawn uniformly: success ~ 1/3.
        assert 0.25 < result.success < 0.42

    def test_uncovered_source(self):
        rs = multi_consequent_ruleset()
        block = make_block([(7, 10)])
        result = ruleset_test_random_subset(rs, block, k=1, rng=1)
        assert result.n_covered == 0

    def test_deterministic_given_seed(self):
        rs = multi_consequent_ruleset()
        block = make_block([(1, 10), (1, 11)] * 20)
        a = ruleset_test_random_subset(rs, block, k=1, rng=42)
        b = ruleset_test_random_subset(rs, block, k=1, rng=42)
        assert a.n_successful == b.n_successful

    def test_validation(self):
        rs = multi_consequent_ruleset()
        with pytest.raises(ValueError):
            ruleset_test_random_subset(rs, make_block([]), k=0)

    def test_matches_reference_exactly_when_k_covers_all(self):
        """With k >= every consequent list, neither path draws randomly."""
        rs = multi_consequent_ruleset()
        block = make_block([(1, 10), (1, 11), (1, 12), (1, 99), (7, 1)] * 8)
        fast = ruleset_test_random_subset(rs, block, k=3, rng=0)
        slow = reference_ruleset_test_random_subset(rs, block, k=3, rng=0)
        assert fast == slow

    def test_random_below_topk_on_skewed_traffic(self):
        """With traffic matching the support ordering, top-k wins."""
        rs = multi_consequent_ruleset()
        # 9:5:1 traffic mirrors the rule support counts.
        pairs = [(1, 10)] * 9 + [(1, 11)] * 5 + [(1, 12)] * 1
        block = make_block(pairs * 30)
        from repro.core.generation import generate_ruleset

        topk_rs = generate_ruleset(block, min_support_count=1, top_k=1)
        topk = ruleset_test(topk_rs, block)
        rand = ruleset_test_random_subset(rs, block, k=1, rng=7)
        assert topk.success > rand.success


# Hypothesis strategies for rulesets and blocks over a small id universe,
# so covered/matched/uncovered queries all occur with high probability.
rules_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(10, 15)),
    min_size=1,
    max_size=12,
    unique=True,
).map(lambda pairs: RuleSet(Rule(a, c, 1 + i) for i, (a, c) in enumerate(pairs)))

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(8, 17)), min_size=0, max_size=60
)


class TestVectorizedVsReference:
    """The vectorized path against the kept pure-Python reference loop.

    The two consume the RNG stream differently, so stochastic outcomes
    are compared distributionally; everything deterministic — coverage,
    and success whenever no random draw happens — must agree exactly.
    """

    @settings(deadline=None, max_examples=60)
    @given(rules=rules_strategy, pairs=pairs_strategy, k=st.integers(1, 4))
    def test_coverage_identical(self, rules, pairs, k):
        block = make_block(pairs)
        fast = ruleset_test_random_subset(rules, block, k=k, rng=0)
        slow = reference_ruleset_test_random_subset(rules, block, k=k, rng=0)
        assert fast.n_total == slow.n_total
        assert fast.n_covered == slow.n_covered

    @settings(deadline=None, max_examples=30)
    @given(rules=rules_strategy, pairs=pairs_strategy)
    def test_exact_equality_when_no_draw_needed(self, rules, pairs):
        """k larger than any consequent list: both paths deterministic."""
        k = max(
            (len(rules.consequents(a)) for a in rules.antecedents()),
            default=1,
        )
        block = make_block(pairs)
        fast = ruleset_test_random_subset(rules, block, k=k, rng=0)
        slow = reference_ruleset_test_random_subset(rules, block, k=k, rng=0)
        assert fast == slow
        # ... and both then agree with unrestricted RULESET-TEST.
        full = ruleset_test(rules, block)
        assert fast.n_successful == full.n_successful

    def test_success_distribution_matches_reference(self):
        """Mean successes over repeated trials agree between the paths.

        P(success) per matched query is k/m in both implementations; with
        300 queries x 40 trials the means must land well within 3 sigma
        of each other.
        """
        rs = multi_consequent_ruleset()
        block = make_block([(1, 10), (1, 11), (1, 12)] * 100)
        rng_fast = np.random.default_rng(123)
        rng_slow = np.random.default_rng(456)
        fast_mean = np.mean(
            [
                ruleset_test_random_subset(rs, block, k=2, rng=rng_fast).n_successful
                for _ in range(40)
            ]
        )
        slow_mean = np.mean(
            [
                reference_ruleset_test_random_subset(
                    rs, block, k=2, rng=rng_slow
                ).n_successful
                for _ in range(40)
            ]
        )
        # 300 Bernoulli(2/3) per trial: std ~ 8.2 per trial, ~1.3 on the
        # mean of 40 -> means within ~5 of each other at 3 sigma.
        assert abs(fast_mean - slow_mean) < 6.0
