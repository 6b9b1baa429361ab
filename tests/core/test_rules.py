"""Tests for repro.core.rules."""

import numpy as np
import pytest

from repro.core.rules import Rule, RuleSet


def make_ruleset():
    return RuleSet(
        [
            Rule(1, 10, 5),
            Rule(1, 11, 8),
            Rule(1, 12, 2),
            Rule(2, 10, 3),
        ]
    )


class TestRule:
    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            Rule(1, 2, 0)

    def test_str(self):
        assert str(Rule(1, 2, 3)) == "{1} -> {2} (n=3)"


class TestRuleSet:
    def test_len_counts_rules(self):
        assert len(make_ruleset()) == 4

    def test_n_antecedents(self):
        assert len(make_ruleset().antecedents()) == 2

    def test_covers(self):
        rs = make_ruleset()
        assert rs.covers(1)
        assert rs.covers(2)
        assert not rs.covers(3)

    def test_consequents_sorted_by_support(self):
        rs = make_ruleset()
        assert rs.consequents(1) == [11, 10, 12]

    def test_consequents_top_k(self):
        rs = make_ruleset()
        assert rs.consequents(1, k=2) == [11, 10]

    def test_consequents_for_unknown(self):
        assert make_ruleset().consequents(99) == []

    def test_consequents_k_validation(self):
        with pytest.raises(ValueError):
            make_ruleset().consequents(1, k=0)

    def test_matches(self):
        rs = make_ruleset()
        assert rs.matches(1, 11)
        assert rs.matches(2, 10)
        assert not rs.matches(1, 99)
        assert not rs.matches(99, 10)

    def test_iteration_yields_all_rules(self):
        rules = list(make_ruleset())
        assert len(rules) == 4
        assert all(isinstance(r, Rule) for r in rules)

    def test_ties_broken_by_consequent_id(self):
        rs = RuleSet([Rule(1, 20, 5), Rule(1, 10, 5)])
        assert rs.consequents(1) == [10, 20]

    def test_duplicate_consequent_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([Rule(1, 10, 5), Rule(1, 10, 2)])

    def test_from_counts(self):
        rs = RuleSet.from_counts({(1, 10): 4, (2, 11): 7})
        assert rs.matches(1, 10)
        assert [(r.antecedent, r.consequent, r.count) for r in rs] == [
            (1, 10, 4),
            (2, 11, 7),
        ]

    def test_empty(self):
        rs = RuleSet()
        assert len(rs) == 0
        assert not rs.covers(1)
        assert rs.keys.size == 0 and rs.n_rules() == 0
        assert rs.consequents(1) == [] and rs.antecedents() == []

    def test_pair_key_array_sorted(self):
        rs = make_ruleset()
        assert np.all(np.diff(rs.keys) > 0)
        assert rs.keys.tolist() == [
            (1 << 32) | 10, (1 << 32) | 11, (1 << 32) | 12, (2 << 32) | 10
        ]
        assert rs.counts.tolist() == [5, 8, 2, 3]  # aligned with the keys

    def test_antecedent_array_contents(self):
        rs = make_ruleset()
        assert rs.antes.tolist() == [1, 2]
        assert rs.starts.tolist() == [0, 3, 4]  # antecedent i's slice of keys

    def test_antecedents_frozenset(self):
        """Same answer as the online tables give: a list."""
        assert make_ruleset().antecedents() == [1, 2]

    def test_iteration_is_ranked_within_antecedent(self):
        assert [(r.antecedent, r.consequent) for r in make_ruleset()] == [
            (1, 11), (1, 10), (1, 12), (2, 10)
        ]

    def test_from_arrays_wraps_what_unique_returns(self):
        made = make_ruleset()
        wrapped = RuleSet.from_arrays(made.keys, made.counts)
        assert list(wrapped) == list(made)
        assert wrapped.keys is made.keys  # no copy


class TestPackedIdRange:
    """Ids are range-checked where they are packed — at construction — so
    the object view and the array view cannot disagree afterwards."""

    def test_consequent_past_32_bits_rejected(self):
        """Was accepted: ``matches(1, 5)`` said False while ``ruleset_test``
        scored the pair (1, 5) a success (the key aliased)."""
        with pytest.raises(ValueError, match="node ids"):
            RuleSet([Rule(1, 2**32 + 5, 3)])

    def test_antecedent_at_id_limit_is_value_error(self):
        """Escaped as OverflowError from the key packing."""
        with pytest.raises(ValueError, match="node ids"):
            RuleSet([Rule(2**31, 1, 1)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="node ids"):
            RuleSet([Rule(-1, 1, 1)])
