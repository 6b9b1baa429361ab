"""Tests for repro.core.io (rule-set persistence)."""

import pytest

from repro.core.generation import generate_ruleset
from repro.core.io import read_ruleset, write_ruleset
from repro.core.rules import Rule, RuleSet


def make_ruleset():
    return RuleSet([Rule(1, 10, 5), Rule(1, 11, 3), Rule(2, 12, 7)])


class TestFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rules.tsv"
        rs = make_ruleset()
        assert write_ruleset(path, rs) == 3
        back = read_ruleset(path)
        assert sorted((r.antecedent, r.consequent, r.count) for r in back) == sorted(
            (r.antecedent, r.consequent, r.count) for r in rs
        )

    def test_empty_ruleset(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_ruleset(path, RuleSet())
        assert len(read_ruleset(path)) == 0

    def test_bad_header_detected(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(ValueError):
            read_ruleset(path)

    def test_roundtrip_preserves_behaviour(self, tmp_path, small_block):
        rs = generate_ruleset(small_block, min_support_count=2)
        path = tmp_path / "mined.tsv"
        write_ruleset(path, rs)
        back = read_ruleset(path)
        from repro.core.evaluation import ruleset_test

        a = ruleset_test(rs, small_block)
        b = ruleset_test(back, small_block)
        assert (a.n_covered, a.n_successful) == (b.n_covered, b.n_successful)

