"""Tests for repro.routing.superpeer_rules."""

import pytest

from repro.network.hier.digest import DigestEntry
from repro.routing.superpeer_rules import SuperPeerRules


def _table(**kwargs):
    return SuperPeerRules(0, **kwargs)


class TestValidation:
    def test_top_k(self):
        """The digest's cut is ``publish``'s argument, checked even when
        the table is empty; the table itself keeps whole rankings."""
        with pytest.raises(ValueError):
            _table().publish(0)

    def test_min_support(self):
        with pytest.raises(ValueError):
            _table(min_support_count=0)


class TestLearning:
    def test_consequents_ranked_by_support(self):
        table = _table(min_support_count=2)
        for _ in range(5):
            table.observe(3, 7)
        for _ in range(3):
            table.observe(3, 9)
        table.observe(3, 11)  # below the support floor
        assert table.counts.consequents(3) == [7, 9]
        assert table.counts.consequents(99) == []
        assert table.counts.n_seen == 9

    def test_equal_support_ties_go_to_the_smaller_id(self):
        """Numerically, as ``publish`` and ``MergedRuleTable`` order them —
        not by ``str(id)``, which puts 10 and 100 ahead of 9."""
        table = _table(min_support_count=2)
        for replier in (100, 9, 10, 8):
            table.observe(3, replier)
            table.observe(3, replier)
        assert table.counts.consequents(3) == [8, 9, 10, 100]
        assert [e.consequent for e in table.publish(top_k=1).entries] == [8]

    def test_rule_stats(self):
        table = _table()
        for _ in range(4):
            table.observe(1, 5)
        table.observe(1, 6)
        table.observe(2, 5)  # another category: not in category 1's total
        support, confidence = table.counts.rule_stats(1, 5)
        assert support == 4
        assert confidence == pytest.approx(4 / 5)
        assert table.counts.rule_stats(1, 7) == (0, 0.0)

    def test_reset(self):
        table = _table()
        table.observe(1, 5)
        table.reset()
        assert table.counts.n_seen == 0
        assert table.counts.consequents(1) == []


class TestPublish:
    def test_epoch_bumps_per_publish(self):
        table = _table()
        assert table.publish(3).epoch == 1
        assert table.publish(3).epoch == 2
        assert table.epoch == 2

    def test_digest_content(self):
        table = _table(min_support_count=2)
        for _ in range(5):
            table.observe(0, 7)
        for _ in range(2):
            table.observe(0, 9)
        table.observe(0, 11)  # pruned: below the floor
        digest = table.publish(top_k=2)
        assert digest.origin == 0
        assert digest.total == 8
        assert digest.entries == (DigestEntry(0, 7, 5), DigestEntry(0, 9, 2))

    def test_top_k_caps_per_category(self):
        table = _table(min_support_count=1)
        for replier in range(5):
            for _ in range(replier + 1):
                table.observe(0, replier)
        digest = table.publish(top_k=2)
        assert len(digest.entries) == 2
        assert {e.consequent for e in digest.entries} == {3, 4}
