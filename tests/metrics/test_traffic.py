"""Tests for repro.metrics.traffic."""

import pytest

from repro.metrics.traffic import QueryOutcome, TrafficStats


def outcome(messages=10, hits=1, hops=2, duplicates=1, qid=1):
    return QueryOutcome(
        query_id=qid,
        messages=messages,
        hits=hits,
        first_hit_hops=hops if hits else None,
        duplicates=duplicates,
    )


class TestQueryOutcome:
    def test_succeeded(self):
        assert outcome(hits=1).succeeded
        assert not outcome(hits=0).succeeded

    def test_on_top_of_adds_cost_and_keeps_the_result(self):
        flood = QueryOutcome(7, 40, 3, 2, 9, rule_covered=True)
        charged = flood.on_top_of(5, 2)
        assert charged == QueryOutcome(7, 45, 3, 2, 11, rule_covered=True)
        assert flood.on_top_of(5) == QueryOutcome(7, 45, 3, 2, 9, rule_covered=True)
        miss = QueryOutcome(7, 4, 0, None, 1).on_top_of(6, 1)
        assert (miss.messages, miss.duplicates, miss.first_hit_hops) == (10, 2, None)
        assert flood.messages == 40  # frozen: a new outcome each time

    @pytest.mark.parametrize(
        "field", ["query_id", "messages", "hits", "rule_covered", "rule_succeeded"]
    )
    def test_assignment_raises(self, field):
        with pytest.raises(AttributeError):
            setattr(outcome(), field, 0)

    @pytest.mark.parametrize("covered", [False, True])
    @pytest.mark.parametrize("resolved", [False, True])
    @pytest.mark.parametrize("hops", [None, 0, 3])
    def test_on_top_of_adds_only_the_cost(self, covered, resolved, hops):
        attempt = QueryOutcome(9, 4, 2, hops, 1, covered, resolved)
        charged = attempt.on_top_of(6, 3)
        assert type(charged) is QueryOutcome
        assert charged == (9, 10, 2, hops, 4, covered, resolved)
        assert attempt.on_top_of(6) == (9, 10, 2, hops, 1, covered, resolved)

    @pytest.mark.parametrize("hits", [-1, 0, 1, 7])
    def test_succeeded_is_hits_above_zero(self, hits):
        assert QueryOutcome(1, 5, hits, None, 0).succeeded is (hits > 0)

    def test_fields_and_defaults(self):
        assert QueryOutcome._fields == (
            "query_id", "messages", "hits", "first_hit_hops", "duplicates",
            "rule_covered", "rule_succeeded",
        )  # fmt: skip
        assert QueryOutcome(1, 2, 3, 4, 5) == (1, 2, 3, 4, 5, False, False)


class TestTrafficStats:
    def test_empty(self):
        stats = TrafficStats()
        assert stats.success_rate == 0.0
        assert stats.messages_per_query == 0.0

    def test_aggregation(self):
        stats = TrafficStats()
        stats.record(outcome(messages=10, hits=1, hops=2))
        stats.record(outcome(messages=30, hits=0))
        assert stats.n_queries == 2
        assert stats.n_succeeded == 1
        assert stats.success_rate == 0.5
        assert stats.messages_per_query == 20.0
        assert stats.total_duplicates == 2

    def test_hop_stats_only_for_hits(self):
        stats = TrafficStats()
        stats.record(outcome(hits=1, hops=3))
        stats.record(outcome(hits=0))
        assert stats.mean_first_hit_hops == 3.0

    def test_str(self):
        stats = TrafficStats()
        stats.record(outcome())
        text = str(stats)
        assert "queries=1" in text
