"""Tests for the GUID join (repro.trace.capture.join_pairs)."""

from dataclasses import asdict, fields

from repro.trace.capture import PairLog, QueryLog, ReplyLog, join_pairs
from repro.trace.records import QueryRecord, QueryReplyPair, ReplyRecord


def make_logs():
    queries = QueryLog.from_records(
        [
            QueryRecord(1.0, 100, 1, "q1"),
            QueryRecord(2.0, 200, 2, "q2"),
            QueryRecord(3.0, 300, 3, "q3"),  # no reply
        ]
    )
    replies = ReplyLog.from_records(
        [
            ReplyRecord(1.5, 100, 11, 1000, "f1.dat"),
            ReplyRecord(2.5, 200, 12, 2000, "f2.dat"),
            ReplyRecord(9.0, 999, 13, 3000, "orphan.dat"),  # no matching query
        ]
    )
    return queries, replies


class TestBuildPairTable:
    def test_pairs_only_for_matched_guids(self):
        queries, replies = make_logs()
        pairs = join_pairs(queries, replies)
        assert len(pairs) == 2
        assert {p.guid for p in pairs.records()} == {100, 200}

    def test_pair_schema(self):
        queries, replies = make_logs()
        pairs = join_pairs(queries, replies)
        assert isinstance(pairs, PairLog)
        assert tuple(f.name for f in fields(pairs)) == (
            "guid",
            "query_time",
            "source",
            "query_string",
            "reply_time",
            "replier",
            "host",
        )
        assert tuple(f.name for f in fields(QueryReplyPair)) == tuple(
            f.name for f in fields(pairs)
        )

    def test_pair_values(self):
        queries, replies = make_logs()
        pairs = join_pairs(queries, replies)
        row = asdict(pairs.records()[0])
        assert row == {
            "guid": 100,
            "query_time": 1.0,
            "source": 1,
            "query_string": "q1",
            "reply_time": 1.5,
            "replier": 11,
            "host": 1000,
        }

    def test_empty_inputs(self):
        queries = QueryLog.from_records([])
        replies = ReplyLog.from_records([])
        assert len(join_pairs(queries, replies)) == 0


class TestPairRecords:
    def test_materialization(self):
        queries, replies = make_logs()
        records = join_pairs(queries, replies).records()
        assert len(records) == 2
        assert records[0].guid == 100
        assert records[0].replier == 11
        assert records[1].source == 2
