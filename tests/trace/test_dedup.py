"""Tests for duplicate-GUID removal (repro.trace.capture)."""

from hypothesis import given, strategies as st

from repro.trace.capture import QueryLog, ReplyLog, dedup_queries, dedup_replies
from repro.trace.records import QueryRecord, ReplyRecord


def make_query_log(rows):
    return QueryLog.from_records(QueryRecord(*row) for row in rows)


def rows_of(log):
    return [rec.as_row() for rec in log.records()]


class TestDedupQueries:
    def test_keeps_first_occurrence(self):
        log = make_query_log(
            [
                (1.0, 100, 1, "first"),
                (2.0, 200, 2, "other"),
                (3.0, 100, 3, "second use of 100"),
            ]
        )
        out = dedup_queries(log)
        assert len(out) == 2
        assert rows_of(out) == [(1.0, 100, 1, "first"), (2.0, 200, 2, "other")]

    def test_idempotent(self):
        log = make_query_log(
            [(1.0, 1, 1, "a"), (2.0, 1, 2, "b"), (3.0, 2, 3, "c")]
        )
        once = dedup_queries(log)
        twice = dedup_queries(once)
        assert rows_of(once) == rows_of(twice)

    def test_no_duplicates_is_identity(self):
        rows = [(1.0, 10, 1, "a"), (2.0, 20, 2, "b")]
        out = dedup_queries(make_query_log(rows))
        assert rows_of(out) == rows

    @given(st.lists(st.integers(0, 5), max_size=30))
    def test_first_kept_property(self, guids):
        rows = [(float(i), g, i, f"q{i}") for i, g in enumerate(guids)]
        out = rows_of(dedup_queries(make_query_log(rows)))
        # Every distinct GUID appears exactly once, at its first position.
        seen_guids = [row[1] for row in out]
        assert len(seen_guids) == len(set(guids))
        for guid in set(guids):
            first_index = guids.index(guid)
            rowid = seen_guids.index(guid)
            assert out[rowid] == rows[first_index]


class TestDedupReplies:
    def test_reply_dedup(self):
        log = ReplyLog.from_records(
            [
                ReplyRecord(1.0, 5, 1, 100, "a.dat"),
                ReplyRecord(2.0, 5, 2, 200, "b.dat"),
                ReplyRecord(3.0, 6, 3, 300, "c.dat"),
            ]
        )
        out = dedup_replies(log).records()
        assert len(out) == 2
        assert out[0].guid == 5
        assert out[0].replier == 1  # first reply kept
