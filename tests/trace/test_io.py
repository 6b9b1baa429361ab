"""Tests for repro.trace.io."""

from pathlib import Path

import pytest

from repro.trace.io import read_queries, read_replies, write_queries, write_replies
from repro.trace.records import QueryRecord, ReplyRecord

DATA = Path(__file__).parent / "data"


def sample_queries():
    return [
        QueryRecord(time=1.25, guid=11, source=1, query_string="topic001 item00001"),
        QueryRecord(time=2.5, guid=22, source=2, query_string="topic002 item00002 live"),
    ]


def sample_replies():
    return [
        ReplyRecord(time=1.5, guid=11, replier=9, host=1000, file_name="cat001/file00001.dat"),
    ]


class TestQueryRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "queries.tsv"
        n = write_queries(path, sample_queries())
        assert n == 2
        log = read_queries(path)
        assert len(log) == 2
        assert log.records() == sample_queries()

    def test_rejects_tab_in_string(self, tmp_path):
        bad = [QueryRecord(time=1.0, guid=1, source=1, query_string="a\tb")]
        with pytest.raises(ValueError):
            write_queries(tmp_path / "q.tsv", bad)

    def test_bad_header_detected(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("not a header\n")
        with pytest.raises(ValueError):
            read_queries(path)


class TestReplyRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "replies.tsv"
        assert write_replies(path, sample_replies()) == 1
        assert read_replies(path).records() == sample_replies()

    def test_bad_header_detected(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("time\tguid\n")
        with pytest.raises(ValueError):
            read_replies(path)

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_replies(path, [])
        assert len(read_replies(path)) == 0


class TestChunkedReads:
    """The row iterators (class name kept from the chunked table readers)."""

    def _many_queries(self, n=23):
        return [
            QueryRecord(time=float(i), guid=i, source=i % 5, query_string=f"q {i}")
            for i in range(n)
        ]

    def test_row_iterators_stream_lazily(self, tmp_path):
        from repro.trace.io import iter_query_rows, iter_reply_rows

        qpath = tmp_path / "queries.tsv"
        write_queries(qpath, self._many_queries(5))
        it = iter_query_rows(qpath)
        assert next(it) == (0.0, 0, 0, "q 0")
        assert len(list(it)) == 4

        rpath = tmp_path / "replies.tsv"
        write_replies(
            rpath, [ReplyRecord(time=1.0, guid=2, replier=3, host=4, file_name="x y")]
        )
        assert list(iter_reply_rows(rpath)) == [(1.0, 2, 3, 4, "x y")]

    def test_row_iterator_bad_header(self, tmp_path):
        from repro.trace.io import iter_query_rows

        path = tmp_path / "bogus.tsv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            next(iter_query_rows(path))


H = 1 << 64
# What the parent commit's writers were given to produce tests/trace/data.
PARENT_QUERIES = [
    QueryRecord(0.1 + 0.2, 7, 3, "topic001 item00001"),
    QueryRecord(1e-07, H + 7, 4, "same low word, high word 1"),
    QueryRecord(2.5, (1 << 127) + 7, 5, "top bit set"),
    QueryRecord(1e22, (1 << 128) - 1, 0, "caf\u00e9 \u97f3\u697d  two spaces"),
    QueryRecord(3.0, 7, 6, "second use of guid 7"),
    QueryRecord(4.0, 0, 2**31 - 1, ""),
]
PARENT_REPLIES = [
    ReplyRecord(0.5, 7, 9, H + 1000, "cat001/file 00001.dat"),
    ReplyRecord(2.75, (1 << 127) + 7, 8, (1 << 127) + 1000, "f.dat"),
    ReplyRecord(1.0, H + 7, 9, 1000, "early \u00fc.ogg"),
    ReplyRecord(5.0, 7, 8, 0, ""),
]


class TestFormatIsUnchanged:
    """Files the parent commit wrote: same bytes out, equal logs back."""

    def test_parent_files_read_back_to_equal_logs(self):
        assert read_queries(DATA / "parent_queries.tsv").records() == PARENT_QUERIES
        assert read_replies(DATA / "parent_replies.tsv").records() == PARENT_REPLIES

    def test_writers_produce_the_parent_bytes(self, tmp_path):
        write_queries(tmp_path / "q.tsv", PARENT_QUERIES)
        write_replies(tmp_path / "r.tsv", PARENT_REPLIES)
        assert (tmp_path / "q.tsv").read_bytes() == (
            DATA / "parent_queries.tsv"
        ).read_bytes()
        assert (tmp_path / "r.tsv").read_bytes() == (
            DATA / "parent_replies.tsv"
        ).read_bytes()


class TestCarriageReturn:
    """The wire codec allows a lone CR in a search string or a file name."""

    def test_query_string_with_cr_round_trips(self, tmp_path):
        records = [QueryRecord(1.0, 5, 2, "a\rb"), QueryRecord(2.0, 6, 3, "c\r")]
        path = tmp_path / "q.tsv"
        write_queries(path, records)
        assert b"a\rb\n" in path.read_bytes()
        assert read_queries(path).records() == records

    def test_file_name_with_cr_round_trips(self, tmp_path):
        records = [
            ReplyRecord(1.0, 5, 2, 9, "a\rb.dat"),
            ReplyRecord(2.0, 6, 3, 9, "\r"),
        ]
        path = tmp_path / "r.tsv"
        write_replies(path, records)
        assert read_replies(path).records() == records


class TestBadLines:
    @pytest.mark.parametrize(
        "line",
        [
            "1.0\t5", "just text", "", "x\t5\t2\tq", "1.0\t5.5\t2\tq",
            # outside the column's range: int64 sources, ID128 guids
            "1.0\t5\t9223372036854775808\tq", "1.0\t-5\t2\tq",
            f"1.0\t{2**128}\t2\tq",
        ],
    )
    def test_query_line_error_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "q.tsv"
        path.write_text(f"time\tguid\tsource\tquery_string\n1.0\t5\t2\tok\n{line}\n")
        with pytest.raises(ValueError, match=r"q\.tsv:3: bad query trace line"):
            read_queries(path)

    @pytest.mark.parametrize(
        "line",
        ["1.0\t5\t2\tname", "1.0\t5\t2\thost\tname", "1.0\t5\t2\t-1\tname"],
    )
    def test_reply_line_error_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "r.tsv"
        path.write_text(f"time\tguid\treplier\thost\tfile_name\n{line}\n")
        with pytest.raises(ValueError, match=r"r\.tsv:2: bad reply trace line"):
            read_replies(path)
