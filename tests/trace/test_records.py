"""Tests for repro.trace.records and the column logs built from them."""

import numpy as np
import pytest

from repro.trace.capture import (
    ID128,
    PairLog,
    QueryLog,
    ReplyLog,
    pack_ids,
    unpack_ids,
)
from repro.trace.records import (
    QueryRecord,
    QueryReplyPair,
    ReplyRecord,
    render_ip,
)


class TestRecords:
    def test_query_as_row(self):
        rec = QueryRecord(time=1.0, guid=42, source=7, query_string="topic001 item00002")
        assert rec.as_row() == (1.0, 42, 7, "topic001 item00002")
        assert QueryLog.from_records([rec]).records() == [rec]

    def test_reply_as_row(self):
        rec = ReplyRecord(time=2.0, guid=42, replier=9, host=1000, file_name="f.dat")
        assert rec.as_row() == (2.0, 42, 9, 1000, "f.dat")
        assert ReplyLog.from_records([rec]).records() == [rec]

    def test_pair_as_row(self):
        pair = QueryReplyPair(
            guid=1,
            query_time=1.0,
            source=2,
            query_string="q",
            reply_time=3.0,
            replier=4,
            host=5,
        )
        assert pair.as_row() == (1, 1.0, 2, "q", 3.0, 4, 5)
        assert PairLog.from_records([pair]).records() == [pair]


class TestColumnLogs:
    def test_ids_keep_all_128_bits(self):
        values = [0, 7, (1 << 64) + 7, (1 << 127) + 7, (1 << 128) - 1]
        ids = pack_ids(values)
        assert ids.dtype == ID128
        assert unpack_ids(ids) == values
        assert len(np.unique(ids)) == len(values)
        assert unpack_ids(np.sort(ids)) == sorted(values)
        log = ReplyLog.from_records(
            ReplyRecord(float(i), v, i, v, "f") for i, v in enumerate(values)
        )
        assert [(r.guid, r.host) for r in log.records()] == [(v, v) for v in values]

    @pytest.mark.parametrize("bad", [-1, 1 << 128])
    def test_id_outside_128_bits_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            QueryLog.from_records([QueryRecord(1.0, bad, 0, "q")])
        with pytest.raises(ValueError):
            ReplyLog.from_records([ReplyRecord(1.0, 1, 0, bad, "f")])

    def test_field_types_are_checked_not_coerced(self):
        with pytest.raises(TypeError):
            QueryLog.from_records([QueryRecord(1.0, 1, 2.5, "q")])
        with pytest.raises(TypeError):
            QueryLog.from_records([QueryRecord(1.0, 1.0, 2, "q")])
        with pytest.raises(TypeError):
            QueryLog.from_records([QueryRecord(1.0, 1, 2, b"q")])
        with pytest.raises(OverflowError):
            QueryLog.from_records([QueryRecord(1.0, 1, 1 << 63, "q")])

    def test_empty_log(self):
        log = QueryLog.from_records([])
        assert len(log) == 0
        assert log.records() == []
        assert log.guid.dtype == ID128

    def test_columns_are_checked_at_construction(self):
        time = np.zeros(2)
        guid = pack_ids([1, 2])
        source = np.zeros(2, dtype=np.int64)
        QueryLog(time, guid, source, ["a", "b"])
        with pytest.raises(ValueError):
            QueryLog(time, guid, source, ["a"])
        with pytest.raises(ValueError):
            QueryLog(time[:1], guid, source, ["a", "b"])
        with pytest.raises(TypeError):  # GUIDs truncated to one word
            QueryLog(time, guid["lo"], source, ["a", "b"])
        with pytest.raises(TypeError):
            QueryLog(time, guid, source.astype(np.int32), ["a", "b"])
        with pytest.raises(TypeError):
            QueryLog(time.reshape(2, 1), guid, source, ["a", "b"])
        with pytest.raises(TypeError):
            QueryLog(time, guid, source, ("a", "b"))


class TestRenderIp:
    def test_format(self):
        ip = render_ip(0)
        parts = ip.split(".")
        assert len(parts) == 4
        assert parts[0] == "10"
        assert all(0 <= int(p) <= 255 for p in parts)

    def test_stable(self):
        assert render_ip(123) == render_ip(123)

    def test_distinct_for_small_ids(self):
        ips = {render_ip(i) for i in range(1000)}
        assert len(ips) == 1000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            render_ip(-1)
