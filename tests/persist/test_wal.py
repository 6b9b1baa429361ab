"""Tests for repro.persist.wal — framing, checksums, torn-tail handling."""

import os
import struct

import pytest

from repro.persist.wal import (
    FSYNC_POLICIES,
    RECORD_BYTES,
    WAL_MAGIC,
    WalError,
    WalWriter,
    read_wal,
    wal_header,
)

PAIRS = [(0, 3), (1, 2), (5, 0), (-1, 7), (2**40, -(2**40))]


def write_segment(path, pairs, *, fsync="never"):
    writer = WalWriter(str(path), fsync=fsync)
    for source, replier in pairs:
        writer.append(source, replier)
    writer.close()
    return writer


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS)
        result = read_wal(str(path))
        assert result.pairs == PAIRS
        assert result.clean
        assert result.good_offset == os.path.getsize(path)

    def test_counters(self, tmp_path):
        path = tmp_path / "seg.wal"
        writer = write_segment(path, PAIRS)
        assert writer.records == len(PAIRS)
        assert writer.bytes_written == len(WAL_MAGIC) + len(PAIRS) * RECORD_BYTES
        assert writer.bytes_written == os.path.getsize(path)

    def test_reopen_appends_without_second_magic(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS[:2])
        write_segment(path, PAIRS[2:])
        result = read_wal(str(path))
        assert result.pairs == PAIRS
        assert result.clean

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_every_fsync_policy_is_readable(self, tmp_path, policy):
        path = tmp_path / f"{policy}.wal"
        write_segment(path, PAIRS, fsync=policy)
        assert read_wal(str(path)).pairs == PAIRS

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WalWriter(str(tmp_path / "x.wal"), fsync="sometimes")

    def test_close_is_idempotent(self, tmp_path):
        writer = WalWriter(str(tmp_path / "x.wal"))
        writer.close()
        writer.close()
        assert writer.closed


class TestTornAndCorrupt:
    @pytest.mark.parametrize("cut", [1, 8, RECORD_BYTES - 1])
    def test_torn_final_record_yields_prefix(self, tmp_path, cut):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS)
        full = os.path.getsize(path)
        os.truncate(path, full - cut)
        result = read_wal(str(path))
        assert result.pairs == PAIRS[:-1]
        assert not result.clean
        assert result.good_offset == full - RECORD_BYTES

    def test_corrupt_checksum_stops_replay(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS)
        data = bytearray(path.read_bytes())
        # flip a payload byte of the third record
        offset = len(WAL_MAGIC) + 2 * RECORD_BYTES + 8 + 1
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        result = read_wal(str(path))
        assert result.pairs == PAIRS[:2]
        assert not result.clean
        assert result.good_offset == len(WAL_MAGIC) + 2 * RECORD_BYTES

    def test_absurd_length_field_stops_replay(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS[:1])
        with open(path, "ab") as fh:
            fh.write(struct.pack("<II", 2**31, 0))
        result = read_wal(str(path))
        assert result.pairs == PAIRS[:1]
        assert not result.clean

    def test_segment_torn_during_creation(self, tmp_path):
        path = tmp_path / "seg.wal"
        path.write_bytes(WAL_MAGIC[:3])
        result = read_wal(str(path))
        assert result.pairs == []
        assert result.good_offset == 0
        assert not result.clean

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "not.wal"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 32)
        with pytest.raises(WalError, match="bad magic"):
            read_wal(str(path))

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "future.wal"
        path.write_bytes(b"RPWL" + struct.pack("<HH", 99, 0))
        with pytest.raises(WalError, match="version"):
            read_wal(str(path))


class TestHeader:
    def test_wal_header_summary(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS)
        header = wal_header(str(path))
        assert header["records"] == len(PAIRS)
        assert header["clean"] is True
        assert header["bytes"] == header["good_bytes"] == os.path.getsize(path)

    def test_wal_header_reports_torn_tail(self, tmp_path):
        path = tmp_path / "seg.wal"
        write_segment(path, PAIRS)
        os.truncate(path, os.path.getsize(path) - 3)
        header = wal_header(str(path))
        assert header["records"] == len(PAIRS) - 1
        assert header["clean"] is False
        assert header["good_bytes"] < header["bytes"]
