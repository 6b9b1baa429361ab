"""Tests for the on-disk columnar trace store (repro.trace.store)."""

import os
import struct

import numpy as np
import pytest

from repro.core.evaluation import ruleset_test
from repro.core.generation import generate_ruleset
from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.store import (
    TraceStoreCorruption,
    TraceStoreError,
    TraceStoreReader,
    TraceStoreWriter,
)
from tests.trace.test_sorted_keys import DATA, RAW_V2, legacy_columns


def columns(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 50, size=n).astype(np.int64),
        rng.integers(100, 150, size=n).astype(np.int64),
    )


def write_store(path, sources, repliers, *, drop_partial=True, **kwargs):
    """Write the columns as one store and open it for reading."""
    with TraceStoreWriter(path, **kwargs) as writer:
        writer.append(sources, repliers)
        writer.close(drop_partial=drop_partial)
    return TraceStoreReader(path)


def make_store(path, n=250, block_size=100, seed=0, **kwargs):
    sources, repliers = columns(n, seed)
    reader = write_store(path, sources, repliers, block_size=block_size, **kwargs)
    return reader, sources, repliers


class TestRoundTrip:
    def test_blocks_match_in_memory_partition(self, tmp_path):
        path = tmp_path / "t.rptrace"
        reader, sources, repliers = make_store(
            path, n=250, block_size=100, drop_partial=False
        )
        expected = blocks_from_arrays(
            sources, repliers, block_size=100, drop_partial=False
        )
        got = list(reader.iter_blocks())
        assert len(got) == len(expected) == 3
        for mem, disk in zip(expected, got):
            assert disk.index == mem.index
            np.testing.assert_array_equal(disk.sources, mem.sources)
            np.testing.assert_array_equal(disk.repliers, mem.repliers)
            assert disk.fingerprint() == mem.fingerprint()
            np.testing.assert_array_equal(disk.packed_keys(), mem.packed_keys())

    def test_drop_partial_tail(self, tmp_path):
        reader, _, _ = make_store(tmp_path / "t.rptrace", n=250, block_size=100)
        assert reader.n_blocks == 2
        assert reader.n_pairs == 200

    def test_chunked_appends_equal_single_append(self, tmp_path):
        sources, repliers = columns(500)
        with TraceStoreWriter(tmp_path / "a.rptrace", block_size=64) as w:
            for lo in range(0, 500, 7):  # ragged chunks crossing block edges
                w.append(sources[lo : lo + 7], repliers[lo : lo + 7])
        with TraceStoreWriter(tmp_path / "b.rptrace", block_size=64) as w:
            w.append(sources, repliers)
        a = TraceStoreReader(tmp_path / "a.rptrace")
        b = TraceStoreReader(tmp_path / "b.rptrace")
        assert a.n_blocks == b.n_blocks
        for i in range(a.n_blocks):
            np.testing.assert_array_equal(a.block(i).sources, b.block(i).sources)
            assert a.block(i).fingerprint() == b.block(i).fingerprint()

    def test_append_block_direct(self, tmp_path):
        sources, repliers = columns(80)
        block = PairBlock(sources=sources, repliers=repliers, index=0)
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=80) as w:
            w.append_block(block)
        reader = TraceStoreReader(tmp_path / "t.rptrace")
        assert reader.n_blocks == 1
        assert reader.block(0).fingerprint() == block.fingerprint()

    def test_append_block_rejects_buffered_pairs(self, tmp_path):
        sources, repliers = columns(80)
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=100) as w:
            w.append(sources[:10], repliers[:10])
            assert w.pending_pairs == 10
            with pytest.raises(TraceStoreError):
                w.append_block(PairBlock(sources=sources, repliers=repliers))
            w.append(sources[10:], repliers[10:])  # still usable

    def test_without_packed_segment(self, tmp_path):
        """Every store carries packed keys; a header without the flag
        is not one this reader can serve."""
        path = tmp_path / "t.rptrace"
        make_store(path, n=200, block_size=100)[0].close()
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 12, 0)  # header flags
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="packed"):
            TraceStoreReader(path)


class TestPreseededMemoization:
    def test_fingerprint_and_packed_preseeded(self, tmp_path, monkeypatch):
        """Store-resident blocks must not re-hash or re-pack columns."""
        path = tmp_path / "t.rptrace"
        make_store(path, n=200, block_size=100)
        block = TraceStoreReader(path).block(0)

        import repro.trace.blocks as blocks_module

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("pack_keys called on a preseeded block")

        monkeypatch.setattr(blocks_module, "pack_keys", boom)
        block.packed_keys()  # derived from the columns when the block was read
        assert len(block.fingerprint()) == 32

    def test_writer_packs_each_block_exactly_once(self, tmp_path, monkeypatch):
        """One pack_keys call per block even though fingerprinting,
        writing, and validation all touch the keys."""
        import repro.trace.blocks as blocks_module

        calls = {"n": 0}
        real = blocks_module.pack_keys

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(blocks_module, "pack_keys", counting)
        sources, repliers = columns(300)
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=100) as w:
            w.append(sources, repliers)
        assert calls["n"] == 3  # exactly one pack per written block

    def test_writer_scans_each_chunk_once(self, tmp_path, monkeypatch):
        """append checks a chunk's ids before buffering it, and the blocks
        flushed from it are not scanned again: one scan for five blocks."""
        import repro.trace.blocks as blocks_module
        import repro.trace.store as store_module

        scans = []
        real = blocks_module.scan_id_range
        for module in (blocks_module, store_module):
            monkeypatch.setattr(
                module,
                "scan_id_range",
                lambda sources, repliers: scans.append(len(sources))
                or real(sources, repliers),
            )
        sources, repliers = columns(500)
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=100) as writer:
            assert writer.append(sources, repliers) == 5
        assert scans == [500]


class TestPackedSegmentIgnored:
    """The fingerprint covers the two columns, not the packed segment, so
    the writer packs that segment from the columns, never from a block's
    memo, and the reader's keys and histogram are the columns'."""

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_forged_packed_segment_changes_nothing(self, tmp_path, codec):
        rng = np.random.default_rng(4)
        sources = rng.integers(0, 5, 200).astype(np.int64)
        repliers = rng.integers(100, 104, 200).astype(np.int64)
        memory = blocks_from_arrays(sources, repliers, block_size=100)
        # Block 1 goes to disk with every packed key replaced by {3} -> {4}.
        forged = PairBlock(sources=sources[100:], repliers=repliers[100:], index=1)
        object.__setattr__(
            forged, "_packed_keys", np.full(100, (3 << 32) | 4, dtype=np.int64)
        )
        path = tmp_path / "t.rptrace"
        with TraceStoreWriter(path, block_size=100, codec=codec) as writer:
            writer.append_block(memory[0])
            writer.append_block(forged)
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 2  # columns intact
            disk = reader.block(1)
            want = memory[1]
            np.testing.assert_array_equal(disk.packed_keys(), want.packed_keys())
            mined = generate_ruleset(disk, min_support_count=5)
            assert list(mined) == list(generate_ruleset(want, min_support_count=5))
            assert len(mined) and not mined.matches(3, 4)
            rules = generate_ruleset(memory[0], min_support_count=5)
            assert ruleset_test(rules, disk) == ruleset_test(rules, want)
            for held in reader.blocks():
                np.testing.assert_array_equal(
                    held.packed_keys(), memory[held.index].packed_keys()
                )


class TestCorruption:
    def test_truncated_footer_recovers_all_blocks(self, tmp_path):
        path = tmp_path / "t.rptrace"
        make_store(path, n=300, block_size=100)
        data = path.read_bytes()
        path.write_bytes(data[:-25])  # tear the trailer
        reader = TraceStoreReader(path)
        assert reader.recovered
        assert reader.n_blocks == 3
        assert reader.n_pairs == 300

    def test_mid_write_crash_leaves_complete_blocks_readable(self, tmp_path):
        path = tmp_path / "t.rptrace"
        sources, repliers = columns(250)
        writer = TraceStoreWriter(path, block_size=100)
        writer.append(sources, repliers)  # 2 complete blocks + 50 pending
        writer.abandon()  # simulated crash: no footer, no tail flush
        reader = TraceStoreReader(path)
        assert reader.recovered
        assert reader.n_blocks == 2
        np.testing.assert_array_equal(reader.block(1).sources, sources[100:200])

    def test_exception_in_writer_context_abandons(self, tmp_path):
        path = tmp_path / "t.rptrace"
        sources, repliers = columns(150)
        with pytest.raises(RuntimeError):
            with TraceStoreWriter(path, block_size=100) as w:
                w.append(sources, repliers)
                raise RuntimeError("crash")
        reader = TraceStoreReader(path)
        assert reader.recovered
        assert reader.n_blocks == 1

    def test_bad_fingerprint_detected_by_verify(self, tmp_path):
        path = tmp_path / "t.rptrace"
        make_store(path, n=300, block_size=100)
        clean = TraceStoreReader(path)
        offset = clean._entries[1].offset  # corrupt a byte inside block 1
        expected_first = np.array(clean.block(0).sources)
        data = bytearray(path.read_bytes())
        data[offset + 40] ^= 0xFF
        path.write_bytes(bytes(data))
        # Footer fast path still lists 3 blocks; verify=True truncates at
        # the first bad fingerprint.
        verified = TraceStoreReader(path, verify=True)
        assert verified.n_blocks == 1
        np.testing.assert_array_equal(verified.block(0).sources, expected_first)
        assert TraceStoreReader(path).verify_blocks() == 1
        with pytest.raises(TraceStoreCorruption):
            TraceStoreReader(path).verify_blocks(strict=True)

    def test_bad_fingerprint_stops_footerless_scan(self, tmp_path):
        path = tmp_path / "t.rptrace"
        make_store(path, n=300, block_size=100)
        offset = TraceStoreReader(path)._entries[1].offset
        data = bytearray(path.read_bytes())
        data[offset + 40] ^= 0xFF
        path.write_bytes(bytes(data[:-25]))  # bad block AND torn footer
        reader = TraceStoreReader(path)
        assert reader.recovered
        assert reader.n_blocks == 1

    @pytest.mark.parametrize("name", [RAW_V2, "parent_v1.rptrace"])
    def test_raw_columns_cut_after_open_are_corruption(self, tmp_path, name):
        """A raw column is one positional read checked for its length, so
        a store cut short after it was opened raises the typed error when
        the column is read."""
        path = tmp_path / name
        path.write_bytes((DATA / name).read_bytes())
        with TraceStoreReader(path) as reader:
            block = reader.block(2)
            with open(path, "r+b") as fh:
                fh.truncate(reader._entries[2].offset + 100)
            with pytest.raises(TraceStoreCorruption, match="exactly 800 bytes"):
                block.sources

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "bogus.rptrace"
        path.write_bytes(b"definitely not a trace store")
        with pytest.raises(TraceStoreError):
            TraceStoreReader(path)

    def test_bad_trailer_crc_falls_back_to_scan(self, tmp_path):
        path = tmp_path / "t.rptrace"
        make_store(path, n=200, block_size=100)
        data = bytearray(path.read_bytes())
        # Flip a byte inside the footer index (covered by the trailer CRC).
        trailer = data[-40:]
        index_offset = struct.unpack("<8sQQQII", bytes(trailer))[1]
        data[index_offset + 3] ^= 0xFF
        path.write_bytes(bytes(data))
        reader = TraceStoreReader(path)
        assert reader.recovered  # footer rejected, block scan succeeded
        assert reader.n_blocks == 2


class TestValidation:
    def test_rejects_mismatched_columns(self, tmp_path):
        sources, repliers = columns(50)
        with TraceStoreWriter(tmp_path / "t.rptrace") as w:
            with pytest.raises(ValueError):
                w.append(sources, repliers[:-1])

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "t.rptrace"
        with TraceStoreWriter(path):
            pass
        reader = TraceStoreReader(path)
        assert reader.n_blocks == 0
        assert list(reader.iter_blocks()) == []

    def test_float_ids_are_refused_not_truncated(self, tmp_path):
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=2) as w:
            with pytest.raises(ValueError, match="integers"):
                w.append(np.array([1.9, 2.7]), np.array([3.2, 4.99]))
            with pytest.raises(ValueError, match="integers"):
                w.append(np.array([1, 2]), np.array([3.0, 4.0]))
            assert w.pending_pairs == 0 and w.n_blocks == 0
        assert TraceStoreReader(tmp_path / "t.rptrace").n_blocks == 0

    def test_a_refused_chunk_keeps_what_was_buffered(self, tmp_path):
        """A chunk with an id outside ``[0, 2**31)`` is refused before it
        is buffered: the pairs an earlier append buffered stay pending,
        and closing writes them."""
        path = tmp_path / "t.rptrace"
        writer = TraceStoreWriter(path, block_size=4)
        assert writer.append([1, 2], [11, 12]) == 0
        for bad in (([3, -4], [13, 14]), ([3, 4], [13, 2**31])):
            with pytest.raises(ValueError, match="2\\*\\*31"):
                writer.append(*bad)
            assert (writer.pending_pairs, writer.n_blocks) == (2, 0)
        writer.close(drop_partial=False)
        with TraceStoreReader(path) as reader:
            assert reader.n_pairs == 2
            np.testing.assert_array_equal(reader.block(0).sources, [1, 2])
            np.testing.assert_array_equal(reader.block(0).repliers, [11, 12])

    def test_block_index_must_be_in_range(self, tmp_path):
        """``block(-1)`` used to serve the last block labelled -1, and
        ``block(5)`` of two a bare list error."""
        reader, _, _ = make_store(tmp_path / "t.rptrace", n=200)
        assert reader.n_blocks == 2
        for i in (-1, -2, 2, 5):
            with pytest.raises(IndexError, match=r"block .* not in range\(0, 2\)"):
                reader.block(i)
            with pytest.raises(IndexError, match=r"range\(0, 2\)"):
                reader.columns(i)
        assert [b.index for b in reader.iter_blocks()] == [0, 1]
        reader.close()

    def test_writer_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.rptrace"
        w = TraceStoreWriter(path, block_size=10)
        sources, repliers = columns(10)
        w.append(sources, repliers)
        w.close()
        w.close()
        assert TraceStoreReader(path).n_blocks == 1


class TestCompression:
    def test_zlib_round_trip_matches_raw(self, tmp_path):
        raw, sources, repliers = make_store(
            tmp_path / "raw.rptrace", n=500, block_size=100
        )
        zl, _, _ = make_store(
            tmp_path / "z.rptrace", n=500, block_size=100
        )
        assert raw.version == zl.version == 2
        assert zl.n_blocks == raw.n_blocks
        for i in range(raw.n_blocks):
            a, b = raw.block(i), zl.block(i)
            for x, y in zip(a.key_histogram(), b.key_histogram()):
                np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(a.sources, b.sources)
            np.testing.assert_array_equal(a.repliers, b.repliers)
            assert a.fingerprint() == b.fingerprint()
            np.testing.assert_array_equal(a.packed_keys(), b.packed_keys())
        raw.close()
        zl.close()

    def test_zlib_shrinks_compressible_trace(self, tmp_path):
        # Low-cardinality columns store each pair as a one-byte row, well
        # below an eighth of their two int64 columns.
        n = 2000
        sources = np.repeat(np.arange(4, dtype=np.int64), n // 4)
        repliers = np.full(n, 7, dtype=np.int64)
        write_store(
            tmp_path / "z.rptrace", sources, repliers, block_size=500
        ).close()
        assert (tmp_path / "z.rptrace").stat().st_size < 2 * 8 * n / 8

    def test_incompressible_segments_stay_raw(self, tmp_path):
        # High-entropy ids, every key distinct: each block's row index
        # numbers as many histogram rows as pairs and still reads back.
        rng = np.random.default_rng(5)
        sources = rng.integers(0, 2**31 - 1, size=300).astype(np.int64)
        repliers = rng.integers(0, 2**31 - 1, size=300).astype(np.int64)
        reader = write_store(
            tmp_path / "z.rptrace", sources, repliers, block_size=100
        )
        for i in range(reader.n_blocks):
            block = reader.block(i)
            np.testing.assert_array_equal(block.sources, sources[i * 100 : (i + 1) * 100])
        reader.close()

    def test_no_codec_writes_raw_columns_and_histogram_rows(self, tmp_path):
        """Raw columns beside codec-3 key segments (codecs 0, 0, 3) are a
        form earlier releases wrote, and the committed one reads as
        written.  codec=None writes the one layout, a row index beside
        the histogram rows (4, 4, 3), byte for byte what codec="zlib"
        writes."""
        with TraceStoreReader(DATA / RAW_V2) as raw:
            assert [raw._layout(e)[0] for e in raw._entries] == [(0, 0, 3)] * 3
            assert raw.histogram_rows and raw.verify_blocks(strict=True) == 3
        reader, sources, repliers = make_store(tmp_path / "a.rptrace", n=200, seed=3)
        assert reader.version == 2 and reader.histogram_rows
        assert [reader._layout(e)[0] for e in reader._entries] == [(4, 4, 3)] * 2
        reader.close()
        write_store(
            tmp_path / "b.rptrace", sources, repliers, block_size=100, codec="zlib"
        ).close()
        assert (tmp_path / "a.rptrace").read_bytes() == (tmp_path / "b.rptrace").read_bytes()

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_blocks_of_2_to_the_32_pairs_are_refused(self, tmp_path, codec):
        """Every count of a codec-3 segment fits 4 bytes: a block size of
        2**32 is refused before the target file is opened, and so is such
        a block handed to append_block, before anything is written."""
        path = tmp_path / "t.rptrace"
        path.write_bytes(b"an existing store")
        with pytest.raises(ValueError, match="2\\*\\*32"):
            TraceStoreWriter(path, block_size=2**32, codec=codec)
        assert path.read_bytes() == b"an existing store"

        class Huge(PairBlock):
            def __len__(self):
                return 2**32

        huge = Huge(*columns(10))
        with TraceStoreWriter(path, block_size=2**32 - 1, codec=codec) as writer:
            with pytest.raises(ValueError, match="2\\*\\*32"):
                writer.append_block(huge)
            assert writer.n_blocks == 0
        assert TraceStoreReader(path).n_blocks == 0

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="codec"):
            TraceStoreWriter(tmp_path / "t.rptrace", codec="lz9")

    def test_compressed_torn_tail_recovers(self, tmp_path):
        sources, repliers = columns(500, seed=9)
        path = tmp_path / "z.rptrace"
        w = TraceStoreWriter(path, block_size=100)
        w.append(sources, repliers)
        w.abandon()  # crash: no footer
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 11)  # tear into the last block's payload
        reader = TraceStoreReader(path)
        assert reader.recovered
        assert reader.n_blocks == 4  # last block torn away
        for i, block in enumerate(reader.iter_blocks()):
            np.testing.assert_array_equal(
                block.sources, sources[i * 100 : (i + 1) * 100]
            )
        reader.close()

    def test_compressed_footer_store_with_corrupt_segment(self, tmp_path):
        # Flipping bytes inside a compressed payload of a footered store:
        # verify=True truncates at the corrupt block instead of serving
        # garbage.
        zl, _, _ = make_store(
            tmp_path / "z.rptrace", n=500, block_size=100
        )
        n_blocks = zl.n_blocks
        entry = zl._entries[-1]
        zl.close()
        path = tmp_path / "z.rptrace"
        data = bytearray(path.read_bytes())
        payload = entry.offset + 32 + 3 * 8
        data[payload + 5] ^= 0xFF
        data[payload + 6] ^= 0xFF
        path.write_bytes(bytes(data))
        reader = TraceStoreReader(path, verify=True)
        assert reader.n_blocks == n_blocks - 1
        reader.close()

    @staticmethod
    def _patch_first_block(tmp_path, fmt, offset, value):
        """A footered zlib store with one field of block 0 overwritten."""
        zl, _, _ = make_store(
            tmp_path / "z.rptrace", n=500, block_size=100
        )
        at = zl._entries[0].offset + offset
        zl.close()
        path = tmp_path / "z.rptrace"
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, at, value)
        path.write_bytes(bytes(data))
        return path

    def test_codec_byte_2_is_an_unknown_codec(self, tmp_path):
        path = self._patch_first_block(tmp_path, "<B", 4, 2)  # segment 0's codec
        with TraceStoreReader(path) as reader:
            with pytest.raises(TraceStoreCorruption, match="unknown segment codec 2"):
                reader.block(0)

    def test_a_footer_store_reads_each_block_header_once(
        self, tmp_path, monkeypatch
    ):
        """Opening reads every block header of a footered zlib store;
        reading its blocks afterwards reads none again."""
        path = tmp_path / "z.rptrace"
        make_store(path, n=500, block_size=100)[0].close()
        with TraceStoreReader(path) as reader:
            monkeypatch.setattr(
                TraceStoreReader, "_block_head", lambda *_: pytest.fail("re-read")
            )
            for block in reader.iter_blocks():
                block.key_histogram(), block.sources, block.repliers
            assert reader.verify_blocks(strict=True) == 5

    @pytest.mark.parametrize("length", [0, 2**62, 2**64 - 1])
    def test_stored_length_past_the_file_is_corruption(self, tmp_path, length):
        """The footer CRC does not cover block headers: a stored segment
        length is bounded by the file before anything is read with it."""
        path = self._patch_first_block(tmp_path, "<Q", 32, length)
        with TraceStoreReader(path) as reader:
            with pytest.raises(TraceStoreCorruption, match="segment lengths"):
                reader.block(0)
            with pytest.raises(TraceStoreCorruption, match="segment lengths"):
                reader.blocks()
            assert reader.verify_blocks() == 0
        with TraceStoreReader(path, verify=True) as reader:
            assert reader.n_blocks == 0


class TestReaderLifetime:
    def test_close_is_idempotent(self, tmp_path):
        reader, _, _ = make_store(tmp_path / "t.rptrace")
        reader.close()
        reader.close()  # double close: no-op
        assert reader.closed

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "t.rptrace"
        make_store(path)[0].close()
        with TraceStoreReader(path) as reader:
            assert not reader.closed
            reader.block(0)
        assert reader.closed

    def test_closed_reader_refuses_reads(self, tmp_path):
        reader, _, _ = make_store(tmp_path / "t.rptrace")
        reader.close()
        with pytest.raises(TraceStoreError, match="closed"):
            reader.block(0)
        with pytest.raises(TraceStoreError, match="closed"):
            reader.columns(0)
        with pytest.raises(TraceStoreError, match="closed"):
            reader.verify_blocks()

    def test_close_releases_its_one_file_handle(self, tmp_path):
        """A reader holds one descriptor however many blocks it reads,
        and close() gives it back."""
        path = tmp_path / "t.rptrace"
        make_store(path, n=1_000, block_size=100)[0].close()
        before = len(os.listdir("/proc/self/fd"))
        reader = TraceStoreReader(path)
        for block in reader.blocks() + list(reader.iter_blocks()):
            block.sources, block.key_histogram()
        assert len(os.listdir("/proc/self/fd")) == before + 1
        reader.close()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("name", [None, RAW_V2])
    def test_arrays_read_before_close_stay_valid(self, tmp_path, name):
        """Every segment is read into memory of its own, so what a block
        has read before close() — a fresh store's keys, histogram and
        columns, or a raw store's columns — reads the same afterwards."""
        sources, repliers = legacy_columns()
        if name:
            reader = TraceStoreReader(DATA / name)
        else:
            path = tmp_path / "t.rptrace"
            reader = write_store(path, sources, repliers, block_size=100)
        block = reader.block(2)
        read = [block.sources, block.repliers, block.packed_keys()]
        read += block.key_histogram()
        copies = [np.array(array) for array in read]
        reader.close()
        for array, copy in zip(read, copies):
            np.testing.assert_array_equal(array, copy)
        np.testing.assert_array_equal(block.sources, sources[200:])
        np.testing.assert_array_equal(block.repliers, repliers[200:])

    def test_meta_fingerprint_round_trips(self, tmp_path):
        path = tmp_path / "t.rptrace"
        sources, repliers = columns(100)
        write_store(
            path, sources, repliers, block_size=100, meta_fingerprint=0xDEADBEEF
        ).close()
        with TraceStoreReader(path) as reader:
            assert reader.meta_fingerprint == 0xDEADBEEF


#: the reader a forked worker inherits (fork copies module globals).
_FORKED = {}


def _read_every_block(rounds):
    """Each block's key sum, decoded ``rounds`` times from fresh blocks of
    the inherited reader."""
    reader = _FORKED["reader"]
    sums = set()
    for _ in range(rounds):
        sums.add(tuple(int(reader.block(i).packed_keys().sum()) for i in range(200)))
    return sums


class TestForkedReader:
    def test_forked_workers_read_their_own_bytes(self, tmp_path):
        """A pool forked while a reader is open shares its file handle,
        and so one file position, between the parent and every worker:
        a seek then a read races a sibling's, and 10-40 % of these
        decodes read a segment at a sibling's offset and failed.  Every
        read is positional, so each worker decodes every block."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        path = tmp_path / "z.rptrace"
        make_store(path, n=20_000, block_size=100)[0].close()
        with TraceStoreReader(path) as reader:
            want = {tuple(int(b.packed_keys().sum()) for b in reader.iter_blocks())}
            _FORKED["reader"] = reader
            try:
                with ProcessPoolExecutor(
                    2, mp_context=multiprocessing.get_context("fork")
                ) as pool:
                    got = list(pool.map(_read_every_block, [5, 5]))
            finally:
                _FORKED.clear()
        assert got == [want, want]


class TestAllBlocksOneMapping:
    """``blocks()``: what ``block(i)`` returns, every block's keys read at
    once, through the reader's one file handle."""

    @staticmethod
    def assert_same(reader):
        held = reader.blocks()
        assert len(held) == reader.n_blocks
        for i, got in enumerate(held):
            want = reader.block(i)
            assert got.index == want.index == i
            np.testing.assert_array_equal(got.sources, want.sources)
            np.testing.assert_array_equal(got.repliers, want.repliers)
            assert got.__dict__["_fingerprint"] == want.fingerprint()
            assert got.__dict__["_ids_validated"]
            np.testing.assert_array_equal(
                got.__dict__["_packed_keys"], want.packed_keys()
            )
        return held

    def test_a_short_tail_block(self, tmp_path):
        reader, sources, _ = make_store(
            tmp_path / "t.rptrace", n=1_050, block_size=100, drop_partial=False
        )
        held = self.assert_same(reader)
        assert len(held) == 11 and len(held[-1]) == 50
        np.testing.assert_array_equal(
            np.concatenate([b.sources for b in held]), sources
        )
        reader.close()

    def test_unaligned_raw_columns_read_as_stored(self):
        """Codec-3 key segments have any length, so block 1's raw columns
        in the committed raw store start off an 8-byte boundary; they are
        read into arrays of their own, as written."""
        sources, repliers = legacy_columns()
        with TraceStoreReader(DATA / RAW_V2) as reader:
            payloads = [reader._layout(e)[2] for e in reader._entries]
            assert payloads[1] % 8 != 0
            held = self.assert_same(reader)
        np.testing.assert_array_equal(
            np.concatenate([b.sources for b in held]), sources
        )
        np.testing.assert_array_equal(
            np.concatenate([b.repliers for b in held]), repliers
        )

    def test_descriptors_do_not_grow_with_the_block_count(self, tmp_path):
        reader, _, _ = make_store(tmp_path / "t.rptrace", n=40_000, block_size=100)
        before = len(os.listdir("/proc/self/fd"))
        held = reader.blocks()
        assert len(held) == 400
        assert len(os.listdir("/proc/self/fd")) - before <= 1
        del held
        reader.close()

    def test_compressed_store(self, tmp_path):
        reader, _, _ = make_store(
            tmp_path / "z.rptrace", n=1_000, block_size=100
        )
        assert reader.version == 2
        self.assert_same(reader)
        reader.close()

    def test_raw_segments_behind_compressed_ones(self, tmp_path):
        """Columns split from a zlib store's row index are what block(i)
        serves, a constant column and a high-entropy one alike."""
        rng = np.random.default_rng(5)
        sources = np.repeat(np.int64(7), 300)  # constant
        repliers = rng.integers(0, 2**31 - 1, size=300).astype(np.int64)  # high-entropy
        reader = write_store(
            tmp_path / "z.rptrace", sources, repliers, block_size=100
        )
        held = self.assert_same(reader)
        np.testing.assert_array_equal(
            np.concatenate([b.repliers for b in held]), repliers
        )
        del held
        reader.close()

    def test_empty_and_closed(self, tmp_path):
        empty = np.array([], dtype=np.int64)
        reader = write_store(tmp_path / "e.rptrace", empty, empty)
        assert reader.blocks() == []
        reader.close()
        with pytest.raises(TraceStoreError, match="closed"):
            reader.blocks()
