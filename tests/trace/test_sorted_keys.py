"""A store block's key histogram, decoded from its key segment, and a
store block's keys, each pair's row of it.

Every store holds each block's key histogram as narrow rows (segment
codec 3), and a store block's ``key_histogram()`` is one checked decode
of it.  Every store the writer makes holds each pair as its row of that
histogram (segment codec 4), so a block's ``packed_keys()`` are the
decoded histogram's keys at those rows.  Every other form of the segment — packed keys in pair order
(header flags bit 0), raw sorted keys (version 1), sorted keys under
zlib (codec 1), a deflated histogram (codec 2) — is a legacy form that
is never read: the block is counted from its columns, like an in-memory
block.  Here:

* the committed ``data/parent_v1.rptrace`` / ``data/parent_v2_zlib.rptrace``
  (the 300 pairs of :func:`legacy_columns`, block 100, written raw and
  with ``codec="zlib"`` by the release before sorted key segments) serve
  what the in-memory blocks give: columns, histograms, the four
  strategies' runs and both ``StreamingRules`` runs; so do
  ``data/parent_v1_sorted.rptrace``, the same pairs written raw by the
  release before every store held histograms (raw sorted keys),
  ``data/parent_v2_sorted_zlib.rptrace``, written with ``codec="zlib"``
  by the release before histogram segments (sorted keys under zlib), and
  ``data/parent_v2_histogram.rptrace``, written by the release before
  narrow rows (deflated histograms) — each counted from its columns —
  ``data/parent_v2_rows_zlib.rptrace``, written by the release before
  row indexes (deflated columns beside codec-3 rows), and
  ``data/parent_v2_raw.rptrace``, written with ``codec=None`` by the
  release before every store was row-indexed (raw columns beside codec-3
  rows, the form of every trace cache file it wrote), whose histograms
  are read, and whose fingerprints, histograms, columns and runs equal a
  fresh store's;
* a fresh store writes segment 2 as codec 3, one pair blocks included,
  and a block's ``key_histogram()`` reads no column; its columns are a
  row index (codec 4) 1, 2 or 4 bytes wide, whether ``codec`` is None or
  ``"zlib"``, and a block decodes its histogram once for its histogram,
  keys and columns alike, and serves its keys without splitting a column;
* on hypothesis-drawn columns — one distinct key, all keys distinct, a
  1-pair block, a short tail block, ids 0 and 2**31 - 1, ids on each
  side of a plane width (255/256, 65,535/65,536) —
  a store block's histogram is ``np.unique``'s bit for bit, and the four
  strategies, ``ruleset_test_random_subset`` and a two-tier
  ``ruleset_test_fallback`` agree with the in-memory blocks;
* a key segment that is a valid histogram but not the columns' fails
  ``verify_blocks``, ``verify=True`` and the footer-less scan;
* a block first touched after its reader's ``close()`` raises
  :class:`TraceStoreError`, for a fresh store and every committed one,
  and what :meth:`TraceStoreReader.blocks` read stays valid.

``tests/test_decoder_wall.py`` edits the codec-3 segment so that it
cannot be a block's histogram, and the codec-4 segment and its layout so
that it cannot index it, and every such edit must fail the read; its
hostile legacy segments must each be counted from the columns.
Mutants run in a scratch copy, and what fails on each (``rows`` is
``test_decoder_wall.py::test_a_rows_segment_edit_raises``, ``index``
its ``test_an_index_segment_edit_raises``):

* the key-segment comparison dropped from ``TraceStoreReader._intact``
  (verification checks the fingerprint only) —
  ``TestIntegrity::test_forged_sorted_segment_fails_verification``;
* a codec-3 segment read as legacy (every block counted from its
  columns) — ``TestHistogramSegment::test_a_zlib_store_writes_histograms``
  and ``test_a_raw_store_writes_histograms``,
  ``TestLegacyBytes::test_counted_from_the_columns``,
  ``TestIntegrity::test_forged_sorted_segment_fails_verification``,
  every ``rows`` case, and ``test_cli.py::TestTraceEvalCli`` on a
  corrupt segment (``extra0``, ``extra1``);
* segment 2 written from ``np.sort(block.packed_keys())`` instead of
  from the columns — ``test_store.py::TestPackedSegmentIgnored`` and
  ``TestIntegrity::test_a_forged_memo_never_reaches_the_segment``;
* the CRC check dropped from the rows decoder — ``rows`` on ``flipped
  byte``, and ``test_cli.py::TestTraceEvalCli`` on a corrupt segment
  (every ``extra``);
* its width check dropped — ``rows`` on ``width 0``, ``width 3`` and
  ``width 8``; its whole-rows check — ``partial row``; its row-count
  check — ``zero rows`` and ``more rows than pairs``;
* the shared check's key order dropped — ``rows`` on ``repeated key``,
  ``falling replier`` and ``source half 2**31``;
* its replier check dropped — ``rows`` on ``replier half 2**31``;
* its counts checked by their sum alone — ``rows`` on ``zero count``;
  its whole counts check dropped — that and ``counts sum past the
  block``;
* the writer's segment-2 codec byte 2 instead of 3 (rows taken for a
  legacy segment) — ``TestHistogramSegment::test_a_zlib_store_writes_histograms``,
  every ``test_ids_and_counts_on_each_side_of_a_plane_width``, both
  ``test_a_one_pair_block_is_stored_as_rows``,
  ``TestHistogramDifferential`` and 15 more;
* a v2 footer trusted for a block's pair count —
  ``test_decoder_wall.py::test_a_footer_that_miscounts_a_block_is_not_trusted[v2-50]``;
  for its blocks' places (no tiling) —
  ``test_a_footer_that_skips_a_block_is_not_trusted[v2]``; a header
  whose own fields fail sending the reader to the scan —
  ``test_store.py::TestCompression::test_codec_byte_2_is_an_unknown_codec``
  and ``test_stored_length_past_the_file_is_corruption``; the layouts
  parsed at open not kept —
  ``TestCompression::test_a_footer_store_reads_each_block_header_once``;
* the writer's 2**32-pair checks dropped —
  ``test_store.py::TestCompression::test_blocks_of_2_to_the_32_pairs_are_refused``;
* the trace cache keeping a complete version-1 file —
  ``test_cache.py::TestRebuild::test_a_version_1_cache_is_rewritten_once``;
* the row index decoder's ``bincount`` check dropped — ``index`` on
  ``counts disagree``; its ``row < d`` check dropped — ``index`` on
  ``row equal to d`` (``bincount`` then refuses it, with the other
  message); its CRC check — ``index`` on ``rows swapped under the old
  CRC`` and ``test_cli.py::TestTraceInspectCli`` on a corrupt block; its
  width check — ``index`` on ``width 0``, ``width 3`` and ``width 8``;
  its length check allowing a long plane — ``long plane``; the layout's
  empty segment 1 and codec-3 neighbour checks — ``segment 1 not empty``
  and ``beside a codec-1 key segment``;
* a zlib block's keys split into columns and packed again —
  ``TestRowIndex::test_keys_come_from_the_decoded_histogram``;
* a zlib block's histogram decoded a second time for its keys —
  ``TestRowIndex::test_keys_come_from_the_decoded_histogram``;
* a reader that seeks and then reads —
  ``test_store.py::TestForkedReader::test_forked_workers_read_their_own_bytes``.
"""

import gc
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.blocks as blocks_module
from repro.core.evaluation import ruleset_test_fallback, ruleset_test_random_subset
from repro.core.generation import generate_ruleset
from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.store import (
    TraceStoreCorruption,
    TraceStoreError,
    TraceStoreReader,
    TraceStoreWriter,
)

DATA = Path(__file__).parent / "data"
LEGACY = ("parent_v1.rptrace", "parent_v2_zlib.rptrace")
#: sorted key segments under zlib (segment codec 1), not histograms.
SORTED_ZLIB = "parent_v2_sorted_zlib.rptrace"
#: deflated key histograms (segment codec 2), not narrow rows.
DEFLATED_HISTOGRAM = "parent_v2_histogram.rptrace"
#: sorted key segments raw in a version-1 store, not histograms.
RAW_SORTED = "parent_v1_sorted.rptrace"
#: deflated columns (segment codec 1) beside codec-3 rows, not a row index.
ROWS_ZLIB = "parent_v2_rows_zlib.rptrace"
#: raw columns (segment codec 0) beside codec-3 rows, not a row index.
RAW_V2 = "parent_v2_raw.rptrace"
SORTED_LEGACY = (RAW_SORTED, SORTED_ZLIB, DEFLATED_HISTOGRAM)
STRATEGIES = (StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow)
ID_MAX = 2**31 - 1


def legacy_columns():
    """The 300 pairs the committed legacy stores hold."""
    rng = np.random.default_rng(31)
    sources = rng.integers(0, 12, 300)
    repliers = 100 + (sources + rng.integers(0, 3, 300)) % 8
    return sources, repliers


def header_flags(path):
    return struct.unpack_from("<I", Path(path).read_bytes(), 12)[0]


def segment_codecs(path):
    """Each block's three segment codec bytes, of a version-2 store."""
    data = Path(path).read_bytes()
    index_offset = struct.unpack_from("<Q", data, len(data) - 32)[0]
    codecs, offset = [], 32
    while offset < index_offset:
        word = struct.unpack_from("<I", data, offset + 4)[0]
        codecs.append(tuple(word >> 8 * k & 0xFF for k in range(3)))
        offset += 56 + sum(struct.unpack_from("<3Q", data, offset + 32))
    return codecs


def key_segment_widths(path):
    """Block 0's three plane widths, of a codec-3 key segment."""
    data = Path(path).read_bytes()
    lengths = struct.unpack_from("<3Q", data, 64)
    head = 88 + lengths[0] + lengths[1]
    return tuple(data[head + 4 : head + 7])


def row_index_width(path):
    """Block 0's row width, of a codec-4 segment 0."""
    return Path(path).read_bytes()[88 + 4]


def write(path, sources, repliers, *, block_size=100, codec=None, footer=True):
    writer = TraceStoreWriter(path, block_size=block_size, codec=codec)
    writer.append(sources, repliers)
    if footer:
        writer.close(drop_partial=False)
    else:
        writer.abandon()
    return path


def assert_serves(reader, memory):
    """Every block of ``reader`` has ``memory``'s length, columns and
    histogram — the histogram read first, bit for bit and dtype for dtype."""
    disk = list(reader.iter_blocks())
    assert len(disk) == len(memory)
    for got, want in zip(disk, memory):
        assert (got.index, len(got)) == (want.index, len(want))
        expected = np.unique(want.packed_keys(), return_counts=True)
        for array, oracle in zip(got.key_histogram(), expected):
            assert array.dtype == oracle.dtype
            np.testing.assert_array_equal(array, oracle)
        np.testing.assert_array_equal(got.sources, want.sources)
        np.testing.assert_array_equal(got.repliers, want.repliers)
        np.testing.assert_array_equal(got.packed_keys(), want.packed_keys())


def assert_same_runs(path, memory):
    """The four strategies and both streaming backends, off the store and
    off the in-memory blocks."""
    for run_on in [cls().run for cls in STRATEGIES] + [
        StreamingRules(backend=backend).run for backend in ("exact", "lossy")
    ]:
        with TraceStoreReader(path) as reader:
            assert run_on(reader.iter_blocks()) == run_on(memory)


class TestLegacyBytes:
    """Stores written before the key segment was sorted stay readable,
    through the memo in-memory blocks count their histogram in."""

    @pytest.mark.parametrize("name", LEGACY)
    def test_serves_what_memory_gives(self, name):
        path = DATA / name
        assert header_flags(path) == 1  # pair-order keys
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(path) as reader:
            assert not reader.histogram_rows
            assert reader.verify_blocks(strict=True) == 3
            assert_serves(reader, memory)
            for held, want in zip(reader.blocks(), memory):
                np.testing.assert_array_equal(
                    held.key_histogram()[1], want.key_histogram()[1]
                )
        with TraceStoreReader(path, verify=True) as reader:
            assert reader.n_blocks == 3
        assert_same_runs(path, memory)

    @pytest.mark.parametrize("name", LEGACY)
    def test_counted_from_the_columns(self, name, tmp_path, monkeypatch):
        """A legacy block's histogram goes through ``count_keys``; a
        sorted-segment block's never does."""
        calls = []
        real = blocks_module.count_keys
        monkeypatch.setattr(
            blocks_module, "count_keys", lambda keys: calls.append(1) or real(keys)
        )
        with TraceStoreReader(DATA / name) as reader:
            reader.block(1).key_histogram()
        assert calls == [1]
        path = write(tmp_path / "new.rptrace", *legacy_columns())
        assert header_flags(path) == 2  # sorted keys
        with TraceStoreReader(path) as reader:
            assert reader.histogram_rows
            for block in reader.iter_blocks():
                block.key_histogram()
        assert calls == [1]


class TestSortedZlibBytes:
    """A zlib store written before key segments were histograms — its
    key segments sorted keys under zlib — reads as it did, and so do one
    written before histograms were narrow rows and a raw store written
    before every store held narrow rows: counted from their columns."""

    def test_serves_what_memory_gives(self):
        self.assert_reads_as_written(SORTED_ZLIB, (1, 1, 1))

    def test_a_deflated_histogram_store_serves_what_memory_gives(self):
        self.assert_reads_as_written(DEFLATED_HISTOGRAM, (1, 1, 2))

    def test_a_raw_sorted_store_serves_what_memory_gives(self):
        self.assert_reads_as_written(RAW_SORTED, None)

    @pytest.mark.parametrize("name", SORTED_LEGACY)
    def test_counted_from_the_columns(self, name, monkeypatch):
        """A legacy sorted key segment is never read: each block's
        histogram goes through ``count_keys`` once, on a read pass and on
        verification alike."""
        calls, stored = [], []
        real = blocks_module.count_keys
        monkeypatch.setattr(
            blocks_module, "count_keys", lambda keys: calls.append(1) or real(keys)
        )
        real_stored = TraceStoreReader._stored
        monkeypatch.setattr(
            TraceStoreReader,
            "_stored",
            lambda self, entry, segment: stored.append(segment)
            or real_stored(self, entry, segment),
        )
        with TraceStoreReader(DATA / name, verify=True) as reader:
            assert reader.verify_blocks(strict=True) == 3
            for block in reader.iter_blocks():
                block.key_histogram()
                block.key_histogram()
        assert calls == [1, 1, 1] and 2 not in stored

    @staticmethod
    def assert_reads_as_written(name, codecs):
        """``codecs`` is each block's three segment codecs, or None for a
        version-1 store."""
        path = DATA / name
        assert header_flags(path) == 2  # sorted keys
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(path) as reader:
            if codecs is None:
                assert reader.version == 1
            else:
                assert segment_codecs(path) == [codecs] * 3
            assert not reader.histogram_rows
            assert reader.verify_blocks(strict=True) == 3
            assert_serves(reader, memory)
            for held, want in zip(reader.blocks(), memory):
                np.testing.assert_array_equal(
                    held.key_histogram()[1], want.key_histogram()[1]
                )
        with TraceStoreReader(path, verify=True) as reader:
            assert reader.n_blocks == 3
        assert_same_runs(path, memory)


class TestHistogramSegment:
    def test_a_zlib_store_writes_histograms(self, tmp_path, monkeypatch):
        """Segment 2 of a fresh zlib store is codec 3, and a block's key
        histogram reads neither column and counts nothing."""
        path = write(tmp_path / "new.rptrace", *legacy_columns())
        assert segment_codecs(path) == [(4, 4, 3)] * 3
        calls, segments = [], []
        real = blocks_module.count_keys
        monkeypatch.setattr(
            blocks_module, "count_keys", lambda keys: calls.append(1) or real(keys)
        )
        read_segment = TraceStoreReader._read_segment
        monkeypatch.setattr(
            TraceStoreReader,
            "_read_segment",
            lambda self, entry, segment: segments.append(segment)
            or read_segment(self, entry, segment),
        )
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(path) as reader:
            for block, want in zip(reader.iter_blocks(), memory):
                keys, counts = block.key_histogram()
                assert "_column_arrays" not in block.__dict__
                for got, oracle in zip(
                    (keys, counts), np.unique(want.packed_keys(), return_counts=True)
                ):
                    assert got.dtype == oracle.dtype and not got.flags.writeable
                    np.testing.assert_array_equal(got, oracle)
        assert calls == [] and segments == []

    def test_a_raw_store_writes_histograms(self, tmp_path):
        """Segment 2 of the committed raw store is codec 3 too, and a
        block's key histogram reads neither column; ``codec=None``
        writes a row index beside the same histograms."""
        path = write(tmp_path / "new.rptrace", *legacy_columns())
        assert segment_codecs(path) == [(4, 4, 3)] * 3
        assert segment_codecs(DATA / RAW_V2) == [(0, 0, 3)] * 3
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(DATA / RAW_V2) as reader:
            for block, want in zip(reader.iter_blocks(), memory):
                for got, oracle in zip(block.key_histogram(), want.key_histogram()):
                    np.testing.assert_array_equal(got, oracle)
                assert "_column_arrays" not in block.__dict__

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_a_one_pair_block_is_stored_as_rows(self, tmp_path, codec):
        """A one-pair block's histogram segment, 10 bytes, is longer than
        its 8 bytes of keys and is stored as rows all the same."""
        sources, repliers = legacy_columns()
        path = write(
            tmp_path / "t.rptrace", sources[:3], repliers[:3], block_size=1, codec=codec
        )
        assert [codecs[2] for codecs in segment_codecs(path)] == [3, 3, 3]
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 3
            for block, (s, r) in zip(reader.iter_blocks(), zip(sources, repliers)):
                keys, counts = block.key_histogram()
                assert (keys.tolist(), counts.tolist()) == ([s << 32 | r], [1])

    @pytest.mark.parametrize(
        "edge, widths",
        [
            (255, (1, 1, 1)),
            (256, (2, 2, 2)),
            (65_535, (2, 2, 2)),
            (65_536, (4, 4, 4)),
            (ID_MAX, (4, 4, 4)),
        ],
    )
    def test_ids_and_counts_on_each_side_of_a_plane_width(
        self, tmp_path, edge, widths
    ):
        """Ids 0 and ``edge``, and one key ``edge`` pairs deep (65,536
        at most), are stored in planes no wider than they need and read
        back as ``np.unique`` gives them."""
        depth = min(edge, 65_536)
        sources = np.array([0, 0, edge] + [edge] * depth)
        repliers = np.array([0, edge, 0] + [edge] * depth)
        order = np.random.default_rng(edge).permutation(len(sources))
        sources, repliers = sources[order], repliers[order]
        path = write(
            tmp_path / "t.rptrace",
            sources,
            repliers,
            block_size=len(sources),
        )
        assert segment_codecs(path) == [(4, 4, 3)]
        assert key_segment_widths(path) == widths
        memory = blocks_from_arrays(sources, repliers, block_size=len(sources))
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 1
            assert_serves(reader, memory)


class TestRowIndex:
    """A zlib store keeps each pair as its row of the block's histogram."""

    def test_keys_come_from_the_decoded_histogram(self, tmp_path, monkeypatch):
        """A zlib block reads its key segment once and its row index once,
        packs only the histogram's keys, and serves its keys without
        splitting them into columns; the columns are split when asked."""
        import repro.trace.store as store_module

        path = write(tmp_path / "z.rptrace", *legacy_columns())
        packs, stored = [], []
        real_pack = blocks_module.pack_keys
        for module in (blocks_module, store_module):
            monkeypatch.setattr(
                module,
                "pack_keys",
                lambda sources, repliers: packs.append(len(sources))
                or real_pack(sources, repliers),
            )
        real_stored = TraceStoreReader._stored
        monkeypatch.setattr(
            TraceStoreReader,
            "_stored",
            lambda self, entry, segment: stored.append(segment)
            or real_stored(self, entry, segment),
        )
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(path) as reader:
            for block, want in zip(reader.iter_blocks(), memory):
                histogram = want.key_histogram()
                packs.clear(), stored.clear()
                keys = block.packed_keys()
                assert "_column_arrays" not in block.__dict__
                assert not keys.flags.writeable
                np.testing.assert_array_equal(keys, want.packed_keys())
                for got, oracle in zip(block.key_histogram(), histogram):
                    np.testing.assert_array_equal(got, oracle)
                for got, oracle in zip(
                    (block.sources, block.repliers), (want.sources, want.repliers)
                ):
                    assert not got.flags.writeable
                    np.testing.assert_array_equal(got, oracle)
                assert sorted(stored) == [0, 2]
                assert packs == [len(histogram[0])]

    @pytest.mark.parametrize(
        "d, width", [(256, 1), (257, 2), (65_536, 2), (65_537, 4)]
    )
    def test_row_width_on_each_side_of_a_row_count(self, tmp_path, d, width):
        """A block of ``d`` distinct keys (one of them twice) stores each
        pair's row as narrow as numbering ``d`` rows allows."""
        sources = np.append(np.arange(d), 0)
        repliers = np.zeros(d + 1, dtype=np.int64)
        order = np.random.default_rng(d).permutation(d + 1)
        sources, repliers = sources[order], repliers[order]
        path = write(
            tmp_path / "t.rptrace", sources, repliers, block_size=d + 1
        )
        assert segment_codecs(path) == [(4, 4, 3)]
        assert row_index_width(path) == width
        memory = blocks_from_arrays(sources, repliers, block_size=d + 1)
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 1
            assert_serves(reader, memory)

    def test_a_parent_zlib_store_serves_what_raw_and_new_stores_serve(
        self, tmp_path
    ):
        """The release before row indexes deflated each column beside the
        codec-3 rows, and wrote them raw with ``codec=None``; those two
        stores and a row-indexed store of the same pairs give the same
        fingerprints, histograms, columns, strategy runs and streaming
        runs, and the row-indexed one is the smallest."""
        parent = DATA / ROWS_ZLIB
        raw = DATA / RAW_V2
        new = write(tmp_path / "new.rptrace", *legacy_columns())
        assert segment_codecs(parent) == [(1, 1, 3)] * 3
        assert segment_codecs(raw) == [(0, 0, 3)] * 3
        assert segment_codecs(new) == [(4, 4, 3)] * 3
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        for path in (parent, raw, new):
            with TraceStoreReader(path) as reader:
                assert reader.histogram_rows
                assert reader.verify_blocks(strict=True) == 3
                assert [b.fingerprint() for b in reader.iter_blocks()] == [
                    b.fingerprint() for b in memory
                ]
                assert_serves(reader, memory)
            assert_same_runs(path, memory)
        assert new.stat().st_size < min(parent.stat().st_size, raw.stat().st_size)


@st.composite
def traces(draw):
    """(sources, repliers, block_size) with the shapes a one-pass
    histogram can get wrong."""
    kinds = ["one key", "all distinct", "extreme ids", "width edges", "mixed"]
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one key":
        sources = np.full(n, draw(st.sampled_from([0, 7, ID_MAX])))
        repliers = np.full(n, draw(st.sampled_from([0, 9, ID_MAX])))
    elif kind == "all distinct":
        sources = rng.integers(0, 4, n)
        repliers = rng.permutation(n) + draw(st.sampled_from([0, ID_MAX - n + 1]))
    elif kind == "extreme ids":
        sources = rng.choice([0, 1, ID_MAX - 1, ID_MAX], n)
        repliers = rng.choice([0, 1, ID_MAX - 1, ID_MAX], n)
    elif kind == "width edges":
        edges = [0, 1, 255, 256, 65_535, 65_536, ID_MAX]
        sources = rng.choice(edges, n)
        repliers = rng.choice(edges, n)
    else:
        sources = rng.integers(0, 6, n)
        repliers = 100 + (sources + rng.integers(0, 3, n)) % 5
    block_size = draw(st.one_of(st.just(1), st.integers(1, n + 20)))
    return sources.astype(np.int64), repliers.astype(np.int64), block_size


class TestHistogramDifferential:
    @settings(max_examples=80, deadline=None)
    @given(trace=traces(), codec=st.sampled_from([None, "zlib"]))
    def test_store_blocks_equal_memory_blocks(self, trace, codec):
        sources, repliers, block_size = trace
        memory = blocks_from_arrays(
            sources, repliers, block_size=block_size, drop_partial=False
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = write(
                Path(tmp) / "t.rptrace",
                sources,
                repliers,
                block_size=block_size,
                codec=codec,
            )
            with TraceStoreReader(path) as reader:
                assert reader.histogram_rows
                assert reader.verify_blocks(strict=True) == len(memory)
                assert_serves(reader, memory)
                disk = list(reader.iter_blocks())  # fresh: nothing read yet
                rules = generate_ruleset(memory[0], min_support_count=1)
                assert list(generate_ruleset(disk[0], min_support_count=1)) == list(
                    rules
                )
                for got, want in zip(disk, memory):
                    assert ruleset_test_random_subset(
                        rules, got, k=1, rng=np.random.default_rng(5)
                    ) == ruleset_test_random_subset(
                        rules, want, k=1, rng=np.random.default_rng(5)
                    )
                    # a finer tier first, the store block as the coarse one
                    fine = PairBlock(want.sources // 2, want.repliers, index=want.index)
                    fine_rules = generate_ruleset(fine, min_support_count=3)
                    assert ruleset_test_fallback(
                        [(fine_rules, fine), (rules, got)]
                    ) == ruleset_test_fallback([(fine_rules, fine), (rules, want)])
            if len(memory) >= 2:
                assert_same_runs(path, memory)


def forge(path, codec, monkeypatch, *, footer=True):
    """A 3-block store whose block 1 key segment is sorted and in range
    but holds {3} -> {4} a hundred times, not the block's keys."""
    import repro.trace.blocks as blocks_module

    real = blocks_module.pack_keys
    packed = []

    def forging(sources, repliers):
        keys = real(sources, repliers)
        packed.append(1)
        return np.full_like(keys, (3 << 32) | 4) if len(packed) == 2 else keys

    with monkeypatch.context() as patch:
        patch.setattr(blocks_module, "pack_keys", forging)
        write(path, *legacy_columns(), codec=codec, footer=footer)
    return path


class TestIntegrity:
    """If verification passes, every rule is the columns' rule."""

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_forged_sorted_segment_fails_verification(
        self, tmp_path, codec, monkeypatch
    ):
        footered = forge(tmp_path / "a.rptrace", codec, monkeypatch)
        with TraceStoreReader(footered) as reader:
            # the read pass cannot tell: the segment is a valid histogram
            assert generate_ruleset(reader.block(1), min_support_count=5).matches(3, 4)
            assert reader.verify_blocks() == 1
            with pytest.raises(TraceStoreCorruption, match="block 1"):
                reader.verify_blocks(strict=True)
        with TraceStoreReader(footered, verify=True) as reader:
            assert reader.n_blocks == 1
        footerless = forge(tmp_path / "b.rptrace", codec, monkeypatch, footer=False)
        with TraceStoreReader(footerless) as reader:
            assert reader.recovered and reader.n_blocks == 1

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_a_forged_memo_never_reaches_the_segment(self, tmp_path, codec):
        sources, repliers = legacy_columns()
        block = PairBlock(sources[:100], repliers[:100])
        object.__setattr__(
            block, "_packed_keys", np.full(100, (3 << 32) | 4, dtype=np.int64)
        )
        path = tmp_path / "t.rptrace"
        with TraceStoreWriter(path, block_size=100, codec=codec) as writer:
            writer.append_block(block)
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 1
            keys, _ = reader.block(0).key_histogram()
            np.testing.assert_array_equal(
                keys, np.unique((sources[:100] << 32) | repliers[:100])
            )


#: every committed store of :func:`legacy_columns`.
COMMITTED = (*LEGACY, *SORTED_LEGACY, ROWS_ZLIB, RAW_V2)


class TestLifetime:
    @pytest.mark.parametrize(
        "name", [None, "zlib", *LEGACY, *sorted(set(COMMITTED) - set(LEGACY))]
    )
    def test_first_touch_after_close_raises(self, tmp_path, name):
        """A segment first asked for after close() raises; what blocks()
        read before it — keys, and a legacy block's columns — stays
        valid, and a row-indexed block splits its columns from its keys
        without the file."""
        path = (
            DATA / name
            if name in COMMITTED
            else write(tmp_path / "t.rptrace", *legacy_columns(), codec=name)
        )
        reader = TraceStoreReader(path)
        touches = {
            "sources": lambda block: block.sources,
            "repliers": lambda block: block.repliers,
            "packed_keys": lambda block: block.packed_keys(),
            "key_histogram": lambda block: block.key_histogram(),
        }
        untouched = {what: reader.block(0) for what in touches}
        held = reader.blocks()
        reader.close()
        for what, touch in touches.items():
            with pytest.raises(TraceStoreError, match="closed"):
                touch(untouched[what])
        assert len(untouched["sources"]) == 100  # the index entry's
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        for block, want in zip(held, memory):
            np.testing.assert_array_equal(block.packed_keys(), want.packed_keys())
            np.testing.assert_array_equal(block.sources, want.sources)
            np.testing.assert_array_equal(block.repliers, want.repliers)
        if name in (RAW_V2, ROWS_ZLIB):  # blocks() read the columns, not segment 2
            with pytest.raises(TraceStoreError, match="closed"):
                held[0].key_histogram()
        else:
            np.testing.assert_array_equal(
                held[0].key_histogram()[1], memory[0].key_histogram()[1]
            )

    def test_a_block_keeps_its_reader_open(self, tmp_path):
        """A block whose reader nobody else holds still reads: it holds
        the reader, so nothing is unmapped under it."""
        sources, repliers = legacy_columns()
        path = write(tmp_path / "t.rptrace", sources, repliers, codec=None)
        block = TraceStoreReader(path).block(2)
        gc.collect()
        keys, counts = block.key_histogram()
        assert counts.sum() == 100
        np.testing.assert_array_equal(block.sources, sources[200:])
