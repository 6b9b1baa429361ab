"""A store block's key histogram, decoded from its histogram segment, and
a store block's keys, each pair's row of it.

Every store is version 3: after the file header, each block is a 40-byte
header (pairs, fingerprint, the two segments' stored lengths) and then
its two segments — the index segment (codec 4), each pair's row of the
block's key histogram, 1, 2 or 4 bytes wide; and the histogram segment
(codec 3), the key histogram as narrow rows — and a 24-byte trailer
counts the blocks and pairs.  Opening walks the block headers once from
byte 32, each placing the next, and the store is closed only where the
walk ends exactly at a trailer that agrees.  A block's
``key_histogram()`` is one checked decode of its histogram segment and
its ``packed_keys()`` are that histogram's keys at its index rows.  A
store in any other form — the committed ``data/parent_*.rptrace``, the
300 pairs of :func:`legacy_columns` as earlier releases wrote them — is
refused when it is opened
(``tests/test_decoder_wall.py::test_a_legacy_store_is_refused``).  Here:

* a fresh store writes the histogram segment, one pair blocks included,
  and a block's ``key_histogram()`` reads no column; the index segment
  is 1, 2 or 4 bytes a pair whether ``codec`` is None or ``"zlib"``, and
  a block decodes its histogram once for its histogram, keys and columns
  alike, and serves its keys without splitting a column;
* on hypothesis-drawn columns — one distinct key, all keys distinct, a
  1-pair block, a short tail block, ids 0 and 2**31 - 1, ids on each
  side of a plane width (255/256, 65,535/65,536) —
  a store block's histogram is ``np.unique``'s bit for bit, and the four
  strategies, ``ruleset_test_random_subset`` and a two-tier
  ``ruleset_test_fallback`` agree with the in-memory blocks;
* a histogram segment that is a valid histogram but not the columns'
  fails ``verify_blocks``, ``verify=True`` and the open of a store
  without a trailer;
* a block first touched after its reader's ``close()`` raises
  :class:`TraceStoreError`, and what :meth:`TraceStoreReader.blocks`
  read stays valid.

``tests/test_decoder_wall.py`` edits the histogram segment so that it
cannot be a block's histogram, and the index segment and its layout so
that it cannot index it, and every such edit must fail the read.  Each
mutant of ``src/repro/trace/store.py`` below was run in a scratch copy,
and the tests named beside it fail on it (``rows`` is
``test_decoder_wall.py::test_a_rows_segment_edit_raises``, ``index``
its ``test_an_index_segment_edit_raises``, ``refused`` its
``test_a_legacy_store_is_refused``):

* the writer's keys taken from the block's ``packed_keys()`` memo
  instead of packed from the columns —
  ``test_store.py::TestPackedSegmentIgnored`` and
  ``TestIntegrity::test_a_forged_memo_never_reaches_the_segment``;
* the CRC check dropped from the histogram decoder — ``rows`` on
  ``flipped byte``, and ``test_cli.py::TestTraceEvalCli`` on a corrupt
  segment (every ``extra``);
* its width check dropped — ``rows`` on ``width 0``, ``width 3`` and
  ``width 8``; its whole-rows check — ``partial row``; its row-count
  check — ``zero rows`` and ``more rows than pairs``;
* the shared check's key order dropped — ``rows`` on ``repeated key``,
  ``falling replier`` and ``source half 2**31``;
* its replier check dropped — ``rows`` on ``replier half 2**31``;
* its counts checked by their sum alone — ``rows`` on ``zero count``;
  its whole counts check dropped — that and ``counts sum past the
  block``;
* the version check dropped — every ``refused`` case,
  ``test_store.py::TestRoundTrip::test_without_packed_segment`` and each
  ``test_cache.py::TestRebuild`` test of a cache that is rewritten once;
* a trailer trusted without its pair total —
  ``test_decoder_wall.py::test_a_footer_that_miscounts_a_block_is_not_trusted[v2-50]``;
  without its block count —
  ``test_a_footer_that_skips_a_block_is_not_trusted[v2]``; a walk that
  keeps a header whose stored lengths run past the file —
  ``test_store.py::TestCompression::test_stored_length_past_the_file_is_corruption``
  at the largest length; a walk that reads a block header twice —
  ``TestCompression::test_a_footer_store_reads_each_block_header_once``;
* the writer's 2**32-pair checks dropped —
  ``test_store.py::TestCompression::test_blocks_of_2_to_the_32_pairs_are_refused``;
* the index decoder's ``bincount`` check dropped — ``index`` on
  ``counts disagree``; its ``row < d`` check dropped — ``index`` on
  ``row equal to d``; its CRC check — ``index`` on ``rows swapped under
  the old CRC`` and ``test_cli.py::TestTraceInspectCli`` on a corrupt
  block; its width check — ``index`` on ``width 0``, ``width 3`` and
  ``width 8``; its length check allowing a long plane — ``long plane``;
* a block's keys split into columns and packed again —
  ``TestRowIndex::test_keys_come_from_the_decoded_histogram``;
* a block's histogram decoded a second time for its keys —
  ``TestRowIndex::test_keys_come_from_the_decoded_histogram``;
* a reader that seeks and then reads —
  ``test_store.py::TestForkedReader::test_forked_workers_read_their_own_bytes``;
* the closed check dropped from the reader's one positional read —
  ``TestLifetime::test_keys_first_asked_after_close_raise_the_typed_error``
  and both ``test_first_touch_after_close_raises``.
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
#: raw columns (segment codec 0) beside codec-3 rows, not a row index.
RAW_V2 = "parent_v2_raw.rptrace"
STRATEGIES = (StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow)
ID_MAX = 2**31 - 1


def legacy_columns():
    """The 300 pairs the committed legacy stores hold, in any layout."""
    rng = np.random.default_rng(31)
    sources = rng.integers(0, 12, 300)
    repliers = 100 + (sources + rng.integers(0, 3, 300)) % 8
    return sources, repliers


def stored_lengths(path):
    """Each block's two stored lengths (index, histogram), walked from
    the raw bytes of a closed version-3 store: a 32-byte header, then
    40-byte block headers each followed by its segments, then a 24-byte
    trailer."""
    data = Path(path).read_bytes()
    assert struct.unpack_from("<Q", data, 8) == (3,)
    lengths, offset = [], 32
    while offset < len(data) - 24:
        lengths.append(struct.unpack_from("<2Q", data, offset + 24))
        offset += 40 + sum(lengths[-1])
    assert offset == len(data) - 24
    return lengths


def key_segment_widths(path):
    """Block 0's three plane widths, of its codec-3 histogram segment."""
    data = Path(path).read_bytes()
    (index, _histogram) = struct.unpack_from("<2Q", data, 56)
    return tuple(data[72 + index + 4 : 72 + index + 7])


def row_index_width(path):
    """Block 0's row width, of its codec-4 index segment."""
    return Path(path).read_bytes()[72 + 4]


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


class TestHistogramSegment:
    def test_a_zlib_store_writes_histograms(self, tmp_path, monkeypatch):
        """Segment 2 of a fresh zlib store is codec 3, and a block's key
        histogram reads neither column and counts nothing."""
        path = write(tmp_path / "new.rptrace", *legacy_columns())
        assert len(stored_lengths(path)) == 3
        calls, segments = [], []
        real = blocks_module.count_keys
        monkeypatch.setattr(
            blocks_module, "count_keys", lambda keys: calls.append(1) or real(keys)
        )
        real_stored = TraceStoreReader._stored
        monkeypatch.setattr(
            TraceStoreReader,
            "_stored",
            lambda self, entry, segment: segments.append(segment)
            or real_stored(self, entry, segment),
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
        assert calls == [] and segments == [1, 1, 1]

    def test_a_raw_store_writes_histograms(self, tmp_path):
        """``codec=None`` writes a row index beside the histograms, and a
        block's key histogram reads neither column; the committed raw
        store, whose columns were raw beside the same histograms, is
        refused."""
        path = write(tmp_path / "new.rptrace", *legacy_columns(), codec=None)
        assert len(stored_lengths(path)) == 3
        with pytest.raises(TraceStoreError, match="repro tracegen"):
            TraceStoreReader(DATA / RAW_V2)
        memory = blocks_from_arrays(*legacy_columns(), block_size=100)
        with TraceStoreReader(path) as reader:
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
        assert stored_lengths(path) == [(6, 10)] * 3
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
        assert len(stored_lengths(path)) == 1
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
                assert sorted(stored) == [0, 1]
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
        assert len(stored_lengths(path)) == 1
        assert row_index_width(path) == width
        memory = blocks_from_arrays(sources, repliers, block_size=d + 1)
        with TraceStoreReader(path) as reader:
            assert reader.verify_blocks(strict=True) == 1
            assert_serves(reader, memory)


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
            assert len(stored_lengths(path)) == len(memory)
            with TraceStoreReader(path) as reader:
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


class TestLifetime:
    @pytest.mark.parametrize("name", [None, "zlib"])
    def test_first_touch_after_close_raises(self, tmp_path, name):
        """A segment first asked for after close() raises; what blocks()
        read before it — keys and histogram — stays valid, and a block
        splits its columns from its keys without the file."""
        path = write(tmp_path / "t.rptrace", *legacy_columns(), codec=name)
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
        np.testing.assert_array_equal(
            held[0].key_histogram()[1], memory[0].key_histogram()[1]
        )

    def test_keys_first_asked_after_close_raise_the_typed_error(self, tmp_path):
        """A block that decoded its histogram before close() and asks for
        its row index after it gets the typed error, not an error from a
        file handle that is gone."""
        path = write(tmp_path / "t.rptrace", *legacy_columns())
        reader = TraceStoreReader(path)
        block = reader.block(1)
        block.key_histogram()
        reader.close()
        with pytest.raises(TraceStoreError, match="closed"):
            block.packed_keys()

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
