"""Tests for repro.trace.blocks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.blocks as blocks_module
from repro.trace.blocks import (
    ID_LIMIT,
    PairBlock,
    blocks_from_arrays,
    key_order,
    pack_keys,
    partition_pairs,
)
from repro.trace.capture import PairLog
from repro.trace.records import QueryReplyPair
from repro.trace.store import TraceStoreReader, TraceStoreWriter


class TestPairBlock:
    def test_len(self, small_block):
        assert len(small_block) == 10

    def test_pairs_matrix(self, small_block):
        pairs = small_block.pairs()
        assert pairs.shape == (10, 2)
        assert pairs[0].tolist() == [1, 10]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PairBlock(
                sources=np.array([1, 2], dtype=np.int64),
                repliers=np.array([1], dtype=np.int64),
            )

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            PairBlock(
                sources=np.zeros((2, 2), dtype=np.int64),
                repliers=np.zeros((2, 2), dtype=np.int64),
            )


class TestPairBlockMemoization:
    def test_packed_keys_values_and_reuse(self, small_block):
        keys = small_block.packed_keys()
        np.testing.assert_array_equal(
            keys, (small_block.sources << np.int64(32)) | small_block.repliers
        )
        assert small_block.packed_keys() is keys  # computed once

    def test_key_histogram_is_np_unique(self, small_block):
        keys, counts = small_block.key_histogram()
        want_keys, want_counts = np.unique(
            small_block.packed_keys(), return_counts=True
        )
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(
            keys[small_block.key_inverse()], small_block.packed_keys()
        )
        assert small_block.key_histogram() is small_block.key_histogram()
        assert small_block.key_inverse() is small_block.key_inverse()

    @pytest.mark.parametrize("where", ["memory", "store"])
    def test_memos_are_read_only(self, small_block, tmp_path, where):
        """A write into a memo would change what every later caller mines
        or tests from the block, so none can be written."""
        from repro.core.generation import generate_ruleset
        from repro.trace.store import TraceStoreReader, TraceStoreWriter

        block = small_block
        if where == "store":
            with TraceStoreWriter(tmp_path / "t.rptrace", block_size=10) as writer:
                writer.append_block(small_block)
            reader = TraceStoreReader(tmp_path / "t.rptrace")
            block = reader.block(0)
        before = list(generate_ruleset(block, min_support_count=1))
        for memo in (
            block.packed_keys,
            lambda: block.key_histogram()[0],
            lambda: block.key_histogram()[1],
            lambda: block.key_inverse(),
        ):
            memo = memo()
            assert not memo.flags.writeable
            with pytest.raises(ValueError):
                memo[:] = (7 << 32) | 9
        assert list(generate_ruleset(block, min_support_count=1)) == before

    def test_validate_ids_scans_once(self, small_block, monkeypatch):
        import repro.trace.blocks as blocks_module

        calls = []
        real_scan = blocks_module.scan_id_range
        monkeypatch.setattr(
            blocks_module,
            "scan_id_range",
            lambda *args: calls.append(1) or real_scan(*args),
        )
        small_block.validate_ids()
        small_block.validate_ids()
        small_block.validate_ids()
        assert len(calls) == 1

    def test_validate_ids_rejects_out_of_range(self):
        from repro.trace.blocks import ID_LIMIT

        bad = PairBlock(
            sources=np.array([ID_LIMIT], dtype=np.int64),
            repliers=np.array([1], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            bad.validate_ids()
        with pytest.raises(ValueError):
            PairBlock(
                sources=np.array([1], dtype=np.int64),
                repliers=np.array([-1], dtype=np.int64),
            ).validate_ids()

    def test_fingerprint_is_content_addressed(self, small_block):
        clone = PairBlock(
            sources=small_block.sources.copy(),
            repliers=small_block.repliers.copy(),
            index=99,  # index is metadata, not content
        )
        assert clone.fingerprint() == small_block.fingerprint()
        changed = PairBlock(
            sources=small_block.sources.copy(),
            repliers=np.where(
                np.arange(len(small_block)) == 3, 77, small_block.repliers
            ).astype(np.int64),
        )
        assert changed.fingerprint() != small_block.fingerprint()

    def test_fingerprint_distinguishes_column_roles(self):
        """Swapping sources and repliers must change the fingerprint."""
        a = PairBlock(
            sources=np.array([1, 2], dtype=np.int64),
            repliers=np.array([3, 4], dtype=np.int64),
        )
        b = PairBlock(
            sources=np.array([3, 4], dtype=np.int64),
            repliers=np.array([1, 2], dtype=np.int64),
        )
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_memoized(self, small_block):
        assert small_block.fingerprint() is small_block.fingerprint()


class TestKeyInverse:
    """``key_inverse()`` is each pair's row of ``key_histogram()``, in the
    narrowest unsigned dtype: one sort for an in-memory block, the
    decoded row index for a store block."""

    @staticmethod
    def blocks(tmp_path, n_keys, n_pairs):
        """An in-memory block of ``n_pairs`` pairs over exactly ``n_keys``
        distinct keys, the same block with its histogram counted first,
        and the block read back from a store."""
        rng = np.random.default_rng(n_keys)
        picks = np.concatenate(
            (np.arange(n_keys), rng.integers(0, n_keys, n_pairs - n_keys))
        )
        rng.shuffle(picks)
        sources, repliers = picks // 7 + 3, 2**31 - 1 - picks % 7
        memory = PairBlock(sources, repliers)
        counted = PairBlock(sources, repliers)
        counted.key_histogram()
        with TraceStoreWriter(tmp_path / "t.rptrace", block_size=n_pairs) as writer:
            writer.append_block(memory)
        reader = TraceStoreReader(tmp_path / "t.rptrace")
        return reader, (memory, counted, reader.block(0))

    @pytest.mark.parametrize(
        "n_keys, n_pairs, width",
        [(1, 1, 1), (1, 40, 1), (256, 600, 1), (257, 600, 2), (3000, 10_000, 2)],
    )
    def test_it_is_the_search_of_the_packed_keys(
        self, tmp_path, n_keys, n_pairs, width
    ):
        reader, blocks = self.blocks(tmp_path, n_keys, n_pairs)
        with reader:
            assert next(reader.describe_blocks())["width"] == width
            for block in blocks:
                inverse = block.key_inverse()
                keys, _ = block.key_histogram()
                assert inverse.dtype == np.dtype(f"u{width}")
                assert not inverse.flags.writeable
                assert block.key_inverse() is inverse
                np.testing.assert_array_equal(
                    inverse, np.searchsorted(keys, block.packed_keys())
                )
                for got, want in zip(
                    block.key_histogram(),
                    np.unique(block.packed_keys(), return_counts=True),
                ):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)

    def test_an_in_memory_block_sorts_once(self, monkeypatch):
        """Asked for its inverse first, a block counts its histogram in
        the same sort; asked for its histogram first, it sorts again only
        for the inverse."""
        calls = []
        for name in ("count_keys", "rank_keys"):
            real = getattr(blocks_module, name)
            monkeypatch.setattr(
                blocks_module,
                name,
                lambda keys, name=name, real=real: calls.append(name) or real(keys),
            )
        block = PairBlock(np.array([4, 2, 4, 2, 4]), np.array([1, 1, 1, 9, 1]))
        block.key_inverse()
        block.key_histogram()
        assert calls == ["rank_keys"]
        block = PairBlock(np.array([4, 2, 4, 2, 4]), np.array([1, 1, 1, 9, 1]))
        block.key_histogram()
        block.key_inverse()
        assert calls == ["rank_keys", "count_keys", "rank_keys"]

    def test_a_store_block_reads_its_row_index_once(self, tmp_path, monkeypatch):
        segments = []
        real = TraceStoreReader._stored
        monkeypatch.setattr(
            TraceStoreReader,
            "_stored",
            lambda self, entry, segment: segments.append(segment)
            or real(self, entry, segment),
        )
        reader, (_memory, _counted, block) = self.blocks(tmp_path, 300, 900)
        with reader:
            block.key_inverse()
            block.packed_keys()
            block.sources
            block.key_inverse()
        assert segments == [1, 0]


@st.composite
def packed_keys(draw):
    """Packed keys drawn from a pool of 1 to ``n`` distinct keys, so ties
    run from all equal to none.  Ids span 4 values, 2**17 (the paper's
    trace), 2**24 or up to the id limit, and up to 40,000 keys: so the
    sort of keys less the smallest, of ids less theirs, and the timsort
    all run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 300), st.just(40_000)))
    high = draw(st.sampled_from([3, 2**17, 2**24, ID_LIMIT - 1]))
    low = draw(st.sampled_from([0, high // 2, high]))
    size = draw(st.integers(1, max(n, 1)))
    pool = pack_keys(
        rng.integers(low, high, size=size, endpoint=True),
        rng.integers(low, high, size=size, endpoint=True),
    )
    return pool[rng.integers(0, len(pool), size=n)]


@settings(max_examples=150, deadline=None)
@given(packed_keys())
def test_key_order_is_the_stable_argsort(keys):
    np.testing.assert_array_equal(key_order(keys), np.argsort(keys, kind="stable"))


class TestBlocksFromArrays:
    def test_partition_sizes(self):
        sources = np.arange(25, dtype=np.int64)
        blocks = blocks_from_arrays(sources, sources, block_size=10)
        assert [len(b) for b in blocks] == [10, 10]  # partial dropped

    def test_keep_partial(self):
        sources = np.arange(25, dtype=np.int64)
        blocks = blocks_from_arrays(sources, sources, block_size=10, drop_partial=False)
        assert [len(b) for b in blocks] == [10, 10, 5]

    def test_block_indices_sequential(self):
        sources = np.arange(30, dtype=np.int64)
        blocks = blocks_from_arrays(sources, sources, block_size=10)
        assert [b.index for b in blocks] == [0, 1, 2]

    def test_contents_preserved_in_order(self):
        sources = np.arange(20, dtype=np.int64)
        repliers = sources + 100
        blocks = blocks_from_arrays(sources, repliers, block_size=10)
        np.testing.assert_array_equal(blocks[1].sources, sources[10:])
        np.testing.assert_array_equal(blocks[1].repliers, repliers[10:])

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            blocks_from_arrays(np.array([1]), np.array([1]), block_size=0)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            blocks_from_arrays(np.array([1, 2]), np.array([1]), block_size=1)

    @given(st.integers(0, 100), st.integers(1, 17))
    def test_no_pair_lost_when_keeping_partial(self, n, block_size):
        sources = np.arange(n, dtype=np.int64)
        blocks = blocks_from_arrays(
            sources, sources, block_size=block_size, drop_partial=False
        )
        total = sum(len(b) for b in blocks)
        assert total == n


class TestPartitionPairs:
    def test_from_pair_table(self):
        pairs = PairLog.from_records(
            QueryReplyPair(i, float(i), i % 3, "q", float(i), 100 + i % 2, 0)
            for i in range(12)
        )
        blocks = partition_pairs(pairs, block_size=5)
        assert len(blocks) == 2
        assert blocks[0].sources.tolist() == [0, 1, 2, 0, 1]
        assert blocks[0].repliers.tolist() == [100, 101, 100, 101, 100]
