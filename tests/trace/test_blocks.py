"""Tests for repro.trace.blocks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.blocks import PairBlock, blocks_from_arrays, partition_pairs
from repro.trace.capture import PairLog
from repro.trace.records import QueryReplyPair


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
