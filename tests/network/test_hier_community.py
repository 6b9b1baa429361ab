"""Tests for repro.network.community."""

import numpy as np
import pytest

from repro.network.community import CommunityIndex


def _index(n=4):
    idx = CommunityIndex(n)
    idx.attach(0, 0, frozenset({10, 11}))
    idx.attach(1, 0, frozenset({11, 12}))
    idx.attach(2, 1, frozenset({20}))
    return idx


class TestMembership:
    def test_validation(self):
        with pytest.raises(ValueError):
            CommunityIndex(0)

    def test_attach_and_lookup(self):
        idx = _index()
        assert idx.superpeer_of(0) == 0
        assert idx.members(0) == [0, 1]
        assert idx.load(0) == 2
        assert sorted(idx.lookup(0, 11)) == [0, 1]
        assert idx.lookup(0, 20) == []
        assert idx.lookup(1, 20) == [2]
        assert idx.index_size(0) == 4

    def test_double_attach_rejected(self):
        idx = _index()
        with pytest.raises(ValueError):
            idx.attach(0, 1, frozenset())

    def test_attach_to_dead_superpeer_rejected(self):
        idx = _index()
        idx.kill(1)
        with pytest.raises(ValueError):
            idx.attach(9, 1, frozenset())


class TestFailure:
    def test_kill_orphans_and_drops_index(self):
        idx = _index()
        assert idx.kill(0) == [0, 1]
        assert not idx.is_live(0)
        assert idx.members(0) == []
        assert idx.lookup(0, 11) == []
        assert idx.live_superpeers() == [1, 2, 3]
        assert idx.kill(0) == []  # already dead

    def test_reattach_least_loaded_deterministic(self):
        idx = _index()
        orphans = idx.kill(0)
        placement = idx.reattach(orphans)
        # Loads before: sp1=1, sp2=0, sp3=0.  Leaf 0 -> sp2 (ties by
        # lowest id), leaf 1 -> sp3 (loads update as orphans land).
        assert placement == {0: 2, 1: 3}
        assert idx.superpeer_of(0) == 2
        assert idx.lookup(2, 11) == [0]
        assert idx.lookup(3, 12) == [1]

    def test_reattach_requires_live_superpeer(self):
        idx = CommunityIndex(1)
        idx.attach(0, 0, frozenset({1}))
        orphans = idx.kill(0)
        with pytest.raises(ValueError):
            idx.reattach(orphans)

    def test_reattach_replayable(self):
        a, b = _index(), _index()
        assert a.reattach(a.kill(0)) == b.reattach(b.kill(0))


class TestIdRanges:
    """An id outside its range is refused by name, before anything
    changes; a negative one used to alias the last super-peer."""

    @pytest.mark.parametrize("superpeer", [-1, 4])
    def test_attach_refuses_a_superpeer_out_of_range(self, superpeer):
        idx = CommunityIndex(4)
        with pytest.raises(IndexError, match=rf"{superpeer} out of range \[0, 4\)"):
            idx.attach(0, superpeer, frozenset({1}))
        assert [idx.members(sp) for sp in range(4)] == [[], [], [], []]
        assert idx.holders(1).tolist() == []
        idx.attach(0, 3, frozenset({1}))  # leaf 0 was left unattached
        assert idx.superpeer_of(0) == 3

    def test_attach_refuses_a_negative_leaf(self):
        idx = _index()
        with pytest.raises(IndexError, match="-1"):
            idx.attach(-1, 0, frozenset({1}))
        assert idx.members(0) == [0, 1]

    @pytest.mark.parametrize("file_id", [-1, 2**31])
    def test_attach_refuses_a_file_the_buffer_cannot_hold(self, file_id):
        idx = _index()
        with pytest.raises(ValueError, match="file id"):
            idx.attach(7, 1, frozenset({5, file_id}))
        assert idx.members(1) == [2] and idx.index_size(1) == 1
        with pytest.raises(IndexError):
            idx.superpeer_of(7)  # not even known
        idx.attach(7, 1, frozenset({5, 2**31 - 1}))
        assert idx.lookup(1, 2**31 - 1) == [7]
        assert idx.holders(2**31 - 1).tolist() == [1]

    def test_attach_refuses_a_file_id_that_is_not_an_integer(self):
        idx = _index()
        with pytest.raises(TypeError):
            idx.attach(7, 1, [5, 1.5])
        with pytest.raises(TypeError, match="integers"):
            idx.attach_block(1, [7], np.array([[5.0, 1.5]]))
        assert idx.members(1) == [2] and idx.index_size(1) == 1

    def test_attach_block_is_one_attach_per_leaf(self):
        """Rows with repeats and unsorted draws, leaves past the buffers,
        an empty library: the same buffers as leaf-by-leaf attaches."""
        one_by_one, block = _index(), _index()
        libraries = np.array([[9, 3, 3, 7], [4, 4, 4, 4], [0, 12, 5, 12]])
        leaves = [5, 3, 9]
        for leaf, library in zip(leaves, libraries.tolist()):
            one_by_one.attach(leaf, 2, library)
        block.attach_block(2, leaves, libraries)
        for name in ("_home", "_start", "_stop", "_files"):
            assert getattr(block, name) == getattr(one_by_one, name)
        assert block.members(2) == one_by_one.members(2) == leaves
        assert block.lookup(2, 12) == [9]
        block.attach_block(3, [11], np.empty((1, 0), np.int64))
        assert block.library(11) == frozenset()

    def test_attach_block_refuses_a_repeated_or_attached_leaf_whole(self):
        idx = _index()
        for leaves in ([4, 4], [4, 0]):
            with pytest.raises(ValueError, match="already attached"):
                idx.attach_block(2, leaves, np.array([[1], [2]]))
        with pytest.raises(ValueError, match="one row per leaf"):
            idx.attach_block(2, [4, 5], np.array([[1]]))
        assert idx.members(2) == [] and len(idx._files) == 5

    @pytest.mark.parametrize("superpeer", [-1, 4])
    @pytest.mark.parametrize("call", ["lookup", "count"])
    def test_lookup_and_count_refuse_a_superpeer_out_of_range(self, call, superpeer):
        idx = _index()
        idx.attach(3, 3, frozenset({20}))
        with pytest.raises(IndexError, match=rf"{superpeer} out of range \[0, 4\)"):
            getattr(idx, call)(superpeer, 20)

    @pytest.mark.parametrize("superpeer", [-1, 4])
    def test_kill_refuses_a_superpeer_out_of_range(self, superpeer):
        idx = _index()
        with pytest.raises(IndexError, match=rf"{superpeer} out of range \[0, 4\)"):
            idx.kill(superpeer)
        assert idx.live_superpeers() == [0, 1, 2, 3]

    @pytest.mark.parametrize("superpeer", [-1, 4])
    def test_is_live_refuses_a_superpeer_out_of_range(self, superpeer):
        with pytest.raises(IndexError, match=rf"{superpeer} out of range \[0, 4\)"):
            _index().is_live(superpeer)

    def test_leaves_and_files_past_the_population_grow_the_buffers(self):
        idx = _index()
        idx.attach(40, 2, frozenset({10**6}))
        assert idx.superpeer_of(40) == 2
        assert idx.library(40) == frozenset({10**6})
        assert idx.holders(10**6).tolist() == [2]
        with pytest.raises(KeyError):
            idx.superpeer_of(39)  # in range, never attached
        assert idx.library(39) == frozenset()
