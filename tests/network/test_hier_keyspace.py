"""Tests for repro.network.hier.keyspace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.hier.keyspace import (
    KEY_BITS,
    KBucketTable,
    category_key,
    node_key,
    xor_distance,
)

from .reference_hier import reference_closer_than, reference_insert_all
from .reference_keyspace import ReferenceKBucketTable

key_ints = st.integers(0, (1 << KEY_BITS) - 1)
HALF = 1 << (KEY_BITS - 1)


class TestKeys:
    def test_deterministic(self):
        assert node_key(7) == node_key(7)
        assert category_key(7) == category_key(7)

    def test_node_and_category_spaces_disjoint(self):
        # Same integer id, different kind prefix -> different key.
        for value in range(50):
            assert node_key(value) != category_key(value)

    def test_fits_keyspace(self):
        for value in range(200):
            assert 0 <= node_key(value) < 1 << KEY_BITS

    @given(key_ints, key_ints)
    def test_xor_metric(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, a) == 0
        assert (xor_distance(a, b) == 0) == (a == b)

    @given(key_ints, key_ints, key_ints)
    def test_xor_triangle(self, a, b, c):
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)


class TestKBucketTable:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            KBucketTable(0, k=0)

    def test_insert_and_contains(self):
        table = KBucketTable(0)
        assert table.insert(1)
        assert 1 in table
        assert 0 not in table  # never buckets its owner
        assert len(table) == 1

    def test_insert_owner_noop(self):
        table = KBucketTable(3)
        assert not table.insert(3)
        assert len(table) == 0

    def test_reinsert_is_idempotent(self):
        table = KBucketTable(0)
        table.insert(1)
        assert table.insert(1)  # already known -> True, no duplicate
        assert len(table) == 1

    def test_bucket_capacity(self):
        # With k=1 and enough peers, some bucket must refuse an insert.
        table = KBucketTable(0, k=1)
        results = [table.insert(peer) for peer in range(1, 200)]
        assert not all(results)
        assert len(table) < 199

    def test_remove(self):
        table = KBucketTable(0)
        table.insert(1)
        table.remove(1)
        assert 1 not in table
        table.remove(42)  # unknown: no-op

    def test_closest_ordering(self):
        table = KBucketTable(0)
        for peer in range(1, 30):
            table.insert(peer)
        target = category_key(5)
        ranked = table.closest(target, n=5)
        distances = [xor_distance(node_key(p), target) for p in ranked]
        assert distances == sorted(distances)
        # Global minimum over the known set.
        best = min(range(1, 30), key=lambda p: xor_distance(node_key(p), target))
        assert ranked[0] == best

    def test_closest_n_validation(self):
        with pytest.raises(ValueError):
            KBucketTable(0).closest(0, n=0)

    def test_closer_than_strictly_improves(self):
        table = KBucketTable(0)
        for peer in range(1, 30):
            table.insert(peer)
        target = category_key(9)
        distance = xor_distance(node_key(0), target)
        nxt = table.closer_than(target, distance)
        assert nxt is not None
        assert xor_distance(node_key(nxt), target) < distance
        assert table.closer_than(target, 0) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 1000))
    def test_greedy_walk_converges_to_one_steward(self, n_peers, category):
        """Full tables: every starting point reaches the globally
        closest node — publishers and readers agree on the steward."""
        tables = [KBucketTable(sp, k=64) for sp in range(n_peers)]
        for table in tables:
            for peer in range(n_peers):
                table.insert(peer)
        target = category_key(category)

        def walk(start):
            current = start
            distance = xor_distance(node_key(current), target)
            while True:
                nxt = tables[current].closer_than(target, distance)
                if nxt is None:
                    return current
                current = nxt
                distance = xor_distance(node_key(current), target)

        expected = min(
            range(n_peers), key=lambda sp: xor_distance(node_key(sp), target)
        )
        assert all(walk(start) == expected for start in range(n_peers))


class TestCloserThanAgainstTheDictScan:
    """``closer_than`` reads the table's ``uint64`` key array; the scan
    over its entries it replaced is the oracle."""

    @staticmethod
    def probes(table, targets):
        """Both answers for each target, at every kind of distance bound."""
        for target in targets:
            own = xor_distance(table.owner_key, target)
            for bound in (own, 0, 1, HALF, HALF + 1, (1 << KEY_BITS) - 1, 1 << KEY_BITS):
                yield (
                    table.closer_than(target, bound),
                    reference_closer_than(table, target, bound),
                )

    def test_empty_table(self):
        table = KBucketTable(0)
        for got, expected in self.probes(table, [0, category_key(1), (1 << KEY_BITS) - 1]):
            assert got is expected is None
        table.insert(0)  # the owner: still empty
        assert table.closer_than(category_key(1), 1 << KEY_BITS) is None

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 50),
        st.integers(1, 4),
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 50)),
            max_size=80,
        ),
        st.lists(key_ints, min_size=1, max_size=4),
    )
    def test_random_insert_remove_interleavings(self, owner, k, edits, targets):
        """Asked after every edit, so a vector that outlived one is caught."""
        table = KBucketTable(owner, k=k)
        for op, peer in edits:
            getattr(table, op)(peer)
            for got, expected in self.probes(table, targets):
                assert got == expected
        assert all(len(bucket) <= k for bucket in table.buckets().values())

    def test_removed_peer_is_not_answered_again(self):
        table = KBucketTable(0)
        table.insert_all(range(1, 40))
        target = category_key(3)
        bound = 1 << KEY_BITS
        first = table.closer_than(target, bound)
        table.remove(first)
        second = table.closer_than(target, bound)
        assert second != first
        assert second == reference_closer_than(table, target, bound)
        table.insert(first)
        assert table.closer_than(target, bound) == first

    def test_equal_keys_answer_the_first_inserted(self, monkeypatch):
        """64-bit keys do not collide in practice; if two did, the scan
        kept the one it met first."""
        import repro.network.hier.keyspace as keyspace

        shared = node_key(2)
        monkeypatch.setattr(
            keyspace, "node_key", lambda peer: shared if peer in (2, 9) else node_key(peer)
        )
        for order in ((2, 9), (9, 2)):
            table = KBucketTable(0)
            table.insert_all((5, *order, 7))
            assert table.closer_than(shared, 1) == order[0]
            assert reference_closer_than(table, shared, 1) == order[0]
            targets = np.array([shared, shared ^ 1], np.uint64)
            got = table.closer_than(targets, np.array([1, 2], np.uint64))
            assert got.tolist() == [order[0], order[0]]

    def test_full_bucket(self):
        """Bucket 63 (half the keyspace) overflows at once with k=2; what
        was refused is not in the vector either."""
        table = KBucketTable(0, k=2)
        refused = [peer for peer in range(1, 120) if not table.insert(peer)]
        assert refused
        assert max(len(bucket) for bucket in table.buckets().values()) == 2
        for peer in refused:
            # the refused peer's own key: it would win if it were known
            target = node_key(peer)
            got = table.closer_than(target, 1 << KEY_BITS)
            assert got == reference_closer_than(table, target, 1 << KEY_BITS)
            assert got != peer

    def test_distances_in_the_upper_half_compare_unsigned(self):
        """Distances of 2**63 and more: read as ``int64`` they would be
        negative and win every ``argmin``."""
        table = KBucketTable(0, k=64)
        table.insert_all(range(1, 64))
        keys = [key for _peer, key in table.entries()]
        assert any(key >= HALF for key in keys) and any(key < HALF for key in keys)
        for target in (0, HALF - 1, HALF, (1 << KEY_BITS) - 1, *keys[:8]):
            distances = [xor_distance(key, target) for key in keys]
            assert max(distances) >= HALF  # the case is exercised
            best = table.closer_than(target, 1 << KEY_BITS)
            assert xor_distance(node_key(best), target) == min(distances)
            assert best == reference_closer_than(table, target, 1 << KEY_BITS)
            # a bound in the upper half is a bound, not a negative number
            assert table.closer_than(target, min(distances)) is None
            assert table.closer_than(target, min(distances) + 1) == best

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 6), st.lists(st.integers(0, 60), max_size=90))
    def test_insert_all_is_insert_in_order(self, owner, k, peers):
        one_call, one_each = KBucketTable(owner, k=k), KBucketTable(owner, k=k)
        one_call.insert_all(peers)
        for peer in peers:
            one_each.insert(peer)
        assert one_call.entries() == one_each.entries()
        assert one_call.buckets() == one_each.buckets()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 50),
        st.integers(1, 4),
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 50)),
            max_size=60,
        ),
        st.lists(key_ints, min_size=1, max_size=6),
    )
    def test_a_vector_of_targets_is_each_target_asked_alone(
        self, owner, k, edits, targets
    ):
        table = KBucketTable(owner, k=k)
        table.insert_all(range(51))
        for op, peer in edits:
            getattr(table, op)(peer)
        keys = [key for _peer, key in table.entries()]
        targets = targets + keys[:3]  # distance 0
        vector = np.array(targets, np.uint64)
        # the nearest distance itself: strictly closer means nobody
        nearest = [
            min((key ^ target for key in keys), default=0)
            for target in targets
        ]
        for bounds in (
            vector ^ np.uint64(table.owner_key),
            np.zeros_like(vector),
            np.array(nearest, np.uint64),
            np.array([min(d + 1, (1 << KEY_BITS) - 1) for d in nearest], np.uint64),
            np.full_like(vector, (1 << KEY_BITS) - 1),
        ):
            got = table.closer_than(vector, bounds)
            expected = [
                reference_closer_than(table, target, int(bound))
                for target, bound in zip(targets, bounds.tolist())
            ]
            assert got.tolist() == [-1 if e is None else e for e in expected]

    def test_a_vector_asked_of_an_empty_table_has_no_hops(self):
        targets = np.array([0, category_key(1)], np.uint64)
        got = KBucketTable(0).closer_than(targets, targets)
        assert got.tolist() == [-1, -1]


def test_bucket_index_is_the_bit_length_where_a_float_rounds_up():
    """Distances just under a power of two round up to it as a float."""
    from repro.network.hier.keyspace import _bucket_index

    edges = [
        value
        for bits in range(1, KEY_BITS + 1)
        # the last: the lowest value a float64 rounds up to 2 ** bits
        for value in (1 << (bits - 1), (1 << bits) - 1, (1 << bits) - (1 << max(bits - 54, 0)))
    ]
    got = _bucket_index(np.array(edges, np.uint64)).tolist()
    assert got == [value.bit_length() - 1 for value in edges]


class TestInsertAllAgainstTheLoop:
    """``insert_all`` fills a table in one vector pass; the loop of
    one-at-a-time inserts it replaced is the oracle."""

    @staticmethod
    def both(owner, k):
        return KBucketTable(owner, k=k), ReferenceKBucketTable(owner, k=k)

    @staticmethod
    def same(vector, loop):
        assert vector.entries() == loop.entries()
        assert vector.buckets() == loop.buckets()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 30),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.sampled_from(["insert_all", "remove"]),
                st.lists(st.integers(0, 60), max_size=40),
            ),
            max_size=6,
        ),
    )
    def test_batches_and_removals_in_any_order(self, owner, k, steps):
        """Repeats, the owner and known peers in a batch; removals that
        make room in a bucket between two batches."""
        vector, loop = self.both(owner, k)
        for op, peers in steps:
            if op == "remove":
                for peer in peers:
                    vector.remove(peer)
                    loop.remove(peer)
            else:
                vector.insert_all(peers)
                reference_insert_all(loop, peers)
            self.same(vector, loop)
        assert all(len(bucket) <= k for bucket in vector.buckets().values())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_network_fill_from_one_key_list(self, k):
        ids = list(range(200))
        keys = [node_key(peer) for peer in ids]
        for owner in (0, 57, 199):
            vector, loop = self.both(owner, k)
            vector.insert_all(ids, keys)
            reference_insert_all(loop, range(200))
            self.same(vector, loop)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 4), st.lists(st.integers(0, 60), max_size=60))
    def test_insert_is_the_batch_of_one(self, owner, k, peers):
        vector, loop = self.both(owner, k)
        for peer in peers:
            answered = vector.insert(peer)
            reference_insert_all(loop, [peer])
            assert answered == (peer in loop)
        self.same(vector, loop)

    def test_equal_keys_keep_the_order_given(self, monkeypatch):
        """Two peers with one key share a bucket; the first given is the
        first kept, and with k = 1 the second is refused."""
        import repro.network.hier.keyspace as keyspace
        import tests.network.reference_hier as reference

        shared = node_key(2)

        def colliding(peer):
            return shared if peer in (2, 9) else node_key(peer)

        monkeypatch.setattr(keyspace, "node_key", colliding)
        monkeypatch.setattr(reference, "node_key", colliding)
        for k in (1, 2):
            for order in ((2, 9), (9, 2)):
                vector, loop = self.both(0, k)
                vector.insert_all((5, *order, 7))
                reference_insert_all(loop, (5, *order, 7))
                self.same(vector, loop)
                assert order[0] in vector and (order[1] in vector) == (k == 2)

    def test_a_peer_with_the_owners_key_is_refused_before_anything_is_learnt(
        self, monkeypatch
    ):
        import repro.network.hier.keyspace as keyspace

        owner_key = node_key(0)
        monkeypatch.setattr(
            keyspace, "node_key", lambda peer: owner_key if peer == 9 else node_key(peer)
        )
        table = KBucketTable(0)
        with pytest.raises(ValueError, match="owner's own key"):
            table.insert_all((5, 9, 7))
        assert len(table) == 0
