"""The array-held k-bucket table against the dict-and-tuples one it replaced.

``KBucketTable`` keeps its entries as three arrays in insertion order;
``tests/network/reference_keyspace.py`` is the class before that, kept
verbatim.  Both are driven through the same edits — batches and single
inserts with repeated ids, the owner itself and buckets that fill up,
removals and re-inserts — and after every edit they must hold the same
entries in the same order, the same buckets and give the same answer to
every lookup: ``closest``, and ``closer_than`` for one target and for a
vector of them.  ``kbucket_tables``, which fills a whole network's
tables a chunk of owners at a time, is held to one reference
``insert_all`` per owner.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.network.hier.keyspace as keyspace
from repro.network.hier.keyspace import (
    KEY_BITS,
    KBucketTable,
    category_key,
    kbucket_tables,
    node_key,
)

from .reference_keyspace import ReferenceKBucketTable

PEERS = st.integers(0, 60)
TOP = (1 << KEY_BITS) - 1
edits = st.lists(
    st.one_of(
        st.tuples(st.just("insert_all"), st.lists(PEERS, max_size=40)),
        st.tuples(st.just("insert"), PEERS),
        st.tuples(st.just("remove"), PEERS),
        st.tuples(st.just("reinsert"), PEERS),
    ),
    max_size=25,
)
targets = st.lists(st.integers(0, TOP), min_size=1, max_size=4)


def assert_same(table, reference, probe_targets):
    assert table.entries() == reference.entries()
    assert table.buckets() == reference.buckets()
    assert len(table) == len(reference)
    assert all(len(bucket) <= table.k for bucket in table.buckets().values())
    for peer in range(61):
        assert (peer in table) == (peer in reference)
    # every kind of target: drawn, a known key (distance 0), the owner's
    probe = probe_targets + [key for _peer, key in table.entries()][:2]
    probe.append(table.owner_key)
    for target in probe:
        for n in (1, 3, 70):
            assert table.closest(target, n) == reference.closest(target, n)
        own = target ^ table.owner_key
        for bound in (own, 0, 1, 1 << (KEY_BITS - 1), TOP, 1 << KEY_BITS):
            assert table.closer_than(target, bound) == reference.closer_than(
                target, bound
            )
    vector = np.array(probe, np.uint64)
    for bounds in (vector ^ np.uint64(table.owner_key), np.full_like(vector, TOP)):
        assert (
            table.closer_than(vector, bounds).tolist()
            == reference.closer_than(vector, bounds).tolist()
        )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 60), st.integers(1, 4), edits, targets)
def test_every_edit_leaves_the_same_table(owner, k, steps, probe_targets):
    table, reference = KBucketTable(owner, k=k), ReferenceKBucketTable(owner, k=k)
    assert_same(table, reference, probe_targets)
    for op, arg in steps:
        if op == "insert_all":
            table.insert_all(arg)
            reference.insert_all(arg)
        elif op == "insert":
            assert table.insert(arg) == reference.insert(arg)
        elif op == "remove":
            table.remove(arg)
            reference.remove(arg)
        else:
            # a removed peer comes back at the end of the insertion order
            table.remove(arg)
            reference.remove(arg)
            assert table.insert(arg) == reference.insert(arg)
        assert_same(table, reference, probe_targets)


def test_full_buckets_refuse_in_the_order_given():
    """k = 1 over 120 peers: the far buckets fill at once, the owner is
    offered twice and every peer twice more."""
    table, reference = KBucketTable(7, k=1), ReferenceKBucketTable(7, k=1)
    batch = [7, *range(120), 7, *range(119, -1, -1)]
    table.insert_all(batch)
    reference.insert_all(batch)
    assert_same(table, reference, [category_key(3), 0, TOP])
    assert 0 < len(table) < 119
    refused = [peer for peer in range(120) if peer != 7 and peer not in table]
    assert refused and not any(table.insert(peer) for peer in refused)


def test_keys_given_are_the_keys_held():
    ids = [3, 1, 4, 1, 5]
    keys = [node_key(peer) for peer in ids]
    table, reference = KBucketTable(0), ReferenceKBucketTable(0)
    table.insert_all(ids, keys)
    reference.insert_all(ids, keys)
    assert table.entries() == reference.entries() == [
        (peer, node_key(peer)) for peer in (3, 1, 4, 5)
    ]


# -- a whole network's tables ------------------------------------------------
def reference_tables(keys, k):
    ids = list(range(len(keys)))
    tables = []
    for owner in ids:
        table = ReferenceKBucketTable(owner, k=k)
        table.insert_all(ids, keys.tolist())
        tables.append(table)
    return tables


def network_keys(n):
    return np.fromiter(map(node_key, range(n)), np.uint64, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 80), st.integers(1, 5), st.integers(1, 400))
def test_the_network_fill_is_one_insert_all_per_owner(n, k, elements):
    """Chunks of any number of owners, down to one."""
    keys = network_keys(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keyspace, "_FILL_ELEMENTS", elements)
        tables = kbucket_tables(keys, k=k)
    assert [table.owner_id for table in tables] == list(range(n))
    for table, reference in zip(tables, reference_tables(keys, k)):
        assert table.k == k
        assert table.entries() == reference.entries()
        assert table.buckets() == reference.buckets()


@pytest.mark.parametrize("k", [1, 20])
def test_the_network_fill_at_the_simulator_size(k):
    """500 owners: two chunks at the default pass size."""
    keys = network_keys(500)
    for table, reference in zip(kbucket_tables(keys, k=k), reference_tables(keys, k)):
        assert table.entries() == reference.entries()


def test_the_network_fill_refuses_two_nodes_with_one_key():
    """Every node owns a table, so two nodes with one key are each a peer
    with the other's owner key: refused, as ``insert_all`` refuses it."""
    keys = network_keys(12)
    keys[9] = keys[2]
    with pytest.raises(ValueError, match="owner's own key"):
        kbucket_tables(keys, k=2)
    with pytest.raises(ValueError, match="owner's own key"):
        ReferenceKBucketTable(2, k=2).insert_all(range(12), keys.tolist())


def test_the_network_fill_holds_no_large_temporary():
    """2,000 owners: a pass over all of them at once would hold 32 MB
    distance matrices; a chunk of owners holds about 1 MiB each."""
    keys = network_keys(2000)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tables = kbucket_tables(keys, k=20)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(tables) == 2000
    assert peak - after <= 8 << 20, f"{(peak - after) / 2**20:.1f} MiB of temporaries"
    assert after - before > 0
