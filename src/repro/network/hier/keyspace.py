"""Kademlia-style XOR keyspace over super-peers and category keys.

The hybrid lookup tier needs a way to locate *which community* likely
owns content for a query category without flooding the super-peer
overlay.  Kademlia's trick (Maymounkov & Mazières) is to give every
node and every lookup key an identifier in the same space, define
distance as XOR, and have each node keep a routing table of peers
bucketed by distance prefix — greedy forwarding then converges in
O(log n) hops because every hop at least halves the distance.

We reuse exactly that machinery at the super-peer tier:

* :func:`node_key` / :func:`category_key` — 64-bit blake2b identifiers
  for super-peers and query categories (deterministic: no coordination
  or seeding required, every node derives the same keys);
* :func:`xor_distance` — the metric;
* :class:`KBucketTable` — one super-peer's routing table: up to ``k``
  entries per distance bucket (bucket ``i`` holds peers whose distance
  has bit length ``i + 1``), insertion-ordered, with the lookup
  primitives greedy routing needs;
* :func:`kbucket_tables` — every node's table of a network, filled at
  once.

The tier is simulated, so there is no UDP RPC layer — but the routing
*state* (what each node knows) and the hop-by-hop lookup procedure
mirror the real protocol, and every hop is charged one message by the
caller.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "KEY_BITS",
    "KBucketTable",
    "category_key",
    "kbucket_tables",
    "node_key",
    "xor_distance",
]

#: width of the keyspace; 64 bits is plenty for simulated populations
#: (collision probability over 10^4 nodes is ~1e-12), keeps keys as
#: cheap Python ints and lets a table hold its keys as one ``uint64``
#: vector.
KEY_BITS = 64


def _key(kind: bytes, value: int) -> int:
    digest = hashlib.blake2b(
        kind + int(value).to_bytes(8, "little"), digest_size=KEY_BITS // 8
    ).digest()
    return int.from_bytes(digest, "little")


def node_key(superpeer_id: int) -> int:
    """Keyspace identifier of one super-peer."""
    return _key(b"node:", superpeer_id)


def category_key(category: int) -> int:
    """Keyspace identifier of one query category (the lookup target)."""
    return _key(b"cat:", category)


def xor_distance(a: int, b: int) -> int:
    """Kademlia's XOR metric (symmetric, unidirectional)."""
    return a ^ b


def _bucket_index(distances: np.ndarray) -> np.ndarray:
    """``bit_length() - 1`` of each nonzero ``uint64`` distance.

    A ``float64`` rounds to nearest, so its exponent is the bit length,
    or one more where the distance rounded up to a power of two; that
    case is the distance falling short of ``2 ** (exponent - 1)``.
    """
    index = np.frexp(distances.astype(np.float64))[1]
    np.minimum(index, KEY_BITS, out=index)
    index -= 1
    return index - (distances < np.left_shift(np.uint64(1), index.astype(np.uint64)))


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Each entry's rank among the earlier entries of its group.  The
    groups are ``int8`` or ``int16``, which numpy's stable sort orders by
    radix."""
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    start = np.zeros(groups.size, np.intp)  # where each group's run starts
    runs = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    start[runs] = runs
    np.maximum.accumulate(start, out=start)
    rank = np.empty_like(order)
    rank[order] = np.arange(groups.size) - start
    return rank


#: a pass of :func:`kbucket_tables` holds a few (owners x nodes)
#: temporaries of 8 bytes, each kept near 1 MiB, and numbers each
#: (owner, bucket) pair by an ``int16``.
_FILL_ELEMENTS = 1 << 17
_FILL_OWNERS = np.iinfo(np.int16).max // (KEY_BITS + 1)


def kbucket_tables(keys: np.ndarray, *, k: int = 20) -> list[KBucketTable]:
    """Every node's table, each filled from every node in id order.

    ``keys[i]`` is node ``i``'s key (a ``uint64`` vector of
    :func:`node_key`); table ``i`` holds what
    ``KBucketTable(i, k=k).insert_all(range(n), keys)`` learns.  The
    tables are filled a chunk of owners at a time: one (owners x nodes)
    distance matrix, each entry's bucket and its rank among the entries
    of its (owner, bucket) before it, then every kept entry of the chunk
    at once, each table a stretch of it.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.size
    tables = [KBucketTable(owner, k=k) for owner in range(n)]
    chunk = max(1, min(_FILL_ELEMENTS // max(n, 1), _FILL_OWNERS))
    for first in range(0, n, chunk):
        owners = np.arange(first, min(first + chunk, n))
        rows = np.arange(owners.size)
        distances = keys[owners, None] ^ keys
        # the owner's own entry sits on the diagonal; any other zero is
        # a peer with the owner's key
        distances[rows, owners] = 1
        if not distances.all():
            raise ValueError("cannot bucket the owner's own key")
        index = _bucket_index(distances).astype(np.int8)
        del distances
        index[rows, owners] = KEY_BITS  # the bucket of no entry
        groups = (rows[:, None] * (KEY_BITS + 1)).astype(np.int16) + index
        kept = _rank_in_group(groups.ravel()).reshape(index.shape) < k
        kept[rows, owners] = False
        held, peers = np.nonzero(kept)
        bucket, held_keys = index[held, peers], keys[peers]
        ends = np.cumsum(np.bincount(held, minlength=owners.size)).tolist()
        for owner, lo, hi in zip(owners.tolist(), [0, *ends], ends):
            tables[owner]._hold(peers[lo:hi], held_keys[lo:hi], bucket[lo:hi])
    return tables


class KBucketTable:
    """One super-peer's k-bucket routing table.

    Bucket ``i`` holds peers whose XOR distance from the owner has bit
    length ``i + 1`` — i.e. peers sharing exactly ``KEY_BITS - i - 1``
    leading bits with the owner.  Each bucket keeps at most ``k``
    entries in insertion order (the classic least-recently-joined
    policy, minus the liveness pings a simulation does not need).

    The entries are three arrays in insertion order — peer ids
    (``int64``), keys (``uint64``) and bucket (``int8``) — which is what
    :meth:`closer_than` scans; a bucket's entries are those that carry
    its index, in that order.  :meth:`entries` and :meth:`buckets` read
    them back.

    Nearby buckets are almost always *complete* (few nodes share a long
    prefix), which is what makes greedy lookups converge on the same
    terminal node from any starting point — the property the category
    directory relies on (publishers and readers must agree on a key's
    steward).
    """

    def __init__(self, owner_id: int, *, k: int = 20) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.owner_id = int(owner_id)
        self.owner_key = node_key(owner_id)
        self.k = int(k)
        self._hold(
            np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.int8)
        )

    def _hold(self, ids: np.ndarray, keys: np.ndarray, bucket: np.ndarray) -> None:
        self._ids, self._keys, self._bucket = ids, keys, bucket

    # -- maintenance --------------------------------------------------------
    def insert(self, peer_id: int) -> bool:
        """Learn one peer; returns False when its bucket is full."""
        peer_id = int(peer_id)
        self.insert_all((peer_id,))
        return peer_id in self

    def insert_all(
        self, peer_ids: Iterable[int], keys: Sequence[int] | None = None
    ) -> None:
        """Learn the peers whose buckets have room, in the order given.

        One vector pass: the owner, known peers and repeats drop out,
        each new peer's bucket is its XOR distance's bit length, and a
        bucket keeps the first ``k - len(bucket)`` of them.  ``keys`` are
        the peers' node keys, when the caller has them.  A peer whose key
        is the owner's is refused before anything is learnt.
        """
        ids = np.array(list(peer_ids), dtype=np.int64)
        if keys is None:
            keys = np.fromiter(map(node_key, ids.tolist()), np.uint64, ids.size)
        else:
            keys = np.asarray(keys, dtype=np.uint64)
        _, first = np.unique(ids, return_index=True)
        first.sort()  # each id once, where it first appears
        fresh = first[ids[first] != self.owner_id]
        fresh = fresh[~np.isin(ids[fresh], self._ids)]
        distances = keys[fresh] ^ np.uint64(self.owner_key)
        if not distances.all():
            raise ValueError("cannot bucket the owner's own key")
        index = _bucket_index(distances).astype(np.int8)
        room = self.k - np.bincount(self._bucket, minlength=KEY_BITS)
        kept = _rank_in_group(index) < room[index]
        if kept.any():
            fresh = fresh[kept]
            self._hold(
                np.concatenate((self._ids, ids[fresh])),
                np.concatenate((self._keys, keys[fresh])),
                np.concatenate((self._bucket, index[kept])),
            )

    def remove(self, peer_id: int) -> None:
        """Evict a peer (it crashed or was partitioned away)."""
        kept = self._ids != peer_id
        if not kept.all():
            self._hold(self._ids[kept], self._keys[kept], self._bucket[kept])

    def __contains__(self, peer_id: int) -> bool:
        return bool((self._ids == peer_id).any())

    def __len__(self) -> int:
        return self._ids.size

    def entries(self) -> list[tuple[int, int]]:
        """``(peer_id, key)`` of every known peer, in insertion order."""
        return list(zip(self._ids.tolist(), self._keys.tolist()))

    def buckets(self) -> dict[int, list[tuple[int, int]]]:
        """Bucket index -> its ``(peer_id, key)`` entries, insertion order
        (an empty bucket is absent)."""
        out: dict[int, list[tuple[int, int]]] = {}
        for entry, bucket in zip(self.entries(), self._bucket.tolist()):
            out.setdefault(bucket, []).append(entry)
        return out

    # -- lookup primitives ----------------------------------------------------
    def closest(self, target_key: int, n: int = 1) -> list[int]:
        """The ``n`` known peers nearest ``target_key`` (deterministic).

        Ties are impossible (XOR distance is injective in the peer key),
        so the ordering is fully determined by the table contents.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        distances = self._keys ^ np.uint64(target_key)
        return self._ids[np.argsort(distances, kind="stable")[:n]].tolist()

    def closer_than(
        self, target_key: int | np.ndarray, distance: int | np.ndarray
    ) -> int | None | np.ndarray:
        """Best known peer strictly closer to ``target_key``, or None.

        This is the greedy-forwarding step: a lookup hops to the
        returned peer and asks *its* table the same question, until no
        strictly-closer peer exists — the terminal node is the key's
        steward.

        ``target_key`` may also be a ``uint64`` vector, with ``distance``
        a ``uint64`` vector of bounds beside it: the answer is then one
        peer id per target, -1 where no known peer is strictly closer
        (one call gives a node's next hop toward every category).
        """
        peer_ids, keys = self._ids, self._keys
        # the first minimum, as a scan in insertion order keeps it
        if isinstance(target_key, np.ndarray):
            if not peer_ids.size:
                return np.full(target_key.shape, -1, np.int64)
            distances = keys ^ target_key[:, None]
            nearest = distances.argmin(axis=1)
            best = distances[np.arange(nearest.size), nearest]
            return np.where(best < distance, peer_ids[nearest], -1)
        if not peer_ids.size:
            return None
        distances = keys ^ np.uint64(target_key)
        nearest = int(distances.argmin())
        return int(peer_ids[nearest]) if int(distances[nearest]) < distance else None
