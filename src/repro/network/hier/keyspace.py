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
  primitives greedy routing needs.

The tier is simulated, so there is no UDP RPC layer — but the routing
*state* (what each node knows) and the hop-by-hop lookup procedure
mirror the real protocol, and every hop is charged one message by the
caller.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["KEY_BITS", "KBucketTable", "category_key", "node_key", "xor_distance"]

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


class KBucketTable:
    """One super-peer's k-bucket routing table.

    Bucket ``i`` holds peers whose XOR distance from the owner has bit
    length ``i + 1`` — i.e. peers sharing exactly ``KEY_BITS - i - 1``
    leading bits with the owner.  Each bucket keeps at most ``k``
    entries in insertion order (the classic least-recently-joined
    policy, minus the liveness pings a simulation does not need).

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
        # bucket index -> list of (peer_id, peer_key), insertion order.
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        self._known: dict[int, int] = {}  # peer_id -> key
        # _known as (int64 peer ids, uint64 keys), what closer_than
        # scans; None = rebuild on next use (insert and remove drop it)
        self._scan: tuple[np.ndarray, np.ndarray] | None = None

    # -- maintenance --------------------------------------------------------
    def insert(self, peer_id: int) -> bool:
        """Learn one peer; returns False when its bucket is full."""
        peer_id = int(peer_id)
        self.insert_all((peer_id,))
        return peer_id in self._known

    def insert_all(
        self, peer_ids: Iterable[int], keys: Sequence[int] | None = None
    ) -> None:
        """Learn the peers whose buckets have room, in the order given.

        One vector pass: the owner, known peers and repeats drop out,
        each new peer's bucket is its XOR distance's bit length, and a
        bucket keeps the first ``k - len(bucket)`` of them.  ``keys`` are
        the peers' node keys, when the caller has them: a network of n
        super-peers fills n tables from one list, whose ints the tables
        then share (one 64-bit int per entry of every table otherwise).
        A peer whose key is the owner's is refused before anything is
        learnt.
        """
        peer_ids = list(peer_ids)
        if keys is None:
            keys = list(map(node_key, peer_ids))
        ids = np.array(peer_ids, dtype=np.int64)
        _, first = np.unique(ids, return_index=True)
        first.sort()  # each id once, where it first appears
        fresh = first[ids[first] != self.owner_id]
        if self._known:
            known = np.fromiter(self._known, np.int64, len(self._known))
            fresh = fresh[~np.isin(ids[fresh], known)]
        distances = np.fromiter(keys, np.uint64, len(keys))[fresh]
        distances ^= np.uint64(self.owner_key)
        if not distances.all():
            raise ValueError("cannot bucket the owner's own key")
        index = _bucket_index(distances)
        room = np.full(KEY_BITS, self.k)
        for bucket, entries in self._buckets.items():
            room[bucket] -= len(entries)
        # rank within the bucket, in the order given
        order = np.argsort(index, kind="stable")
        grouped = index[order]
        rank = np.arange(order.size) - np.searchsorted(grouped, grouped)
        kept = np.sort(order[rank < room[grouped]])
        if not kept.size:
            return
        self._scan = None
        buckets, known = self._buckets, self._known
        for at, bucket in zip(fresh[kept].tolist(), index[kept].tolist()):
            peer_id, key = int(peer_ids[at]), keys[at]
            buckets.setdefault(bucket, []).append((peer_id, key))
            known[peer_id] = key

    def remove(self, peer_id: int) -> None:
        """Evict a peer (it crashed or was partitioned away)."""
        key = self._known.pop(peer_id, None)
        if key is None:
            return
        self._scan = None
        index = xor_distance(self.owner_key, key).bit_length() - 1
        self._buckets[index] = [
            entry for entry in self._buckets[index] if entry[0] != peer_id
        ]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._known

    def __len__(self) -> int:
        return len(self._known)

    # -- lookup primitives ----------------------------------------------------
    def closest(self, target_key: int, n: int = 1) -> list[int]:
        """The ``n`` known peers nearest ``target_key`` (deterministic).

        Ties are impossible (XOR distance is injective in the peer key),
        so the ordering is fully determined by the table contents.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        ranked = sorted(
            self._known.items(), key=lambda pk: xor_distance(pk[1], target_key)
        )
        return [peer_id for peer_id, _key in ranked[:n]]

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
        if self._scan is None:
            self._scan = (
                np.fromiter(self._known, np.int64, len(self._known)),
                np.fromiter(self._known.values(), np.uint64, len(self._known)),
            )
        peer_ids, keys = self._scan
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
