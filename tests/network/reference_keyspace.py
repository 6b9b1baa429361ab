"""The dict-and-tuples k-bucket table, kept as the oracle.

``KBucketTable`` holds its entries as three arrays in insertion order
(ids, keys, bucket); this is the class it replaced — a dict of
``(peer_id, key)`` lists per bucket beside a ``peer_id -> key`` dict,
with the vector ``insert_all`` pass and the ``uint64`` scan vector
rebuilt after every edit.  The class body is the parent commit's,
verbatim, under another name, but for the two accessors at the end,
which give the array table's view of the same state: ``entries()`` in
insertion order and ``buckets()`` with the buckets a removal emptied
left out.  The differential tests drive both classes through the same
edits and compare every answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.network.hier.keyspace import (
    KEY_BITS,
    _bucket_index,
    node_key,
    xor_distance,
)


class ReferenceKBucketTable:
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

    # -- the array table's accessors ------------------------------------------
    def entries(self) -> list[tuple[int, int]]:
        return list(self._known.items())

    def buckets(self) -> dict[int, list[tuple[int, int]]]:
        return {index: list(bucket) for index, bucket in self._buckets.items() if bucket}
