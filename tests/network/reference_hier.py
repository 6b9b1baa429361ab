"""The per-message tier-2 loops ``HierNetwork`` used to run, kept as the oracle.

``HierNetwork._flood`` reads a per-home reach plan and the community
holder index, and ``HierNetwork._kademlia_walk`` reads a walk table
planned whole for every (live super-peer, category); these are the loops
they replaced — a deque BFS with two dicts and one ``community.lookup``
per newly reached super-peer, and a hop-by-hop greedy walk that asks a
k-bucket table at every hop.  Both read liveness and the tables on every
call and keep nothing between calls, so a kill needs no invalidation
here.  The two networks must return the same :class:`QueryOutcome`,
charge the same control messages and make the same ``observe`` calls in
the same order (that sequence is what every rule table and digest is
built from), so the differential tests run both and compare.

The build's loops are here too: :func:`reference_insert_all` is
``KBucketTable.insert_all`` as one insert per peer, in order, before it
became one vector pass; ``ReferenceHierNetwork`` fills its tables —
the dict-and-tuples ``ReferenceKBucketTable`` of
``reference_keyspace.py`` — with it and publishes the directory with
one walk per (community, category), so the tables, every steward and
hop count, the directory and the control traffic of a build and of
every kill are compared too.

The loop bodies are the parent commits', verbatim; the walk takes the
category where it used to take the category's key, and asks
:func:`reference_closer_than` where it asked the table.

:func:`reference_closer_than` is the scan ``KBucketTable.closer_than``
used to be — every known peer's key XORed and compared as Python ints —
before the table kept its keys as one ``uint64`` vector.
"""

from collections import deque

import numpy as np

from repro.network.hier.keyspace import KBucketTable, node_key, xor_distance
from repro.network.hier.network import HierNetwork

from .reference_keyspace import ReferenceKBucketTable


def reference_closer_than(
    table: KBucketTable | ReferenceKBucketTable, target_key: int, distance: int
) -> int | None:
    """Best known peer strictly closer to ``target_key``, or None."""
    best_id = None
    best_distance = distance
    for peer_id, key in table.entries():
        d = xor_distance(key, target_key)
        if d < best_distance:
            best_distance = d
            best_id = peer_id
    return best_id


def reference_insert_all(table: ReferenceKBucketTable, peer_ids) -> None:
    """Learn the peers whose buckets have room, in the order given."""
    owner_id, owner_key, k = table.owner_id, table.owner_key, table.k
    buckets, known = table._buckets, table._known
    table._scan = None
    for peer_id in map(int, peer_ids):
        if peer_id == owner_id or peer_id in known:
            continue
        key = node_key(peer_id)
        distance = owner_key ^ key
        if distance == 0:
            raise ValueError("cannot bucket the owner's own key")
        bucket = buckets.setdefault(distance.bit_length() - 1, [])
        if len(bucket) < k:
            bucket.append((peer_id, key))
            known[peer_id] = key


class ReferenceHierNetwork(HierNetwork):
    """``HierNetwork`` with the per-peer and per-message loops under the
    build and the ladder."""

    def _kbucket_tables(self) -> list[ReferenceKBucketTable]:
        cfg = self.config
        tables = [
            ReferenceKBucketTable(sp, k=cfg.kbucket_k) for sp in range(cfg.n_superpeers)
        ]
        for table in tables:
            reference_insert_all(table, range(cfg.n_superpeers))
        return tables

    def _plan_walks(self) -> None:
        """Nothing to plan: every walk below goes hop by hop."""

    def _build_directory(self) -> None:
        """(Re)publish every live community's categories to their stewards."""
        self.directory = {}
        messages = 0
        files_per_category = self.config.files_per_category
        for sp in self.community.live_superpeers():
            # one entry per distinct category, however many files or
            # leaves stand behind it
            categories = np.unique(self.community.files(sp) // files_per_category)
            for category in categories.tolist():
                steward, hops = self._kademlia_walk(sp, category)
                messages += hops
                self.directory.setdefault(steward, {}).setdefault(
                    category, []
                ).append(sp)
        self.control_messages += messages

    def _kademlia_walk(self, start: int, category: int) -> tuple[int, int]:
        key = int(self._cat_key[category])
        current = start
        hops = 0
        distance = xor_distance(int(self._node_key[current]), key)
        while True:
            nxt = reference_closer_than(self.kbuckets[current], key, distance)
            if nxt is None:
                return current, hops
            current = nxt
            distance = xor_distance(int(self._node_key[current]), key)
            hops += 1

    def _flood(
        self, leaf: int, home: int, file_id: int, category: int
    ) -> tuple[int, int, int | None, int]:
        cfg = self.config
        parent: dict[int, int | None] = {home: None}
        depth = {home: 0}
        messages = 0
        hits = 0
        first_hit_hops = None
        duplicates = 0
        learn = cfg.mode != "flood"
        frontier = deque([home])
        while frontier:
            sp = frontier.popleft()
            if depth[sp] >= cfg.superpeer_ttl:
                continue
            for neighbor in self.topology.neighbors(sp):
                if neighbor == parent[sp] or not self.community.is_live(neighbor):
                    continue
                messages += 1
                if neighbor in parent:
                    duplicates += 1
                    continue
                parent[neighbor] = sp
                depth[neighbor] = depth[sp] + 1
                matches = self.community.lookup(neighbor, file_id)
                if matches:
                    hits += len(matches)
                    if first_hit_hops is None:
                        # +1 for the original leaf -> super-peer hop.
                        first_hit_hops = depth[neighbor] + 1
                    if learn:
                        self._learn(leaf, home, category, neighbor)
                frontier.append(neighbor)
        return messages, hits, first_hit_hops, duplicates
