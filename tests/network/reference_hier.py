"""The per-message tier-2 loops ``HierNetwork`` used to run, kept as the oracle.

``HierNetwork._flood`` reads a per-home reach plan and the community
holder index, and ``HierNetwork._kademlia_walk`` reads a per-(super-peer,
category) memo; these are the loops they replaced — a deque BFS with two
dicts and one ``community.lookup`` per newly reached super-peer, and a
hop-by-hop greedy walk that asks a k-bucket table at every hop.  Both
read liveness and the tables on every call and keep nothing between
calls, so a kill needs no invalidation here.  The two networks must
return the same :class:`QueryOutcome`, charge the same control messages
and make the same ``observe`` calls in the same order (that sequence is
what every rule table and digest is built from), so the differential
tests run both and compare.

The loop bodies are the parent commit's, verbatim; the walk takes the
category where it used to take the category's key.

:func:`reference_closer_than` is the scan ``KBucketTable.closer_than``
used to be — every known peer's key XORed and compared as Python ints —
before the table kept its keys as one ``uint64`` vector.
"""

from collections import deque

from repro.network.hier.keyspace import KBucketTable, xor_distance
from repro.network.hier.network import HierNetwork


def reference_closer_than(
    table: KBucketTable, target_key: int, distance: int
) -> int | None:
    """Best known peer strictly closer to ``target_key``, or None."""
    best_id = None
    best_distance = distance
    for peer_id, key in table._known.items():
        d = xor_distance(key, target_key)
        if d < best_distance:
            best_distance = d
            best_id = peer_id
    return best_id


class ReferenceHierNetwork(HierNetwork):
    """``HierNetwork`` with the per-message loops under the ladder."""

    def _kademlia_walk(self, start: int, category: int) -> tuple[int, int]:
        key = self._cat_key[category]
        current = start
        hops = 0
        distance = xor_distance(self._node_key[current], key)
        while True:
            nxt = self.kbuckets[current].closer_than(key, distance)
            if nxt is None:
                return current, hops
            current = nxt
            distance = xor_distance(self._node_key[current], key)
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
