"""The dict-of-lists community index and the ladder that read it, kept as the oracle.

``CommunityIndex`` holds the two-tier population as arrays: libraries as
stretches of one ``int32`` buffer, the per-community indices as one
sorted (file, leaf) buffer probed with a bisect, the tier-2 flood's hits
read off a holder slice that carries one key per (leaf, file) pair.
This is what it replaced — a ``frozenset`` per leaf, a dict per
community mapping each file to the list of leaves sharing it, a holder
index with one key per (community, file) — and the query bodies that
called ``lookup`` on it once per contacted community.  Everything an
experiment can observe must agree, so the differential tests
(``test_community_differential.py``) drive both with the same calls and
compare.

:class:`ReferenceCommunityIndex` is the parent commit's (e8e8223)
``CommunityIndex``, verbatim.  The three ``Indexed*`` networks run that
commit's ``SuperPeerNetwork.query``, ``HierNetwork.query`` /
``_flood`` / ``_build_directory`` bodies, verbatim but for reading a
leaf's library from the index (``community._library``) where the parent
kept a second list of the same sets.
"""

from collections import deque
from collections.abc import Iterable, KeysView
from unittest import mock

import numpy as np

import repro.network.superpeer
from repro.metrics.traffic import QueryOutcome
from repro.network.hier.network import HierNetwork
from repro.network.holders import HolderIndex
from repro.network.superpeer import SuperPeerNetwork


class ReferenceCommunityIndex:
    """Membership map plus per-super-peer exact content indices."""

    def __init__(self, n_superpeers: int) -> None:
        if n_superpeers < 1:
            raise ValueError("n_superpeers must be >= 1")
        self.n_superpeers = int(n_superpeers)
        self._home: dict[int, int] = {}  # leaf -> super-peer
        self._library: dict[int, frozenset[int]] = {}  # leaf -> file ids
        self._members: list[list[int]] = [[] for _ in range(n_superpeers)]
        # super-peer -> file id -> leaves sharing it.
        self._index: list[dict[int, list[int]]] = [
            {} for _ in range(n_superpeers)
        ]
        self._live = [True] * n_superpeers
        # which communities share a file; None = rebuild on next use
        self._holder_index: HolderIndex | None = None

    # -- membership -------------------------------------------------------
    def attach(self, leaf: int, superpeer: int, library: frozenset[int]) -> None:
        if not self._live[superpeer]:
            raise ValueError(f"super-peer {superpeer} is not live")
        if leaf in self._home:
            raise ValueError(f"leaf {leaf} is already attached")
        self._home[leaf] = superpeer
        self._library[leaf] = library
        self._members[superpeer].append(leaf)
        index = self._index[superpeer]
        for file_id in library:
            index.setdefault(file_id, []).append(leaf)
        self._holder_index = None

    def superpeer_of(self, leaf: int) -> int:
        return self._home[leaf]

    def members(self, superpeer: int) -> list[int]:
        return list(self._members[superpeer])

    def load(self, superpeer: int) -> int:
        return len(self._members[superpeer])

    def is_live(self, superpeer: int) -> bool:
        return self._live[superpeer]

    def live_superpeers(self) -> list[int]:
        return [sp for sp in range(self.n_superpeers) if self._live[sp]]

    # -- content lookup -----------------------------------------------------
    def lookup(self, superpeer: int, file_id: int) -> list[int]:
        """Leaves in one community sharing ``file_id`` (exact index)."""
        return self._index[superpeer].get(file_id, [])

    def index_size(self, superpeer: int) -> int:
        return sum(len(leaves) for leaves in self._index[superpeer].values())

    def files(self, superpeer: int) -> KeysView[int]:
        """The distinct files one community shares (its index keys)."""
        return self._index[superpeer].keys()

    def holders(self, file_id: int) -> np.ndarray:
        """Super-peers whose community shares ``file_id``, ascending."""
        if self._holder_index is None:
            self._holder_index = HolderIndex(
                self.n_superpeers,
                1 + max((max(index) for index in self._index if index), default=-1),
                enumerate(self._index),
                capacity=sum(len(index) for index in self._index),
            )
        return self._holder_index.holders(file_id)

    # -- failure handling ---------------------------------------------------
    def kill(self, superpeer: int) -> list[int]:
        """Mark a super-peer dead; returns its orphaned leaves in id order.

        The dead node's index is dropped (its knowledge of who shares
        what dies with it); the caller re-homes the orphans via
        :meth:`reattach`.
        """
        if not self._live[superpeer]:
            return []
        self._live[superpeer] = False
        orphans = sorted(self._members[superpeer])
        self._members[superpeer] = []
        self._index[superpeer] = {}
        self._holder_index = None
        for leaf in orphans:
            del self._home[leaf]
        return orphans

    def reattach(self, orphans: Iterable[int]) -> dict[int, int]:
        """Deterministically re-home orphaned leaves; returns leaf -> new home.

        Each orphan (in leaf-id order) joins the least-loaded live
        super-peer, ties broken by the lowest id.  Loads update as
        orphans land, so a batch spreads instead of piling onto one
        node.
        """
        live = self.live_superpeers()
        if not live:
            raise ValueError("no live super-peers to re-attach to")
        placement: dict[int, int] = {}
        for leaf in sorted(orphans):
            target = min(live, key=lambda sp: (self.load(sp), sp))
            self.attach(leaf, target, self._library[leaf])
            placement[leaf] = target
        return placement


class _DrawnLibraries(ReferenceCommunityIndex):
    """The reference index fed what the array index is fed: a leaf's
    draws, duplicates included."""

    nbytes = 0  # no buffers to report to the population gauge

    def attach(self, leaf, superpeer, library) -> None:
        super().attach(leaf, superpeer, frozenset(library))

    def attach_block(self, superpeer, leaves, libraries) -> None:
        for leaf, library in zip(leaves, libraries.tolist()):
            self.attach(leaf, superpeer, library)

    @property
    def live(self) -> set[int]:
        """What the rule rung reads as its usable set."""
        return set(self.live_superpeers())


class _OnReferenceIndex:
    """Build the inherited substrate around a reference index."""

    def __init__(self, config=None, *, seed=None) -> None:
        with mock.patch.object(
            repro.network.superpeer, "CommunityIndex", _DrawnLibraries
        ):
            super().__init__(config, seed=seed)


class IndexedSuperPeerNetwork(_OnReferenceIndex, SuperPeerNetwork):
    def query(self, leaf: int, file_id: int) -> QueryOutcome:
        cfg = self.config
        self._next_guid += 1
        if file_id in self.community._library[leaf]:
            return QueryOutcome(self._next_guid, 0, 1, 0, 0)
        home = self.community.superpeer_of(leaf)
        messages = 1  # leaf -> home super-peer
        local = self.community.lookup(home, file_id)
        if local:
            return QueryOutcome(self._next_guid, messages, len(local), 1, 0)
        # Tier-2 flood among super-peers.
        parent: dict[int, int | None] = {home: None}
        depth = {home: 0}
        hits = 0
        first_hit_hops = None
        duplicates = 0
        frontier = deque([home])
        while frontier:
            sp = frontier.popleft()
            if depth[sp] >= cfg.superpeer_ttl:
                continue
            for neighbor in self.topology.neighbors(sp):
                if neighbor == parent[sp]:
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
                frontier.append(neighbor)
        return QueryOutcome(
            self._next_guid, messages, hits, first_hit_hops, duplicates
        )


class IndexedHierNetwork(_OnReferenceIndex, HierNetwork):
    def _build_directory(self) -> None:
        """(Re)publish every live community's categories to their stewards."""
        self.directory = {}
        messages = 0
        files_per_category = self.config.files_per_category
        for sp in self.community.live_superpeers():
            # one index key per distinct file, however many leaves share it
            categories = sorted(
                {file_id // files_per_category for file_id in self.community.files(sp)}
            )
            for category in categories:
                steward, hops = self._kademlia_walk(sp, category)
                messages += hops
                self.directory.setdefault(steward, {}).setdefault(
                    category, []
                ).append(sp)
        self.control_messages += messages

    def query(self, leaf: int, file_id: int) -> QueryOutcome:
        """One leaf query through the attempt ladder."""
        cfg = self.config
        self._next_guid += 1
        guid = self._next_guid
        if file_id in self.community._library[leaf]:
            return QueryOutcome(guid, 0, 1, 0, 0)
        home = self.community.superpeer_of(leaf)
        messages = 1  # leaf -> home super-peer, then every failed attempt
        local = self.community.lookup(home, file_id)
        if local:
            return QueryOutcome(guid, messages, len(local), 1, 0)
        category = file_id // cfg.files_per_category
        rule_covered = False
        contacted: set[int] = set()

        if cfg.mode != "flood":
            targets = self._rule_targets(leaf, home, category)
            if targets:
                rule_covered = True
                hits = 0
                for target in targets:
                    contacted.add(target)
                    matches = self.community.lookup(target, file_id)
                    if matches:
                        hits += len(matches)
                        self._learn(leaf, home, category, target)
                if hits:
                    self._after_query(home)
                    return QueryOutcome(
                        guid, len(targets), hits, 2, 0,
                        rule_covered=True, rule_succeeded=True,
                    ).on_top_of(messages)
                messages += len(targets)

        if cfg.mode == "hybrid":
            steward, hops = self._kademlia_walk(home, category)
            sent = hops
            hits = 0
            first_hit_hops = None
            to_contact = cfg.lookup_contacts
            for owner in self.directory.get(steward, {}).get(category, ()):
                if owner == home or owner in contacted:
                    continue
                sent += 1
                matches = self.community.lookup(owner, file_id)
                if matches:
                    hits += len(matches)
                    if first_hit_hops is None:
                        first_hit_hops = hops + 2  # leaf->home, walk, contact
                    self._learn(leaf, home, category, owner)
                to_contact -= 1
                if not to_contact:
                    break
            if hits:
                self._after_query(home)
                return QueryOutcome(
                    guid, sent, hits, first_hit_hops, 0, rule_covered=rule_covered
                ).on_top_of(messages)
            messages += sent

        flood = QueryOutcome(
            guid,
            *self._flood(leaf, home, file_id, category),
            rule_covered=rule_covered,
        )
        self._after_query(home)
        return flood.on_top_of(messages)

    def _flood(
        self, leaf: int, home: int, file_id: int, category: int
    ) -> tuple[int, int, int | None, int]:
        reach, position = self._reaches.get(home) or self._reach_from(home)
        found = position[self.community.holders(file_id)]
        found = found[found >= 0]
        if not found.size:
            return reach.messages, 0, None, reach.duplicates
        found.sort()
        hits = 0
        learn = self.config.mode != "flood"
        for superpeer in self.engine.ids(reach.order[found]):
            hits += len(self.community.lookup(superpeer, file_id))
            if learn:
                self._learn(leaf, home, category, superpeer)
        # +1 for the original leaf -> super-peer hop.
        return reach.messages, hits, int(reach.depth[found[0]]) + 1, reach.duplicates
