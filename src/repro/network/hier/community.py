"""Leaf-to-super-peer membership with deterministic re-attachment.

Each leaf attaches to exactly one super-peer, which keeps an exact
index of the leaf's shared files (the seed baseline's tier-1 design).
This module owns that membership state so the network simulator can
treat super-peer failure as a pure state transition:

1. the dead super-peer's community is orphaned and its index dropped;
2. each orphan re-attaches to the *least loaded* live super-peer
   (ties broken by the lowest super-peer id), processed in leaf-id
   order — a deterministic rule, so churn experiments replay exactly;
3. the new home indexes the orphan's library.

Load-based placement keeps communities balanced under churn, which
matters for rule quality: a super-peer's mined table is only as good
as the traffic volume of the community behind it.

Two readings of the same content: :meth:`CommunityIndex.lookup` asks one
community which leaves share a file (what a contacted super-peer
answers), :meth:`CommunityIndex.holders` asks which communities share it
at all — the :class:`~repro.network.holders.HolderIndex` the tier-2 flood
reads so its per-query work follows the answer, not the reach.  That
index is derived state: :meth:`attach` and :meth:`kill` drop it and the
next :meth:`holders` call rebuilds it from the per-community indices (a
network attaches ten thousand leaves before its first query; patching
the buffer once per leaf would cost more than sorting it once).
"""

from __future__ import annotations

from collections.abc import Iterable, KeysView

import numpy as np

from repro.network.holders import HolderIndex

__all__ = ["CommunityIndex"]


class CommunityIndex:
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
