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

The population is arrays.  Stored: membership, and every library as a
sorted, distinct stretch of one ``int32`` buffer (appended on attach; it
outlives a kill, so a re-attached leaf keeps its stretch).  Derived,
dropped by :meth:`attach` / :meth:`kill` / :meth:`reattach` and rebuilt
whole on the next read (a network attaches ten thousand leaves before
its first query; patching a sorted buffer once per leaf would cost more
than sorting it once): the community index — per community one stretch
of (file, leaf) pairs sorted by file then leaf, so :meth:`count` /
:meth:`lookup`, what a contacted super-peer answers, are a bisect over
that stretch — and a :class:`~repro.network.holders.HolderIndex` over
(file, super-peer) with one key per pair, so :meth:`sharers` is a slice
and the tier-2 flood's per-query work follows the answer, not the reach.

A super-peer or leaf id outside its range is an ``IndexError`` before
anything changes (a negative one would alias the last element).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from heapq import heapify, heapreplace
from itertools import chain, pairwise

import numpy as np

from repro.network.holders import HolderIndex
from repro.obs.instruments import set_sim_population_bytes

__all__ = ["CommunityIndex", "count_pairs"]

#: (leaf, file) pairs :meth:`CommunityIndex.stretches` gathers at once
#: (whole communities; one larger than this is gathered alone).
_GATHER_PAIRS = 1 << 17


def count_pairs(
    files: Sequence[int], bounds: Sequence[int], superpeer: int, file_id: int
) -> int:
    """:meth:`CommunityIndex.count` on :meth:`CommunityIndex.stretches`
    already in hand, ids unchecked: the per-probe part of a query."""
    end = bounds[superpeer + 1]
    at = first = bisect_left(files, file_id, bounds[superpeer], end)
    # a file is shared by a leaf or two: a walk beats a second bisect
    while at < end and files[at] == file_id:
        at += 1
    return at - first


class CommunityIndex:
    """Membership map plus per-super-peer exact content indices."""

    def __init__(self, n_superpeers: int) -> None:
        if n_superpeers < 1:
            raise ValueError("n_superpeers must be >= 1")
        self.n_superpeers = int(n_superpeers)
        self._members: list[list[int]] = [[] for _ in range(n_superpeers)]
        #: the live super-peers' ids (read it; ``kill`` edits it).
        self.live = set(range(n_superpeers))
        # per leaf id: home super-peer (-1 = not attached) and the
        # leaf's stretch of _files
        self._home = array("i")
        self._start = array("q")
        self._stop = array("q")
        self._files = array("i")
        # derived; None = rebuild on next use
        self._stretches: tuple[memoryview, memoryview, list[int]] | None = None
        self._holder_index: HolderIndex | None = None

    def _check_superpeer(self, superpeer: int) -> None:
        if not 0 <= superpeer < self.n_superpeers:
            raise IndexError(
                f"super-peer id {superpeer} out of range [0, {self.n_superpeers})"
            )

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < len(self._home):
            raise IndexError(f"leaf id {leaf} out of range [0, {len(self._home)})")

    # -- membership -------------------------------------------------------
    def attach(self, leaf: int, superpeer: int, library: Iterable[int]) -> None:
        """Home ``leaf`` at ``superpeer``, sharing ``library`` (duplicates
        ignored).  A leaf id past those seen so far grows the per-leaf
        arrays; an orphan attached directly gets a new stretch."""
        try:
            files = array("i", sorted(set(library)))
        except OverflowError:
            raise ValueError("a file id does not fit the index's int32") from None
        self.attach_block(superpeer, [leaf], np.frombuffer(files, np.intc)[None])

    def attach_block(
        self, superpeer: int, leaves: Sequence[int], libraries: np.ndarray
    ) -> None:
        """:meth:`attach` for many leaves at once: leaf ``leaves[i]``
        shares row ``i`` of the 2-D ``libraries`` (duplicates ignored).

        One sort for the block; each row's distinct files are appended
        to the library buffer in leaf order, as one :meth:`attach` per
        leaf appends them.  Every leaf is checked before anything changes.
        """
        self._check_superpeer(superpeer)
        leaves = [int(leaf) for leaf in leaves]
        if min(leaves, default=0) < 0:
            raise IndexError(f"leaf id {min(leaves)} is negative")
        if superpeer not in self.live:
            raise ValueError(f"super-peer {superpeer} is not live")
        home, n_seen, given = self._home, len(self._home), set()
        for leaf in leaves:
            if leaf in given or (leaf < n_seen and home[leaf] >= 0):
                raise ValueError(f"leaf {leaf} is already attached")
            given.add(leaf)
        if libraries.ndim != 2 or len(libraries) != len(leaves):
            raise ValueError("libraries must hold one row per leaf")
        if libraries.dtype.kind not in "iu":
            raise TypeError(f"file ids must be integers, not {libraries.dtype}")
        block = np.sort(libraries, axis=1)
        if block.size and block[:, 0].min() < 0:
            raise ValueError(f"file id {block[:, 0].min()} is negative")
        if block.size and block[:, -1].max() > np.iinfo(np.intc).max:
            raise ValueError("a file id does not fit the index's int32")
        distinct = np.ones(block.shape, bool)
        np.not_equal(block[:, 1:], block[:, :-1], out=distinct[:, 1:])
        sizes = distinct.sum(axis=1)
        stops = len(self._files) + np.cumsum(sizes)
        unseen = max(leaves, default=-1) + 1 - len(self._home)
        if unseen > 0:
            self._home.extend(array("i", [-1]) * unseen)
            self._start.extend(array("q", [0]) * unseen)
            self._stop.extend(array("q", [0]) * unseen)
        self._files.frombytes(block[distinct].astype(np.intc).tobytes())
        # every leaf's stretch and home at once, through views of the
        # arrays that last only as long as each assignment
        at = np.array(leaves, dtype=np.intp)
        np.frombuffer(self._start, np.int64)[at] = stops - sizes
        np.frombuffer(self._stop, np.int64)[at] = stops
        np.frombuffer(self._home, np.intc)[at] = superpeer
        self._members[superpeer] += leaves
        self._stretches = self._holder_index = None

    def _join(self, leaf: int, superpeer: int) -> None:
        self._home[leaf] = superpeer
        self._members[superpeer].append(leaf)
        self._stretches = self._holder_index = None

    def superpeer_of(self, leaf: int) -> int:
        self._check_leaf(leaf)
        home = self._home[leaf]
        if home < 0:
            raise KeyError(leaf)
        return home

    def members(self, superpeer: int) -> list[int]:
        return list(self._members[superpeer])

    def load(self, superpeer: int) -> int:
        return len(self._members[superpeer])

    def is_live(self, superpeer: int) -> bool:
        self._check_superpeer(superpeer)
        return superpeer in self.live

    def live_superpeers(self) -> list[int]:
        return sorted(self.live)

    # -- libraries --------------------------------------------------------
    def library(self, leaf: int) -> frozenset[int]:
        """The files ``leaf`` shares (attached or orphaned), built on demand."""
        self._check_leaf(leaf)
        return frozenset(self._files[self._start[leaf] : self._stop[leaf]])

    def shares(self, leaf: int, file_id: int) -> bool:
        self._check_leaf(leaf)
        stop = self._stop[leaf]
        at = bisect_left(self._files, file_id, self._start[leaf], stop)
        return at < stop and self._files[at] == file_id

    # -- content lookup -----------------------------------------------------
    def stretches(self) -> tuple[memoryview, memoryview, list[int]]:
        """The community index, ``(files, leaves, bounds)``: community
        ``sp``'s (file, leaf) pairs are ``bounds[sp]:bounds[sp + 1]`` of
        the two ``int32`` views (which index as plain ints), sorted by
        file then leaf.  For :func:`count_pairs` and callers that inline
        it; replaced, never patched, so good until the next attach or
        kill."""
        if self._stretches is None:
            # leaves in community order, ascending within one: a
            # community's pairs are its members' stretches end to end
            members = [sorted(members) for members in self._members]
            order = np.fromiter(
                chain.from_iterable(members), np.intp, sum(map(len, members))
            )
            start = np.frombuffer(self._start, np.int64)[order]
            sizes = np.frombuffer(self._stop, np.int64)[order] - start
            pair_at = np.zeros(order.size + 1, np.int64)
            np.cumsum(sizes, out=pair_at[1:])
            leaf_at = np.zeros(self.n_superpeers + 1, np.intp)
            np.cumsum([len(m) for m in members], out=leaf_at[1:])
            bounds = pair_at[leaf_at].tolist()
            files = np.empty(bounds[-1], dtype=np.int32)
            leaves = np.empty(bounds[-1], dtype=np.int32)
            library = np.frombuffer(self._files, dtype=np.int32)
            n_files = int(library.max(initial=0)) + 1
            # whole communities a chunk at a time (a gather of the whole
            # population costs ~28 B a pair in temporaries, see
            # holders.py), each chunk in one sort of unique keys
            # (community, file, position): positions ascend with the
            # leaf, so a file's leaves come out ascending
            most = max(1, (1 << (62 - _GATHER_PAIRS.bit_length())) // n_files)
            sp = 0
            while sp < self.n_superpeers:
                last = bisect_right(bounds, bounds[sp] + _GATHER_PAIRS) - 1
                last = max(sp + 1, min(last, sp + most))
                lo, hi, base = leaf_at[sp], leaf_at[last], bounds[sp]
                shift = (bounds[last] - base).bit_length()
                at = np.repeat(start[lo:hi] - (pair_at[lo:hi] - base), sizes[lo:hi])
                at += np.arange(at.size)
                shared = library[at]
                key = np.repeat(
                    np.arange(last - sp, dtype=np.int64) * n_files,
                    np.diff(bounds[sp : last + 1]),
                )
                key += shared
                key <<= shift
                key |= np.arange(key.size)
                key.sort()
                key &= (1 << shift) - 1  # each pair's position, in order
                files[base : bounds[last]] = shared[key]
                leaves[base : bounds[last]] = np.repeat(order[lo:hi], sizes[lo:hi])[key]
                sp = last
            self._stretches = memoryview(files), memoryview(leaves), bounds
            set_sim_population_bytes("superpeer", self.nbytes)
        return self._stretches

    def count(self, superpeer: int, file_id: int) -> int:
        """How many leaves of one community share ``file_id`` (exact index)."""
        self._check_superpeer(superpeer)
        files, _leaves, bounds = self.stretches()
        return count_pairs(files, bounds, superpeer, file_id)

    def lookup(self, superpeer: int, file_id: int) -> list[int]:
        """The leaves :meth:`count` counts, ascending."""
        matches = self.count(superpeer, file_id)
        files, leaves, bounds = self.stretches()
        first = bisect_left(files, file_id, bounds[superpeer], bounds[superpeer + 1])
        return leaves[first : first + matches].tolist()

    def index_size(self, superpeer: int) -> int:
        """(leaf, file) pairs one community indexes."""
        self._check_superpeer(superpeer)
        bounds = self.stretches()[2]
        return bounds[superpeer + 1] - bounds[superpeer]

    def files(self, superpeer: int) -> np.ndarray:
        """The distinct files one community shares, ascending."""
        self._check_superpeer(superpeer)
        files, _leaves, bounds = self.stretches()
        return np.unique(files[bounds[superpeer] : bounds[superpeer + 1]])

    def sharers(self, file_id: int) -> np.ndarray:
        """The community of every leaf sharing ``file_id``, ascending: a
        community appears once for each of its leaves that has the file."""
        if self._holder_index is None:
            files, _leaves, bounds = self.stretches()
            self._holder_index = HolderIndex(
                self.n_superpeers,
                1 + int(np.frombuffer(self._files, dtype=np.int32).max(initial=-1)),
                ((sp, files[at:end]) for sp, (at, end) in enumerate(pairwise(bounds))),
                capacity=bounds[-1],
            )
            set_sim_population_bytes("superpeer", self.nbytes)
        return self._holder_index.holders(file_id)

    def holders(self, file_id: int) -> np.ndarray:
        """Super-peers whose community shares ``file_id``, ascending."""
        return np.unique(self.sharers(file_id))

    @property
    def nbytes(self) -> int:
        """Bytes of the per-leaf arrays and libraries, plus whichever
        derived buffers are built right now."""
        held = [self._home, self._start, self._stop, self._files]
        held += (self._stretches or ())[:2]
        holder = self._holder_index
        return sum(len(b) * b.itemsize for b in held) + (holder.nbytes if holder else 0)

    # -- failure handling ---------------------------------------------------
    def kill(self, superpeer: int) -> list[int]:
        """Mark a super-peer dead; returns its orphaned leaves in id order.

        The dead node's index is dropped (its knowledge of who shares
        what dies with it); the caller re-homes the orphans via
        :meth:`reattach`.
        """
        self._check_superpeer(superpeer)
        if superpeer not in self.live:
            return []
        self.live.discard(superpeer)
        orphans = sorted(self._members[superpeer])
        self._members[superpeer] = []
        self._stretches = self._holder_index = None
        for leaf in orphans:
            self._home[leaf] = -1
        return orphans

    def reattach(self, orphans: Iterable[int]) -> dict[int, int]:
        """Deterministically re-home orphaned leaves; returns leaf -> new home.

        Each orphan (in leaf-id order) joins the least-loaded live
        super-peer, ties broken by the lowest id, and keeps its library.
        Loads update as orphans land, so a batch spreads instead of
        piling onto one node.
        """
        if not self.live:
            raise ValueError("no live super-peers to re-attach to")
        # (load, id) of every live super-peer: the smallest is the next
        # home, and only that one's load moves as an orphan lands
        homes = [(self.load(sp), sp) for sp in self.live]
        heapify(homes)
        placement: dict[int, int] = {}
        for leaf in sorted(orphans):
            self._check_leaf(leaf)
            if self._home[leaf] >= 0:
                raise ValueError(f"leaf {leaf} is already attached")
            load, target = homes[0]
            heapreplace(homes, (load + 1, target))
            self._join(leaf, target)
            placement[leaf] = target
        return placement
