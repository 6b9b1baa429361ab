"""Hop-synchronous query propagation.

The engine implements the Gnutella mechanics every routing policy builds
on: per-node duplicate suppression by GUID, TTL decrement per hop, hit
detection against node libraries, and reverse-path reply delivery.  The
reply pass is what feeds learning policies — for each hit, every node on
the forward path observes which *downstream* neighbor the reply came back
through and which *upstream* neighbor originally handed it the query,
exactly the (antecedent, consequent) events the paper mines.

Traffic accounting counts **query transmissions** (one per edge
traversal); reply messages are proportional to hits in every scheme and
are therefore not part of the comparison, as in the paper.

:meth:`QueryEngine.reach` is array code, one step per hop rather than
per message, and :meth:`QueryEngine.broadcast` is that reach, the file's
holders inside it and the reply pass.  The topology is read as CSR
vectors (``topology.csr()``); "reached in this query" is a length-``n``
vector stamped with the query's epoch, so nothing is reset between
queries; ``parent`` is a second such vector; the frontier is an array in
discovery order.  One hop gathers the frontier's out-edges, counts those
that do not point back at the sender's own upstream as messages, and
keeps the first edge — in (frontier position, neighbour position) order —
into each node not yet reached.
That is the order in which a message-by-message loop would have reached
them, so every node gets the parent it would have got there, and the
reply pass hands every policy the same events in the same order.
:meth:`QueryEngine.reaches` runs the same hops for the floods of many
origins at once, over (origin, node) vectors.  The
per-message loop itself lives in ``tests/network/reference_engine.py`` as
the oracle the kernel is tested against.

The routing policy is the only pluggable part.  Nodes known to forward to
every neighbour are fanned out by the CSR gather; the others are asked,
all of a hop's at once when the callback has a ``frontier`` method and
through ``select`` one by one when it has not, and their edges are merged
back in frontier order.  The reply walk calls each node's hook from the
overlay's ``reply_hooks`` list.

A flood after which no reply walk runs needs no parents, and everything
else it reports is a function of each node's hop distance from the
origin.  :meth:`QueryEngine.broadcast` answers it from a table of those
distances, one ``uint8`` per (origin, node), kept until the topology's
``version`` moves and filled 64 origins at a time by one bitset
breadth-first search (:meth:`QueryEngine._fill_depths`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.metrics.traffic import QueryOutcome
from repro.network.messages import Query
from repro.utils.rng import as_generator

__all__ = ["QueryEngine", "Reach"]

#: origins per depth-table block: one bit each in a ``uint64`` per node.
DEPTH_BLOCK = 64
#: (origin, node) pairs per block of :meth:`QueryEngine.reaches`.
REACH_BLOCK_PAIRS = 1 << 17
#: a depth-table entry holds ``d - 1`` for a node ``d`` hops away; this
#: marks the origin, an unreached node and one deeper than any TTL.
FAR = 255

#: ``select(node, upstream, query)`` -> the nodes ``node`` forwards to.  A
#: callback may carry a ``flooders`` attribute, a boolean vector over the
#: nodes: those marked are not asked, they forward to every neighbour.  It
#: may also have a ``frontier(nodes, upstreams, query)`` method answering a
#: whole hop as ``(chosen, counts)``: every node's choices end to end in
#: (frontier position, choice position) order, and how many each made.
SelectFn = Callable[[int, int | None, Query], Sequence[int]]


class Reach(NamedTuple):
    """What one propagation reached (:meth:`QueryEngine.reach`)."""

    #: the nodes reached, in discovery order (the origin is not among them).
    order: np.ndarray
    #: position in ``order`` -> hops from the origin, ascending.
    depth: np.ndarray
    #: query transmissions, duplicate deliveries included.
    messages: int
    duplicates: int


class QueryEngine:
    """Propagation primitives over one overlay."""

    def __init__(self, overlay) -> None:
        self.overlay = overlay
        n = overlay.topology.n_nodes
        self._epoch = 0
        # node u was reached by / holds the file of the query whose epoch
        # the vector carries at u; a new query is a new epoch, not a reset
        self._reached = np.zeros(n, dtype=np.int64)
        self._holds = np.zeros(n, dtype=np.int64)
        # slot n stands for "no upstream" and is its own parent
        self._parent = np.full(n + 1, n, dtype=np.intp)
        self._slot = np.empty(n, dtype=np.intp)
        # One int object per node id (None in slot n).  Ids handed to
        # policies are these, not fresh ints from ``tolist()``: rule
        # tables keep what they are given for a whole window.
        self._ids = np.empty(n + 1, dtype=object)
        self._ids[:n] = range(n)
        # The depth table: block b holds rows for origins 64b .. 64b + 63,
        # allocated on the first flood from one of them (None until then),
        # and beside it what each node relays (its degree less the edge it
        # heard on); all of it belongs to one (topology, version).
        self._depth_key: tuple | None = None
        self._depth_blocks: list[np.ndarray | None] = []
        self._relays: np.ndarray | None = None

    def _check_origin(self, origin: int) -> None:
        n = self.overlay.topology.n_nodes
        if not 0 <= origin < n:
            raise ValueError(f"origin {origin} is not in range(0, {n})")

    # ------------------------------------------------------------------
    def reach(
        self,
        origin: int,
        ttl: int,
        select: SelectFn | None = None,
        query: Query | None = None,
    ) -> Reach:
        """Propagate from ``origin`` for ``ttl`` hops, whatever is asked for.

        ``select(node, upstream, query)`` returns the neighbors to forward
        to (the engine removes the upstream and already-counted duplicate
        deliveries are suppressed per standard Gnutella behaviour); it is
        handed ``query`` untouched.  For the origin, ``upstream`` is
        ``None``.  A callback with a ``frontier`` method (:data:`SelectFn`)
        is handed each hop's asked nodes in one call instead.  Without a
        ``select`` every node forwards to all its
        neighbours — a flood, whose reach depends on nothing but the
        origin, the TTL and the topology, so a caller may keep it.

        The parents stay in the engine's epoch-stamped vectors until the
        next call, for the reply walk.
        """
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self._check_origin(origin)
        self._epoch += 1
        epoch = self._epoch
        indptr, indices = self.overlay.topology.csr()
        flooders = None if select is None else getattr(select, "flooders", None)
        if flooders is not None and not flooders.any():
            # nobody to fan out: skip the per-hop split of the frontier
            flooders = None
        frontier_of = getattr(select, "frontier", None)
        reached, parent, slot = self._reached, self._parent, self._slot
        reached[origin] = epoch
        parent[origin] = len(reached)
        frontier = np.array([origin], dtype=np.intp)
        messages = 0
        duplicates = 0
        rings: list[np.ndarray] = []
        while frontier.size and len(rings) < ttl:
            if select is None:
                sources, targets = self._fan_out(frontier, indptr, indices)
            else:
                sources, targets = self._ask(
                    frontier, select, frontier_of, flooders, query, indptr, indices
                )
            sent = targets.size - int(np.count_nonzero(targets == parent[sources]))
            # edges into nodes not reached before this hop ...
            new = (reached[targets] != epoch).nonzero()[0]
            heads = targets[new]
            # ... and of those the first into each node: written back to
            # front, the last write to a slot is the smallest position.
            position = np.arange(new.size)
            slot[heads[::-1]] = position[::-1]
            new = new[slot[heads] == position]
            frontier = targets[new]
            parent[frontier] = sources[new]
            reached[frontier] = epoch
            messages += sent
            duplicates += sent - frontier.size
            rings.append(frontier)
        return Reach(
            np.concatenate(rings),
            np.repeat(np.arange(1, len(rings) + 1), [ring.size for ring in rings]),
            messages,
            duplicates,
        )

    def reaches(self, origins: Sequence[int], ttl: int) -> list[Reach]:
        """:meth:`reach` of a flood from each of ``origins``, in order: the
        same reaches, a block of origins propagated together.

        A hop gathers every (origin, frontier node) pair's out-edges in
        (origin, frontier position, neighbour position) order, so the
        first edge into each (origin, node) pair is the one :meth:`reach`
        keeps.  A block holds a few (origins x nodes) vectors of about
        1 MiB each.  No engine state moves (there is no reply walk to
        leave parents for).
        """
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        origins = [int(origin) for origin in origins]
        for origin in origins:
            self._check_origin(origin)
        indptr, indices = self.overlay.topology.csr()
        block = max(1, REACH_BLOCK_PAIRS // (indptr.size - 1))
        out: list[Reach] = []
        for first in range(0, len(origins), block):
            out += self._reach_block(
                np.array(origins[first : first + block], dtype=np.intp),
                ttl,
                indptr,
                indices,
            )
        return out

    @staticmethod
    def _reach_block(
        origins: np.ndarray, ttl: int, indptr: np.ndarray, indices: np.ndarray
    ) -> list[Reach]:
        """:meth:`reaches` of one block: (origin row, node) pairs are
        ``row * n + node`` in the per-pair vectors."""
        k, n = origins.size, indptr.size - 1
        rows = np.arange(k)
        reached = np.zeros(k * n, dtype=bool)
        reached[rows * n + origins] = True
        # each reached pair's upstream node; n is the origin's "none"
        parent = np.full(k * n, n, dtype=np.intp)
        slot = np.empty(k * n, dtype=np.intp)
        messages = np.zeros(k, dtype=np.int64)
        duplicates = np.zeros(k, dtype=np.int64)
        row, frontier = rows, origins
        rings: list[tuple[np.ndarray, np.ndarray]] = []
        while frontier.size and len(rings) < ttl:
            sources, targets = QueryEngine._fan_out(frontier, indptr, indices)
            edge_row = row.repeat(indptr[frontier + 1] - indptr[frontier])
            pair = edge_row * n
            sent = np.bincount(
                edge_row[targets != parent[pair + sources]], minlength=k
            )
            pair += targets
            # edges into pairs not reached before this hop, and of those
            # the first into each pair (see reach)
            new = (~reached[pair]).nonzero()[0]
            heads = pair[new]
            position = np.arange(new.size)
            slot[heads[::-1]] = position[::-1]
            new = new[slot[heads] == position]
            row, frontier = edge_row[new], targets[new]
            parent[pair[new]] = sources[new]
            reached[pair[new]] = True
            messages += sent
            duplicates += sent - np.bincount(row, minlength=k)
            rings.append((row, frontier))
        # each origin's rings end to end: hop order, then discovery order
        ring_rows = np.concatenate([ring_row for ring_row, _nodes in rings])
        by_row = np.argsort(ring_rows, kind="stable")
        order = np.concatenate([nodes for _row, nodes in rings])[by_row]
        depth = np.repeat(
            np.arange(1, len(rings) + 1), [ring_row.size for ring_row, _ in rings]
        )[by_row]
        ends = np.cumsum(np.bincount(ring_rows, minlength=k)).tolist()
        return [
            Reach(order[lo:hi], depth[lo:hi], sent_by, duplicated)
            for lo, hi, sent_by, duplicated in zip(
                [0, *ends], ends, messages.tolist(), duplicates.tolist()
            )
        ]

    def broadcast(
        self,
        query: Query,
        select: SelectFn | None = None,
        *,
        feedback: bool = True,
    ) -> QueryOutcome:
        """Propagate ``query`` breadth-first using ``select`` at each node
        (see :meth:`reach`): the reach, the file's holders inside it, and
        the reply walk back from each of them.

        A flood (no ``select``, or one whose ``flooders`` mark every node)
        that no reply walk follows (``feedback`` off, or an overlay whose
        ``learns_from_replies`` is false) is read off the depth table
        instead: the same outcome, no propagation.
        """
        self._check_origin(query.origin)
        holders = self._holders(query.file_id)
        if (holders == query.origin).any():
            # Local library satisfies the query with zero traffic.
            return QueryOutcome(
                query_id=query.guid,
                messages=0,
                hits=1,
                first_hit_hops=0,
                duplicates=0,
            )
        # the reply walk is skipped when the overlay says no installed
        # policy overrides the no-op ``on_reply``
        walks = feedback and getattr(self.overlay, "learns_from_replies", True)
        flooders = None if select is None else getattr(select, "flooders", None)
        floods = select is None or (flooders is not None and flooders.all())
        if floods and not walks:
            return self._flood_outcome(query, holders, self._depth_row(query.origin))
        order, depth, messages, duplicates = self.reach(
            query.origin, query.ttl, select, query
        )
        holds = self._holds
        holds[holders] = self._epoch
        found = (holds[order] == self._epoch).nonzero()[0]
        first_hit_hops = None
        if found.size:
            first_hit_hops = int(depth[found[0]])
            if walks:
                self._deliver_replies(query, order[found], int(depth[-1]))
        return QueryOutcome(
            query_id=query.guid,
            messages=messages,
            hits=found.size,
            first_hit_hops=first_hit_hops,
            duplicates=duplicates,
        )

    def _flood_outcome(
        self, query: Query, holders: np.ndarray, depths: np.ndarray
    ) -> QueryOutcome:
        """What a flood of ``query`` finds, from its origin's table row.

        A node ``d`` hops away (entry ``d - 1``) is reached when
        ``d <= ttl`` and forwards when ``d < ttl``: to every neighbour but
        its parent, which is exactly one edge because a ``Topology`` has
        no self-loops and no multi-edges.  The origin forwards on all of
        its edges; every message that reaches no new node is a duplicate.
        """
        ttl = query.ttl
        found = depths[holders]
        found = found[found < ttl]
        messages = int(self._relays[query.origin]) + 1 + int(
            self._relays[depths < ttl - 1].sum()
        )
        reached = int(np.count_nonzero(depths < ttl))
        return QueryOutcome(
            query_id=query.guid,
            messages=messages,
            hits=found.size,
            first_hit_hops=int(found.min()) + 1 if found.size else None,
            duplicates=messages - reached,
        )

    def _depth_row(self, origin: int) -> np.ndarray:
        """``origin``'s row of the depth table, its block filled if new."""
        topology = self.overlay.topology
        key = (topology, topology.version)
        if self._depth_key != key:
            indptr, _indices = topology.csr()
            self._depth_key = key
            self._depth_blocks = [None] * -(-topology.n_nodes // DEPTH_BLOCK)
            self._relays = np.diff(indptr) - 1
        block, row = divmod(origin, DEPTH_BLOCK)
        depths = self._depth_blocks[block]
        if depths is None:
            depths = self._depth_blocks[block] = self._fill_depths(block * DEPTH_BLOCK)
        return depths[row]

    def _fill_depths(self, first: int) -> np.ndarray:
        """Depth-table rows of origins ``first .. first + 63``: one
        breadth-first search for all of them, origin ``first + j`` being
        bit ``j`` of a ``uint64`` per node.

        A hop ORs each node's neighbours' frontier words together
        (``reduceat`` over the CSR gather) and keeps the bits the node has
        not seen.  After every hop each (origin, node) pair not seen yet
        counts one more, so a node ``d`` hops away ends at ``d - 1``;
        the origin, nodes never reached and nodes more than 255 hops away
        (no query's TTL reaches them) are set to :data:`FAR`.
        """
        indptr, indices = self.overlay.topology.csr()
        n = indptr.size - 1
        origins = np.arange(first, min(first + DEPTH_BLOCK, n))
        k = origins.size

        def unseen(words: np.ndarray) -> np.ndarray:
            # (node, origin) -> 1 where the origin's bit is clear; bit j of
            # a word is byte j // 8's bit j % 8 in little-endian order
            return np.unpackbits(
                (~words).astype("<u8").view(np.uint8).reshape(n, 8),
                axis=1,
                count=k,
                bitorder="little",
            )

        seen = np.zeros(n, dtype=np.uint64)
        seen[origins] = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
        frontier = seen.copy()
        linked = np.flatnonzero(indptr[1:] > indptr[:-1])
        heard = np.zeros(n, dtype=np.uint64)
        depths = np.zeros((n, k), dtype=np.uint8)
        for _hop in range(FAR):
            if not linked.size:
                break
            heard[linked] = np.bitwise_or.reduceat(frontier[indices], indptr[linked])
            frontier = heard & ~seen
            if not frontier.any():
                break
            seen |= frontier
            depths += unseen(seen)
        depths[unseen(seen).astype(bool)] = FAR
        depths[origins, np.arange(k)] = FAR
        return np.ascontiguousarray(depths.T)

    def ids(self, nodes: np.ndarray) -> list[int]:
        """``nodes`` as the engine's own int objects (see ``_ids``): what
        to hand a rule table instead of ``nodes.tolist()``."""
        return self._ids[nodes].tolist()

    @staticmethod
    def _fan_out(
        frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every out-edge of ``frontier`` as ``(sources, targets)``."""
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = counts.cumsum()
        # edge e of node p is indices[starts[p] + e - (edges before p)]
        at = (starts - ends + counts).repeat(counts)
        at += np.arange(at.size)
        return frontier.repeat(counts), indices[at]

    def _ask(
        self, frontier, select, frontier_of, flooders, query, indptr, indices
    ) -> tuple[np.ndarray, np.ndarray]:
        """Out-edges of a frontier whose nodes (but for ``flooders``) are
        asked — in one ``frontier_of`` call, or one by one through
        ``select`` — in (frontier position, choice position) order."""
        if flooders is None:
            asked = frontier
        else:
            floods = flooders[frontier]
            asked = frontier[~floods]
            if not asked.size:
                return self._fan_out(frontier, indptr, indices)
        nodes = self.ids(asked)
        upstreams = self.ids(self._parent[asked])
        if frontier_of is not None:
            chosen, counts = frontier_of(nodes, upstreams, query)
        else:
            chosen = []
            counts = []
            for node, upstream in zip(nodes, upstreams):
                before = len(chosen)
                chosen.extend(select(node, upstream, query))
                counts.append(len(chosen) - before)
        sources = asked.repeat(counts)
        targets = np.array(chosen, dtype=np.intp)
        if asked.size == frontier.size:
            return sources, targets
        flood_sources, flood_targets = self._fan_out(frontier[floods], indptr, indices)
        sources = np.concatenate((flood_sources, sources))
        targets = np.concatenate((flood_targets, targets))
        slot = self._slot
        slot[frontier] = np.arange(frontier.size)
        order = np.argsort(slot[sources], kind="stable")
        return sources[order], targets[order]

    def _deliver_replies(self, query: Query, providers: np.ndarray, depth: int) -> None:
        """Walk each hit's reverse path, notifying learning policies.

        At node ``w`` on the path, the reply arrived through ``downstream``
        (the next hop toward the provider) in response to a query received
        from ``upstream`` (or from the local user at the origin, modelled
        as the node's own id — the antecedent for locally issued queries).
        ``depth`` is how far the query got.
        """
        hooks = self._reply_hooks()
        # back[j] = the node j steps up from each provider; past the
        # origin that is slot n, which _ids turns into None.
        back = np.empty((depth + 2, providers.size), dtype=np.intp)
        back[0] = providers
        for j in range(depth + 1):
            back[j + 1] = self._parent[back[j]]
        for path in self.ids(back.T):
            provider = downstream = path[0]
            for j in range(1, depth + 1):
                w = path[j]
                if w is None:
                    break
                hook = hooks[w]
                if hook is not None:
                    upstream = path[j + 1]
                    hook(
                        node_id=w,
                        upstream=w if upstream is None else upstream,
                        downstream=downstream,
                        query=query,
                        provider=provider,
                    )
                downstream = w

    def _reply_hooks(self) -> Sequence:
        """Each node's ``on_reply`` (or ``None``): the overlay's list, or
        one read off the policies of an overlay that keeps none."""
        overlay = self.overlay
        hooks = getattr(overlay, "reply_hooks", None)
        if hooks is None:
            hooks = [
                getattr(overlay.node(u).policy, "on_reply", None)
                for u in range(overlay.n_nodes)
            ]
        return hooks

    def _holders(self, file_id: int) -> np.ndarray:
        """Ids of the nodes sharing ``file_id``: the overlay's holder
        index, or a scan of the libraries of an overlay that keeps none."""
        overlay = self.overlay
        if hasattr(overlay, "holders"):
            return overlay.holders(file_id)
        return np.array(
            [u for u in range(overlay.n_nodes) if overlay.node(u).shares(file_id)],
            dtype=np.intp,
        )

    # ------------------------------------------------------------------
    def walk(
        self,
        query: Query,
        *,
        n_walkers: int,
        rng=None,
        stop_on_hit: bool = True,
        steps: int | None = None,
    ) -> QueryOutcome:
        """k-random-walk propagation [6].

        ``n_walkers`` walkers leave the origin; each step forwards the
        query to one uniformly random neighbor (avoiding an immediate
        bounce-back when possible) and costs one message.  A walker
        terminates after ``steps`` steps (``query.ttl`` unless given: a
        walk's length is not a wire TTL and may exceed 255) or upon
        landing on a provider (when ``stop_on_hit``).
        """
        if n_walkers < 1:
            raise ValueError("n_walkers must be >= 1")
        if steps is None:
            steps = query.ttl
        rng = as_generator(rng)
        overlay = self.overlay
        origin = query.origin

        holders = set(self._holders(query.file_id).tolist())
        if origin in holders:
            return QueryOutcome(query.guid, 0, 1, 0, 0)

        messages = 0
        duplicates = 0
        visited: set[int] = {origin}
        providers: set[int] = set()
        first_hit_hops: int | None = None

        for _ in range(n_walkers):
            node = origin
            prev: int | None = None
            for step in range(steps):
                neighbors = overlay.topology.neighbors(node)
                if not neighbors:
                    break
                choices = [v for v in neighbors if v != prev] or list(neighbors)
                target = choices[int(rng.integers(0, len(choices)))]
                messages += 1
                if target in visited:
                    duplicates += 1
                else:
                    visited.add(target)
                prev, node = node, target
                if node in holders:
                    providers.add(node)
                    if first_hit_hops is None:
                        first_hit_hops = step + 1
                    if stop_on_hit:
                        break
        return QueryOutcome(
            query_id=query.guid,
            messages=messages,
            hits=len(providers),
            first_hit_hops=first_hit_hops,
            duplicates=duplicates,
        )

    # ------------------------------------------------------------------
    def probe(self, query: Query, targets: Sequence[int]) -> tuple[list[int], int]:
        """Directly ask specific nodes (shortcut checks).

        Each probe costs one message; returns (hit nodes, messages).
        """
        holders = set(self._holders(query.file_id).tolist())
        return [target for target in targets if target in holders], len(targets)
