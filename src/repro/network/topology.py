"""Overlay topology: one graph class and its generator (from scratch).

:func:`random_regular` builds the overlays the simulators run on: every
node has the same degree (configuration model with restarts).  It returns
a :class:`Topology`: an adjacency-list graph with simple (no self-loop,
no multi-edge) undirected edges.  Most runs only read it; §VI's
rule-driven rewiring, offline churn replay
(:class:`repro.faults.churn.TopologyChurn`) and a super-peer kill edit it
in place — ``add_edge`` / ``remove_edge`` / ``detach_node`` under an
optional per-node degree budget (real peers have connection budgets).
Every edit bumps :attr:`Topology.version`; the sorted neighbour tuples of
the two endpoints are replaced on the spot and the CSR arrays the
propagation kernel gathers from are rebuilt when older than the version,
so a rewire between two queries (or from inside a reply hook) is what the
next query floods over.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["Topology", "random_regular"]


def csr_arrays(adjacency: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of an adjacency list, neighbours in list order.

    Node ``u``'s neighbours are ``indices[indptr[u]:indptr[u + 1]]``; both
    vectors are ``intp`` so they index other arrays without a cast.
    """
    indptr = np.zeros(len(adjacency) + 1, dtype=np.intp)
    np.cumsum([len(neighbors) for neighbors in adjacency], out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.intp, count=int(indptr[-1])
    )
    return indptr, indices


class Topology:
    """Undirected graph over nodes ``0..n-1``, editable edge by edge."""

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int]],
        *,
        max_degree: int | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        # node -> its neighbours, ascending; an edit replaces two tuples
        self._adj: list[tuple[int, ...]] = [()] * n_nodes
        self.n_edges = 0
        #: bumped by every edge addition or removal.
        self.version = 0
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._csr_version = -1
        self.max_degree = max_degree
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def max_degree(self) -> int | None:
        """The rewiring budget: no edge is added at a node that already
        has this many (``None``: no budget)."""
        return self._max_degree

    @max_degree.setter
    def max_degree(self, cap: int | None) -> None:
        if cap is not None and (cap < 1 or cap < max(self.degrees())):
            raise ValueError(f"max_degree {cap} is below 1 or a node's degree")
        self._max_degree = cap

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The current adjacency as :func:`csr_arrays`, neighbours ascending.

        Built on first use and again after an edit: the tiered simulators
        build topologies whose baseline never propagates with the array
        kernel.
        """
        if self._csr_version != self.version:
            self._csr = csr_arrays(self._adj)
            self._csr_version = self.version
        return self._csr

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    # -- mutation -----------------------------------------------------------
    def can_add_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is a new edge both endpoints have budget for."""
        if u == v or self.has_edge(u, v):
            return False
        cap = self._max_degree
        return cap is None or (len(self._adj[u]) < cap and len(self._adj[v]) < cap)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if self.has_edge(u, v):
            return
        if not self.can_add_edge(u, v):
            raise ValueError(f"degree cap {self._max_degree} forbids edge ({u}, {v})")
        self._adj[u] = tuple(sorted((*self._adj[u], v)))
        self._adj[v] = tuple(sorted((*self._adj[v], u)))
        self.n_edges += 1
        self.version += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v})")
        self._adj[u] = tuple(w for w in self._adj[u] if w != v)
        self._adj[v] = tuple(w for w in self._adj[v] if w != u)
        self.n_edges -= 1
        self.version += 1

    def detach_node(self, node: int) -> list[tuple[int, int]]:
        """Remove every edge incident to ``node``; returns them (u < v).

        Peer departure: the churn driver
        (:class:`repro.faults.churn.TopologyChurn`) restores the returned
        edges on a rejoin, and a killed super-peer
        (:meth:`repro.network.hier.network.HierNetwork.kill_superpeer`) stays
        detached, so no flood or digest push reaches it.
        """
        removed = []
        for neighbor in self._adj[node]:
            self.remove_edge(node, neighbor)
            removed.append((min(node, neighbor), max(node, neighbor)))
        return removed

    # -- connectivity -------------------------------------------------------
    def component_of(self, start: int) -> set[int]:
        """Nodes reachable from ``start`` (BFS)."""
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def is_connected(self) -> bool:
        return len(self.component_of(0)) == self.n_nodes

    def shortest_path_length(self, src: int, dst: int) -> int | None:
        """Hop distance between two nodes, or ``None`` if disconnected."""
        if src == dst:
            return 0
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v == dst:
                        return dist[v]
                    queue.append(v)
        return None


#: whole-graph constructions :func:`random_regular` tries before it gives
#: up.  A try that succeeds returns, so the count moves no graph it
#: builds; it only has to outlast the smallest case, the 3-regular graph
#: on 4 nodes, which a try builds one time in eight (50 tries failed for
#: 0.17 % of seeds, 200 leave ~1e-11).
_REGULAR_TRIES = 200


def random_regular(n_nodes: int, degree: int, *, rng=None) -> Topology:
    """Random ``degree``-regular graph via the configuration model.

    Stubs are shuffled and paired; conflicting pairs (self-loops or
    duplicate edges) are repaired by double-edge swaps with random valid
    edges, which succeeds with overwhelming probability for degree << n.
    The whole construction retries until the graph is also connected,
    at most :data:`_REGULAR_TRIES` times.
    """
    rng = as_generator(rng)
    if degree < 1 or degree >= n_nodes:
        raise ValueError("need 1 <= degree < n_nodes")
    if (n_nodes * degree) % 2 != 0:
        raise ValueError("n_nodes * degree must be even")
    stubs = np.repeat(np.arange(n_nodes), degree)
    for _ in range(_REGULAR_TRIES):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges: set[tuple[int, int]] = set()
        bad: list[tuple[int, int]] = []
        for u, v in pairs:
            u, v = int(u), int(v)
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                bad.append((u, v))
            else:
                edges.add(key)
        if bad and not edges:
            continue  # every pair refused: no edge to swap with, so reshuffle
        ok = True
        edge_list = list(edges)
        for u, v in bad:
            # Swap (u, v) with a random existing edge (x, y) to form
            # (u, x) and (v, y), retrying until both new edges are valid.
            repaired = False
            for _attempt in range(200):
                idx = int(rng.integers(0, len(edge_list)))
                x, y = edge_list[idx]
                if rng.random() < 0.5:
                    x, y = y, x
                k1 = (min(u, x), max(u, x))
                k2 = (min(v, y), max(v, y))
                if u == x or v == y or k1 in edges or k2 in edges or k1 == k2:
                    continue
                edges.remove((min(x, y), max(x, y)))
                edges.add(k1)
                edges.add(k2)
                edge_list[idx] = k1
                edge_list.append(k2)
                repaired = True
                break
            if not repaired:
                ok = False
                break
        if not ok:
            continue
        topo = Topology(n_nodes, edges)
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"failed to build a connected {degree}-regular graph "
        f"in {_REGULAR_TRIES} tries"
    )
