"""Overlay topology: one graph class and its generators (from scratch).

Unstructured P2P measurement studies variously report near-random and
power-law-ish overlays; we provide three generators so experiments can
check robustness to the topology class:

* :func:`random_regular` — every node has the same degree (configuration
  model with restarts);
* :func:`erdos_renyi` — G(n, p) with a connectivity repair pass;
* :func:`barabasi_albert` — preferential attachment (power-law degrees).

All generators return a :class:`Topology`: an adjacency-list graph with
simple (no self-loop, no multi-edge) undirected edges.  Most runs only
read it; §VI's rule-driven rewiring, offline churn replay
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

__all__ = ["Topology", "random_regular", "erdos_renyi", "barabasi_albert"]


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
        (:meth:`repro.network.hier.HierNetwork.kill_superpeer`) stays
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


def random_regular(n_nodes: int, degree: int, *, rng=None, max_tries: int = 50) -> Topology:
    """Random ``degree``-regular graph via the configuration model.

    Stubs are shuffled and paired; conflicting pairs (self-loops or
    duplicate edges) are repaired by double-edge swaps with random valid
    edges, which succeeds with overwhelming probability for degree << n.
    The whole construction retries until the graph is also connected.
    """
    rng = as_generator(rng)
    if degree < 1 or degree >= n_nodes:
        raise ValueError("need 1 <= degree < n_nodes")
    if (n_nodes * degree) % 2 != 0:
        raise ValueError("n_nodes * degree must be even")
    stubs = np.repeat(np.arange(n_nodes), degree)
    for _ in range(max_tries):
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
        f"failed to build a connected {degree}-regular graph in {max_tries} tries"
    )


def erdos_renyi(n_nodes: int, avg_degree: float, *, rng=None) -> Topology:
    """G(n, p) with p = avg_degree / (n-1), then connectivity repair.

    After sampling, nodes outside the largest component are attached to a
    uniformly random node inside it, so the result is always connected
    (at the cost of a slightly higher average degree).
    """
    rng = as_generator(rng)
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    p = avg_degree / (n_nodes - 1)
    if not 0.0 < p <= 1.0:
        raise ValueError("avg_degree out of range")
    # Vectorized upper-triangle sampling.
    iu, ju = np.triu_indices(n_nodes, k=1)
    mask = rng.random(iu.size) < p
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    topo = Topology(n_nodes, edges)
    # Repair: attach every non-giant node to the giant component.
    comp = topo.component_of(0)
    best = comp
    seen_all = set(comp)
    for node in range(n_nodes):
        if node not in seen_all:
            comp = topo.component_of(node)
            seen_all |= comp
            if len(comp) > len(best):
                best = comp
    if len(best) < n_nodes:
        inside = sorted(best)
        extra = []
        for node in range(n_nodes):
            if node not in best:
                anchor = inside[int(rng.integers(0, len(inside)))]
                extra.append((node, anchor))
        topo = Topology(n_nodes, topo.edges() + extra)
        # One repair round suffices only if each straggler attaches into
        # `best`; since every new edge lands in `best`, it does.
    return topo


def barabasi_albert(n_nodes: int, m: int, *, rng=None) -> Topology:
    """Barabási–Albert preferential attachment with ``m`` edges per node."""
    rng = as_generator(rng)
    if m < 1 or m >= n_nodes:
        raise ValueError("need 1 <= m < n_nodes")
    edges: list[tuple[int, int]] = []
    # Seed: a star over the first m+1 nodes (connected, m edges).
    targets = list(range(m))
    repeated: list[int] = []  # endpoint multiset for preferential choice
    for new in range(m, n_nodes):
        chosen: set[int] = set()
        while len(chosen) < m:
            if repeated and rng.random() < 0.9:
                cand = repeated[int(rng.integers(0, len(repeated)))]
            else:
                cand = int(rng.integers(0, new))
            if cand != new:
                chosen.add(cand)
        for t in chosen:
            edges.append((new, t))
            repeated.extend((new, t))
        targets.append(new)
    return Topology(n_nodes, edges)
