"""Mutable overlay topology (substrate for §VI topology adaptation).

The base :class:`~repro.network.topology.Topology` is immutable — right
for trace-driven work, wrong for the paper's future-work idea of
*re-arranging the overlay* using mined rules.  :class:`DynamicTopology`
exposes the same read interface plus edge addition/removal with a
per-node degree cap (real peers have connection budgets).

Every mutation bumps :attr:`DynamicTopology.version`; the two derived
views — the sorted neighbour tuple per node and the CSR arrays the
propagation kernel gathers from — are rebuilt from the adjacency sets when
they are older than that, so a rewire between two queries (or from inside
a reply hook) is what the next query floods over.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.network.topology import csr_arrays

__all__ = ["DynamicTopology"]


class DynamicTopology:
    """An undirected graph supporting edge rewiring under a degree cap."""

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int]],
        *,
        max_degree: int | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if max_degree is not None and max_degree < 1:
            raise ValueError("max_degree must be >= 1 or None")
        self.max_degree = max_degree
        self._adj: list[set[int]] = [set() for _ in range(n_nodes)]
        self.n_edges = 0
        #: bumped by every edge addition or removal.
        self.version = 0
        # sorted(self._adj[u]) per node, None once an edge at u changed
        self._sorted: list[tuple[int, ...] | None] = [None] * n_nodes
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._csr_version = -1
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_topology(cls, topology, *, max_degree: int | None = None) -> "DynamicTopology":
        """Thaw an immutable :class:`Topology` into a dynamic one."""
        return cls(topology.n_nodes, topology.edges(), max_degree=max_degree)

    # -- read interface (mirrors Topology) -------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    def neighbors(self, node: int) -> tuple[int, ...]:
        cached = self._sorted[node]
        if cached is None:
            cached = self._sorted[node] = tuple(sorted(self._adj[node]))
        return cached

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The current adjacency as :func:`csr_arrays`, neighbours ascending."""
        if self._csr_version != self.version:
            self._csr = csr_arrays([self.neighbors(u) for u in range(self.n_nodes)])
            self._csr_version = self.version
        return self._csr

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def component_of(self, start: int) -> set[int]:
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

    # -- mutation ----------------------------------------------------------
    def _edge_changed(self, u: int, v: int) -> None:
        self.version += 1
        self._sorted[u] = self._sorted[v] = None

    def can_add_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) can be added under the degree cap."""
        if u == v or self.has_edge(u, v):
            return False
        if self.max_degree is not None:
            if len(self._adj[u]) >= self.max_degree:
                return False
            if len(self._adj[v]) >= self.max_degree:
                return False
        return True

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if self.has_edge(u, v):
            return
        if not self.can_add_edge(u, v):
            raise ValueError(
                f"degree cap {self.max_degree} forbids edge ({u}, {v})"
            )
        self._adj[u].add(v)
        self._adj[v].add(u)
        self.n_edges += 1
        self._edge_changed(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self.n_edges -= 1
        self._edge_changed(u, v)

    def detach_node(self, node: int) -> list[tuple[int, int]]:
        """Remove every edge incident to ``node``; returns them (u < v).

        The churn driver (:class:`repro.faults.churn.TopologyChurn`) uses
        this for peer departure: the returned edges are what a later
        rejoin restores.
        """
        removed = []
        for neighbor in self.neighbors(node):
            self.remove_edge(node, neighbor)
            removed.append((min(node, neighbor), max(node, neighbor)))
        return removed

    def __repr__(self) -> str:  # pragma: no cover
        return f"DynamicTopology(n={self.n_nodes}, edges={self.n_edges})"
