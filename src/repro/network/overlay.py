"""Overlay assembly: topology + content + policies + workload.

:class:`Overlay` owns the peers and the engine, and drives query
workloads against a chosen routing policy.  Churn (peer turnover) can be
enabled between queries: a departed peer keeps its graph position (the
monitor-node view of Gnutella, where a connection slot refills) but gets
a fresh identity — new library, new interests, and a reset policy table
slot for its neighbors to re-learn.

The overlay also keeps what the propagation kernel
(:mod:`repro.network.engine`) would otherwise ask node by node: a holder
index (which nodes share a file, patched when a peer churns) and, derived
from the installed policies, which nodes forward to every neighbour and
whether any node learns from replies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.traffic import TrafficStats
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.network.node import PeerNode
from repro.network.topology import (
    Topology,
    barabasi_albert,
    erdos_renyi,
    random_regular,
)
from repro.utils.rng import as_generator, spawn_child
from repro.utils.validation import check_probability
from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel
from repro.workload.zipf import ZipfSampler

__all__ = ["OverlayConfig", "Overlay"]


@dataclass(frozen=True)
class OverlayConfig:
    """Parameters of an overlay experiment."""

    n_nodes: int = 800
    topology: str = "random_regular"  # or "erdos_renyi", "barabasi_albert"
    degree: int = 6
    n_categories: int = 40
    files_per_category: int = 250
    library_size: int = 60
    interests_per_peer: int = 4
    ttl: int = 7
    #: probability (per issued query) that one random peer churns.
    churn_rate: float = 0.0
    #: build a mutable topology (required by rule-driven rewiring, §VI).
    dynamic_topology: bool = False
    #: degree cap enforced on rewiring (dynamic topology only).
    max_degree: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise ValueError("n_nodes must be >= 4")
        if self.topology not in ("random_regular", "erdos_renyi", "barabasi_albert"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")
        if self.library_size < 0:
            raise ValueError("library_size must be >= 0")
        check_probability("churn_rate", self.churn_rate)


class Overlay:
    """A populated unstructured overlay network."""

    def __init__(self, config: OverlayConfig | None = None, *, seed=None) -> None:
        self.config = config or OverlayConfig()
        self._rng = as_generator(seed)
        cfg = self.config
        topo_rng = spawn_child(self._rng)
        if cfg.topology == "random_regular":
            if (cfg.n_nodes * cfg.degree) % 2:
                raise ValueError("n_nodes * degree must be even for random_regular")
            self.topology: Topology = random_regular(cfg.n_nodes, cfg.degree, rng=topo_rng)
        elif cfg.topology == "erdos_renyi":
            self.topology = erdos_renyi(cfg.n_nodes, cfg.degree, rng=topo_rng)
        else:
            self.topology = barabasi_albert(cfg.n_nodes, max(1, cfg.degree // 2), rng=topo_rng)
        if cfg.dynamic_topology:
            from repro.network.dynamic import DynamicTopology

            self.topology = DynamicTopology.from_topology(
                self.topology, max_degree=cfg.max_degree
            )

        # (flooders, any learner) of the installed policies; None = rederive.
        self._policy_view: tuple[np.ndarray, bool] | None = None
        # one bound method for every peer, not one object each
        self._on_policy_change = self._policies_changed
        self.catalog = ContentCatalog(cfg.n_categories, cfg.files_per_category)
        self._interests = InterestModel(cfg.n_categories)
        self._file_rank = ZipfSampler(cfg.files_per_category, 1.0)
        self._nodes: list[PeerNode] = [
            self._fresh_peer(node_id) for node_id in range(cfg.n_nodes)
        ]
        # Holder index: every (file, holder) pair as file_id * n_nodes +
        # node_id, ascending, so a file's holders are a slice.  One buffer
        # with room for full libraries, in the narrowest integer type that
        # holds n_files * n_nodes, patched in place when a peer churns:
        # megabyte-sized temporaries are what moves peak RSS.
        self._holder_keys = np.empty(
            cfg.n_nodes * cfg.library_size,
            dtype=np.min_scalar_type(-self.catalog.n_files * cfg.n_nodes - 1),
        )
        self._n_held = 0
        for peer in self._nodes:
            keys = self._library_keys(peer)
            self._holder_keys[self._n_held : self._n_held + keys.size] = keys
            self._n_held += keys.size
        self._holder_keys[: self._n_held].sort()
        self.engine = QueryEngine(self)
        self._next_guid = 0
        # Churn decisions draw from their own stream so workloads stay
        # paired across churn-rate sweeps (same queries, different churn).
        self._churn_rng = spawn_child(self._rng)

    # ------------------------------------------------------------------
    def _fresh_peer(
        self, node_id: int, generation: int = 0, policy: object | None = None
    ) -> PeerNode:
        profile = self._interests.sample_profile(
            self._rng, width=self.config.interests_per_peer
        )
        library = self.catalog.sample_library(
            self._rng, profile, size=self.config.library_size
        )
        return PeerNode(
            node_id=node_id,
            profile=profile,
            library=library,
            policy=policy,
            generation=generation,
            policy_changed=self._on_policy_change,
        )

    def _library_keys(self, peer: PeerNode) -> np.ndarray:
        """``peer``'s library as holder-index keys, ascending."""
        keys = np.fromiter(
            peer.library, dtype=self._holder_keys.dtype, count=len(peer.library)
        )
        keys *= self.n_nodes
        keys += peer.node_id
        keys.sort()
        return keys

    def holders(self, file_id: int) -> np.ndarray:
        """Ids of the nodes whose library holds ``file_id``, ascending."""
        held = self._holder_keys[: self._n_held]
        if not 0 <= file_id < self.catalog.n_files:
            return held[:0]
        # bounds in the keys' own type: anything wider makes searchsorted
        # convert the whole vector first
        base = held.dtype.type(file_id * self.n_nodes)
        lo, hi = held.searchsorted(np.array((base, base + self.n_nodes)))
        return held[lo:hi] - base

    def _reindex(self, gone: np.ndarray, arrived: np.ndarray) -> None:
        """Take the keys ``gone`` out of the holder index and put
        ``arrived`` in (both ascending), shifting the stretches between
        them inside the buffer."""
        keys, held = self._holder_keys, self._n_held
        edges = [*keys[:held].searchsorted(gone).tolist(), held]
        for i in range(gone.size):
            # the stretch after the i-th removed key moves i + 1 down
            lo, hi = edges[i] + 1, edges[i + 1]
            keys[lo - i - 1 : hi - i - 1] = keys[lo:hi]
        held -= gone.size
        edges = [*keys[:held].searchsorted(arrived).tolist(), held]
        for i in reversed(range(arrived.size)):
            # the stretch after the i-th new key moves i + 1 up
            lo, hi = edges[i], edges[i + 1]
            keys[lo + i + 1 : hi + i + 1] = keys[lo:hi]
            keys[lo + i] = arrived[i]
        self._n_held = held + arrived.size

    def node(self, node_id: int) -> PeerNode:
        return self._nodes[node_id]

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def install_policies(self, policy_factory) -> None:
        """Give every node a policy instance from ``policy_factory(node_id, overlay)``."""
        for peer in self._nodes:
            peer.policy = policy_factory(peer.node_id, self)

    def _policies_changed(self) -> None:
        self._policy_view = None

    def _derived_from_policies(self) -> tuple[np.ndarray, bool]:
        if self._policy_view is None:
            # repro.routing imports this package
            from repro.routing.base import forwards_to_all, observes_replies

            policies = [peer.policy for peer in self._nodes]
            self._policy_view = (
                np.fromiter(map(forwards_to_all, policies), bool, len(policies)),
                any(map(observes_replies, policies)),
            )
        return self._policy_view

    @property
    def flooders(self) -> np.ndarray:
        """Boolean vector: nodes that forward a query to every neighbour
        (no policy, or one whose ``select`` is the flooding decision)."""
        return self._derived_from_policies()[0]

    @property
    def learns_from_replies(self) -> bool:
        """Whether any installed policy overrides the no-op ``on_reply``."""
        return self._derived_from_policies()[1]

    # ------------------------------------------------------------------
    def churn_one(self) -> int:
        """Replace one uniformly random peer with a fresh identity.

        The peer keeps its node id and edges (connection slots refill in
        unstructured overlays) but its content, interests, and learned
        policy state are reset; returns the churned node id.
        """
        node_id = int(self._churn_rng.integers(0, self.n_nodes))
        old = self._nodes[node_id]
        # The policy object stays, so what is derived from it does too.
        fresh = self._fresh_peer(
            node_id, generation=old.generation + 1, policy=old.policy
        )
        if old.policy is not None and hasattr(old.policy, "reset"):
            old.policy.reset()
        self._nodes[node_id] = fresh
        self._reindex(self._library_keys(old), self._library_keys(fresh))
        return node_id

    # ------------------------------------------------------------------
    def make_query(self, origin: int | None = None) -> Query:
        """Draw a query from a random (or given) node's interest profile."""
        cfg = self.config
        if origin is None:
            origin = int(self._rng.integers(0, self.n_nodes))
        profile = self._nodes[origin].profile
        category = profile.sample_category(self._rng)
        rank = self._file_rank.sample(self._rng)
        file_id = category * cfg.files_per_category + rank
        self._next_guid += 1
        return Query(
            guid=self._next_guid,
            origin=origin,
            file_id=file_id,
            category=category,
            ttl=cfg.ttl,
        )

    def run_workload(
        self,
        n_queries: int,
        *,
        warmup: int = 0,
    ) -> TrafficStats:
        """Issue queries through each origin's installed policy.

        ``warmup`` queries are executed first without recording statistics,
        letting learning policies populate their tables.  With
        ``churn_rate`` > 0, each issued query may be preceded by one peer
        churning.
        """
        if n_queries < 0 or warmup < 0:
            raise ValueError("n_queries and warmup must be non-negative")
        stats = TrafficStats()
        for i in range(warmup + n_queries):
            if self.config.churn_rate > 0.0 and (
                float(self._churn_rng.random()) < self.config.churn_rate
            ):
                self.churn_one()
            query = self.make_query()
            policy = self._nodes[query.origin].policy
            if policy is None:
                raise RuntimeError(
                    "no policy installed; call install_policies() first"
                )
            outcome = policy.route_query(self.engine, query)
            if i >= warmup:
                stats.record(outcome)
        return stats
