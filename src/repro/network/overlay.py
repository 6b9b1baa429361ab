"""Overlay assembly: topology + content + policies + workload.

:class:`Overlay` owns the peers and the engine, and drives query
workloads against a chosen routing policy.  Churn (peer turnover) can be
enabled between queries: a departed peer keeps its graph position (the
monitor-node view of Gnutella, where a connection slot refills) but gets
a fresh identity — new library, new interests, and a reset policy table
slot for its neighbors to re-learn.

The overlay also keeps what the propagation kernel
(:mod:`repro.network.engine`) would otherwise ask node by node: a
:class:`~repro.network.holders.HolderIndex` (which nodes share a file,
patched when a peer churns) and, derived from the installed policies
(:class:`PolicyView`), which nodes forward to every neighbour, each
node's rule table if it makes the association decision, each node's
bound ``on_reply`` hook and whether any node learns from replies.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from repro.metrics.traffic import TrafficStats
from repro.network.engine import QueryEngine
from repro.network.holders import HolderIndex
from repro.network.messages import Query
from repro.network.node import PeerNode
from repro.network.protocol import DEFAULT_TTL
from repro.network.topology import Topology, random_regular
from repro.obs.instruments import observe_sim_build
from repro.utils.rng import as_generator, spawn_child
from repro.utils.validation import check_probability
from repro.workload.content import ContentCatalog
from repro.workload.interests import InterestModel

__all__ = ["OverlayConfig", "Overlay", "PolicyView"]


@dataclass(frozen=True)
class OverlayConfig:
    """Parameters of an overlay experiment."""

    n_nodes: int = 800
    degree: int = 6
    n_categories: int = 40
    files_per_category: int = 250
    library_size: int = 60
    interests_per_peer: int = 4
    ttl: int = DEFAULT_TTL
    #: probability (per issued query) that one random peer churns.
    churn_rate: float = 0.0
    #: degree cap enforced on rule-driven rewiring (§VI).
    max_degree: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise ValueError("n_nodes must be >= 4")
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        if not 1 <= self.ttl <= 255:
            raise ValueError(f"ttl must be in 1..255, got {self.ttl}")
        if self.library_size < 0:
            raise ValueError("library_size must be >= 0")
        check_probability("churn_rate", self.churn_rate)


class PolicyView(NamedTuple):
    """What the engine reads of the installed policies, derived from
    them when first needed after a ``peer.policy`` rebinding."""

    #: nodes that forward a query to every neighbour.
    flooders: np.ndarray
    #: per node, ``policy.rule_table()`` if its ``select`` is the
    #: association decision, else ``None``.
    rule_tables: list[tuple | None]
    #: per node, its policy's bound ``on_reply``, or ``None`` when it has
    #: no policy or one that ignores replies.
    reply_hooks: list[Callable | None]
    #: whether any node has a reply hook.
    learns: bool


class Overlay:
    """A populated unstructured overlay network."""

    def __init__(self, config: OverlayConfig | None = None, *, seed=None) -> None:
        started = perf_counter()
        self.config = config or OverlayConfig()
        self._rng = as_generator(seed)
        cfg = self.config
        self.topology: Topology = random_regular(
            cfg.n_nodes, cfg.degree, rng=spawn_child(self._rng)
        )
        self.topology.max_degree = cfg.max_degree

        # derived from the installed policies; None = rederive.
        self._policy_view: PolicyView | None = None
        # one bound method for every peer, not one object each
        self._on_policy_change = self._policies_changed
        self.catalog = ContentCatalog(cfg.n_categories, cfg.files_per_category)
        self._interests = InterestModel(cfg.n_categories)
        self._nodes: list[PeerNode] = [
            self._fresh_peer(node_id) for node_id in range(cfg.n_nodes)
        ]
        # which nodes share a file; room for full libraries, since a
        # churned-in peer may share more than the one it replaces
        self._holder_index = HolderIndex(
            cfg.n_nodes,
            self.catalog.n_files,
            ((peer.node_id, peer.library) for peer in self._nodes),
            capacity=cfg.n_nodes * cfg.library_size,
        )
        self.engine = QueryEngine(self)
        self._next_guid = 0
        # Churn decisions draw from their own stream so workloads stay
        # paired across churn-rate sweeps (same queries, different churn).
        self._churn_rng = spawn_child(self._rng)
        observe_sim_build("overlay", started)

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

    def holders(self, file_id: int) -> np.ndarray:
        """Ids of the nodes whose library holds ``file_id``, ascending."""
        return self._holder_index.holders(file_id)

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

    def policy_view(self) -> PolicyView:
        """The installed policies as the engine reads them (:class:`PolicyView`)."""
        if self._policy_view is None:
            # repro.routing imports this package
            from repro.routing.association import decides_by_rules
            from repro.routing.base import forwards_to_all, observes_replies

            policies = [peer.policy for peer in self._nodes]
            flooders = np.fromiter(map(forwards_to_all, policies), bool, len(policies))
            hooks = [
                policy.on_reply if observes_replies(policy) else None
                for policy in policies
            ]
            self._policy_view = PolicyView(
                flooders=flooders,
                rule_tables=[
                    policy.rule_table() if decides_by_rules(policy) else None
                    for policy in policies
                ],
                reply_hooks=hooks,
                learns=any(hook is not None for hook in hooks),
            )
        return self._policy_view

    @property
    def flooders(self) -> np.ndarray:
        """Boolean vector: nodes that forward a query to every neighbour
        (no policy, or one whose ``select`` is the flooding decision)."""
        return self.policy_view().flooders

    @property
    def rule_tables(self) -> list[tuple | None]:
        """Per node, what the association decision reads (``None``: ask
        the node's policy)."""
        return self.policy_view().rule_tables

    @property
    def reply_hooks(self) -> list[Callable | None]:
        """Per node, the ``on_reply`` to call as a reply passes through it."""
        return self.policy_view().reply_hooks

    @property
    def learns_from_replies(self) -> bool:
        """Whether any installed policy overrides the no-op ``on_reply``."""
        return self.policy_view().learns

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
        index = self._holder_index
        index.replace(
            index.pack(node_id, old.library), index.pack(node_id, fresh.library)
        )
        return node_id

    # ------------------------------------------------------------------
    def make_query(self, origin: int | None = None) -> Query:
        """Draw a query from a random (or given) node's interest profile."""
        cfg = self.config
        if origin is None:
            origin = int(self._rng.integers(0, self.n_nodes))
        elif not 0 <= origin < self.n_nodes:
            raise ValueError(f"origin {origin} is not in range(0, {self.n_nodes})")
        profile = self._nodes[origin].profile
        category = profile.sample_category(self._rng)
        file_id = self.catalog.sample_file(self._rng, category)
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
