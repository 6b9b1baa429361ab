"""Association-rule routing — the paper's contribution, deployed online.

Each node mines rules ``{upstream neighbor} -> {downstream neighbor}``
from the replies that flow back through it
(:class:`~repro.core.counts.WindowCounts`, exact sliding-window pair
counts with support pruning).  When a query
arrives from a neighbor covered by the rules, it is forwarded only to the
top-k consequent neighbors; otherwise the node floods — the per-node
fallback that lets this method deploy incrementally ("all nodes in the
network do not need to support this routing method").

A second, per-query fallback implements §III-B's "if hits aren't found
... the node can still revert to flooding": if the rule-routed attempt
finds nothing, the origin re-issues the query as a flood (both attempts'
messages are charged to the query).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.counts import WindowCounts
from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.base import (
    RoutingPolicy,
    _implementation,
    decide_by_rules,
    dispatch_select,
)

__all__ = ["AssociationRoutingPolicy", "decides_by_rules"]


class AssociationRoutingPolicy(RoutingPolicy):
    """Forward covered queries along learned rules; flood otherwise."""

    name = "association"

    def __init__(
        self,
        node_id: int,
        overlay,
        *,
        top_k: int = 2,
        window: int = 512,
        min_support_count: int = 2,
    ) -> None:
        super().__init__(node_id, overlay)
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self.rules = WindowCounts(window, min_support_count)
        #: queries this origin resolved on the first (rule-routed) attempt.
        self.rule_resolved_count = 0
        #: queries that needed the per-query flooding fallback.
        self.fallback_count = 0

    # -- transit decision -------------------------------------------------
    def select(self, node: int, upstream: int | None, query: Query) -> Sequence[int]:
        # the frontier pass on this node alone: one statement of the decision
        (picks,) = decide_by_rules(
            (node,),
            (upstream,),
            query,
            {node: self.rule_table()},
            self.overlay.topology.neighbors,
            None,
        )
        return picks

    def rule_table(self) -> tuple:
        """What :func:`~repro.routing.base.decide_by_rules` reads for this
        node.  An overlay lists it when it derives its policy view, so
        ``rules`` and ``top_k`` are fixed for the policy's life (rebind
        ``peer.policy`` to change them)."""
        return self.rules.rows, self.top_k, self.rules.rank

    # -- origin driver ------------------------------------------------------
    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        attempt = engine.broadcast(query, dispatch_select(self.overlay))
        if attempt.hits:
            self.rule_resolved_count += 1
            return attempt
        # §III-B: revert to flooding when rule routing finds nothing.
        self.fallback_count += 1
        return engine.broadcast(query).on_top_of(attempt.messages, attempt.duplicates)

    # -- learning -----------------------------------------------------------
    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        self.rules.observe(upstream, downstream)

    def reset(self) -> None:
        self.rules.clear()


def decides_by_rules(policy) -> bool:
    """Whether a node running ``policy`` makes the association decision
    (hybrid and topology-adapting nodes inherit it)."""
    return _implementation(policy, "select") is AssociationRoutingPolicy.select
