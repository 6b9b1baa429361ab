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
from repro.routing.base import RoutingPolicy, dispatch_select

__all__ = ["AssociationRoutingPolicy"]


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
        # Locally issued queries use the node's own id as the antecedent
        # (the engine's reply pass credits them the same way).
        antecedent = upstream if upstream is not None else node
        consequents = self.rules.consequents(antecedent, self.top_k)
        if consequents:
            live = [v for v in consequents if v != upstream]
            if live:
                return live
        return self.overlay.topology.neighbors(node)

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
