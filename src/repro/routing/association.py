"""Association-rule routing — the paper's contribution, deployed online.

Each node mines rules ``{upstream neighbor} -> {downstream neighbor}``
from the replies that flow back through it (:class:`NeighborRuleTable`,
an exact sliding-window pair counter with support pruning).  When a query
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

from collections import Counter, deque
from typing import Sequence

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.base import RoutingPolicy, dispatch_select

__all__ = ["NeighborRuleTable", "AssociationRoutingPolicy"]


class _DownstreamCounts(Counter):
    """One antecedent's windowed downstream counts, plus ``ranked``: its
    qualified consequents, highest support first, or ``None`` once a count
    changed (a slot: an instance ``__dict__`` per counter costs more than
    the ranking it would hold)."""

    __slots__ = ("ranked",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ranked: tuple[int, ...] | None = None


class NeighborRuleTable:
    """Sliding-window (upstream -> downstream) rule counts for one node.

    Pairs older than ``window`` observations age out; a pair is a *rule*
    while its windowed count reaches ``min_support_count`` (the same
    support-pruning semantics as the offline GENERATE-RULESET, scaled to
    per-node online traffic volumes).
    """

    def __init__(self, *, window: int = 512, min_support_count: int = 2) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_support_count < 1:
            raise ValueError("min_support_count must be >= 1")
        self.window = window
        self.min_support_count = min_support_count
        self._events: deque[tuple[int, int]] = deque()
        self._counts: dict[int, _DownstreamCounts] = {}

    def observe(self, upstream: int, downstream: int) -> None:
        """Record one (query came from, reply came through) event."""
        self._events.append((upstream, downstream))
        counter = self._counts.get(upstream)
        if counter is None:
            counter = self._counts[upstream] = _DownstreamCounts()
        counter[downstream] += 1
        counter.ranked = None
        if len(self._events) > self.window:
            old_up, old_down = self._events.popleft()
            counter = self._counts[old_up]
            counter[old_down] -= 1
            counter.ranked = None
            if counter[old_down] <= 0:
                del counter[old_down]
                if not counter:
                    del self._counts[old_up]

    def consequents(self, upstream: int, k: int | None = None) -> list[int]:
        """Rule consequents for ``upstream``, highest support first."""
        counter = self._counts.get(upstream)
        if not counter:
            return []
        ranked = counter.ranked
        if ranked is None:
            qualified = [
                (count, down)
                for down, count in counter.items()
                if count >= self.min_support_count
            ]
            qualified.sort(key=lambda cd: (-cd[0], cd[1]))
            ranked = counter.ranked = tuple(down for _count, down in qualified)
        return list(ranked[:k])

    def n_rules(self) -> int:
        return sum(
            1
            for counter in self._counts.values()
            for count in counter.values()
            if count >= self.min_support_count
        )

    def rule_stats(self, upstream: int, downstream: int) -> tuple[int, float]:
        """Windowed ``(support, confidence)`` for one rule.

        Confidence divides the pair's count by every windowed observation
        with the same antecedent — the per-rule measures trace events
        carry for routing explainability.
        """
        counter = self._counts.get(upstream)
        if not counter:
            return 0, 0.0
        support = counter.get(downstream, 0)
        if support == 0:
            return 0, 0.0
        return support, support / sum(counter.values())

    def clear(self) -> None:
        self._events.clear()
        self._counts.clear()


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
        flood_fallback: bool = True,
    ) -> None:
        super().__init__(node_id, overlay)
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self.flood_fallback = flood_fallback
        self.rules = NeighborRuleTable(
            window=window, min_support_count=min_support_count
        )
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
        if attempt.hits or not self.flood_fallback:
            if attempt.hits:
                self.rule_resolved_count += 1
            return attempt
        # §III-B: revert to flooding when rule routing finds nothing.
        self.fallback_count += 1
        flood = engine.broadcast(query)
        return QueryOutcome(
            query_id=query.guid,
            messages=attempt.messages + flood.messages,
            hits=flood.hits,
            first_hit_hops=flood.first_hit_hops,
            duplicates=attempt.duplicates + flood.duplicates,
        )

    # -- learning -----------------------------------------------------------
    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        self.rules.observe(upstream, downstream)

    def reset(self) -> None:
        self.rules.clear()
