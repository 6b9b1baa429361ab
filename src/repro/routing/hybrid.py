"""Shortcuts + association rules hybrid (the paper's §VI combination).

§VI: "For interest-based shortcuts, association rules could be used to
route queries that have not been successfully replied to when using the
shortcuts.  This would serve as one last chance to avoid flooding."

:class:`HybridShortcutAssociationPolicy` implements that escalation at
the origin:

1. probe the learned shortcut list (1 message per probe);
2. on a miss, attempt rule-based forwarding (transit nodes still apply
   their own rules / flood fallback per node);
3. only if that also misses, revert to a full flood.

Both learning structures update from the same reply feedback, so the
policy composes the two papers' mechanisms rather than re-implementing
them.
"""

from __future__ import annotations

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.base import dispatch_select
from repro.routing.shortcuts import InterestShortcutsPolicy

__all__ = ["HybridShortcutAssociationPolicy"]


class HybridShortcutAssociationPolicy(AssociationRoutingPolicy):
    """Shortcut probes, then rule routing, then flooding."""

    name = "hybrid"

    def __init__(self, node_id: int, overlay, **kwargs) -> None:
        super().__init__(node_id, overlay, **kwargs)
        # Compose an embedded shortcuts policy for its list maintenance.
        self._shortcuts = InterestShortcutsPolicy(node_id, overlay)

    # -- transit behaviour: inherited association select ------------------

    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        # Stage 1: shortcut probes.
        probe = self._shortcuts.probe_shortcuts(engine, query)
        if probe.hits:
            return probe
        # Stage 2: rule-based attempt (per-node rules, per-node fallback).
        attempt = engine.broadcast(query, dispatch_select(self.overlay)).on_top_of(
            probe.messages
        )
        if attempt.hits:
            return attempt
        # Stage 3: last-resort flood.
        return engine.broadcast(query).on_top_of(attempt.messages, attempt.duplicates)

    # -- learning: feed both structures -----------------------------------
    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        super().on_reply(
            node_id=node_id,
            upstream=upstream,
            downstream=downstream,
            query=query,
            provider=provider,
        )
        self._shortcuts.on_reply(
            node_id=node_id,
            upstream=upstream,
            downstream=downstream,
            query=query,
            provider=provider,
        )

    def reset(self) -> None:
        super().reset()
        self._shortcuts.reset()

    @property
    def shortcut_list(self) -> list[int]:
        return self._shortcuts.shortcut_list
