"""Expanding-ring search (Lv et al., the paper's ref [5]).

Flood with a small TTL; on a miss, retry with a larger TTL.  Saves
traffic for popular (nearby) content but re-visits near nodes on every
retry — the extra-traffic caveat the paper's related-work section points
out, which these simulations reproduce.
"""

from __future__ import annotations

from dataclasses import replace

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.base import RoutingPolicy, dispatch_select

__all__ = ["ExpandingRingPolicy"]


class ExpandingRingPolicy(RoutingPolicy):
    """Flooding with an escalating TTL schedule."""

    name = "expanding-ring"

    #: successive TTLs tried until a hit (capped at the query's own TTL).
    schedule: tuple[int, ...] = (1, 2, 4, 7)

    select = RoutingPolicy.forward_to_all

    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        select = dispatch_select(self.overlay)
        # no ring sent yet: nothing found, nothing charged
        attempt = QueryOutcome(query.guid, 0, 0, None, 0)
        for ttl in self.schedule:
            ttl = min(ttl, query.ttl)
            attempt = engine.broadcast(replace(query, ttl=ttl), select).on_top_of(
                attempt.messages, attempt.duplicates
            )
            if attempt.hits or ttl >= query.ttl:
                break
        return attempt
