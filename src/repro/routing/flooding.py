"""TTL-limited flooding — the Gnutella baseline."""

from __future__ import annotations

from repro.routing.base import RoutingPolicy

__all__ = ["FloodingPolicy"]


class FloodingPolicy(RoutingPolicy):
    """Forward every query to every neighbor (minus the upstream).

    The engine enforces TTL and duplicate suppression; this policy is the
    paper's adversary: it reaches everything within the TTL horizon at the
    cost of a message per edge in that horizon.
    """

    name = "flooding"

    select = RoutingPolicy.forward_to_all
