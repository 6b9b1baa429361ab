"""k-random walks (Gkantsidis et al., the paper's ref [6])."""

from __future__ import annotations

from typing import Sequence

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.base import RoutingPolicy
from repro.utils.rng import as_generator

__all__ = ["KRandomWalkPolicy"]


class KRandomWalkPolicy(RoutingPolicy):
    """Send ``k`` walkers, each with a long TTL.

    A walk lasts ``ttl_factor`` times the query's flooding TTL in steps —
    random walks trade traffic for latency, so they are allowed to run
    long, as in the original proposal.
    """

    name = "k-random-walk"

    def __init__(self, node_id: int, overlay, *, k: int = 4, ttl_factor: int = 8, seed=None) -> None:
        super().__init__(node_id, overlay)
        if k < 1 or ttl_factor < 1:
            raise ValueError("k and ttl_factor must be >= 1")
        self.k = k
        self.ttl_factor = ttl_factor
        self._rng = as_generator(seed)

    def select(self, node: int, upstream: int | None, query: Query) -> Sequence[int]:
        # Walk propagation never uses broadcast select; choose one random
        # neighbor for completeness if some driver broadcasts through us.
        neighbors = self.overlay.topology.neighbors(node)
        if not neighbors:
            return ()
        return (neighbors[int(self._rng.integers(0, len(neighbors)))],)

    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        return engine.walk(
            query, n_walkers=self.k, rng=self._rng, steps=query.ttl * self.ttl_factor
        )
