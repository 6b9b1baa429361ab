"""Routing-policy interface.

Every node holds its own policy *instance* (learning policies keep their
tables on it).  Two hooks matter:

* :meth:`RoutingPolicy.select` — called by the propagation engine at each
  node a query transits: given the node, the upstream neighbor it arrived
  from (``None`` at the origin) and the query, return the neighbors to
  forward to.
* :meth:`RoutingPolicy.route_query` — called once at the origin: drives
  the whole query (most policies just broadcast with per-node dispatch,
  but expanding ring retries with larger TTLs, shortcuts probe first,
  association routing may re-flood on a miss).

``dispatch_select`` builds the engine callback that routes each per-node
decision to *that node's own* policy — which is how a mixed deployment
(only some nodes running association routing, as the paper allows) works.
It also tells the engine which nodes it need not ask: a node with no
policy, or with one whose ``select`` *is* :meth:`RoutingPolicy.forward_to_all`
(:func:`forwards_to_all`), forwards to every neighbour, and the engine fans
those out from its CSR arrays.  A policy that floods therefore binds
``select = RoutingPolicy.forward_to_all`` rather than writing the same body
again — overriding ``select`` in a subclass takes the node off that list.

The engine hands the callback each hop's asked nodes at once
(``_PolicyDispatch.frontier``).  Nodes whose ``select`` is the
association decision are answered by :func:`decide_by_rules` from the
rule tables the overlay lists per node, with no call into the policy;
every other asked node is asked through its own ``select``, in place.
"""

from __future__ import annotations

import abc
from itertools import chain
from typing import Sequence

from repro.core.counts import forward_picks
from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query

__all__ = [
    "RoutingPolicy",
    "decide_by_rules",
    "dispatch_select",
    "forwards_to_all",
    "observes_replies",
]


def decide_by_rules(
    nodes, upstreams, query, tables, neighbors, ask
) -> list[Sequence[int]]:
    """What each of ``nodes`` forwards to, the association decision
    (§III-B) read straight off its rule table: one sequence per node.

    ``tables[node]`` is ``(rows, top_k, rank)`` — the node's
    ``rules.rows``, its ``top_k`` and ``rules.rank`` — or ``None`` for a
    node asked through ``ask(node, upstream, query)`` instead.  A query
    from ``upstream`` goes to :func:`~repro.core.counts.forward_picks` of
    the rule consequents for that antecedent, with the node's current
    neighbours as the usable set; with none of those left the node floods
    (``neighbors(node)``, the topology's tuple).  A query issued at the
    node has the node itself as its antecedent, as the reply walk credits
    it.
    """
    decided = []
    append = decided.append
    for node, upstream in zip(nodes, upstreams):
        table = tables[node]
        if table is None:
            append(ask(node, upstream, query))
            continue
        rows, top_k, rank = table
        usable = neighbors(node)
        row = rows.get(node if upstream is None else upstream)
        if row is not None:
            ranked = row.ranked
            if ranked is None:
                ranked = rank(row)
            picks = forward_picks(ranked, top_k, upstream, usable)
            if picks:
                append(picks)
                continue
        append(usable)
    return decided


class _PolicyDispatch:
    """What :func:`dispatch_select` returns (one module-level class: a
    class or closure made per query is garbage the collector must trace)."""

    __slots__ = ("overlay",)

    def __init__(self, overlay) -> None:
        self.overlay = overlay

    def __call__(self, node: int, upstream: int | None, query: Query) -> Sequence[int]:
        policy = self.overlay.node(node).policy
        if policy is None:
            # Nodes without a policy behave like vanilla Gnutella.
            return self.overlay.topology.neighbors(node)
        return policy.select(node, upstream, query)

    def frontier(self, nodes, upstreams, query) -> tuple[list[int], list[int]]:
        """One hop's asked ``nodes`` at once: their choices end to end, in
        (frontier position, choice position) order, and how many each made."""
        overlay = self.overlay
        tables = getattr(overlay, "rule_tables", None)
        if tables is None:
            # the overlay lists no rule tables: every node is asked
            tables = dict.fromkeys(nodes)
        decided = decide_by_rules(
            nodes, upstreams, query, tables, overlay.topology.neighbors, self
        )
        return list(chain.from_iterable(decided)), list(map(len, decided))

    @property
    def flooders(self):
        """Nodes the engine need not ask (``None``: the overlay keeps no such list)."""
        return getattr(self.overlay, "flooders", None)


def dispatch_select(overlay) -> _PolicyDispatch:
    """Engine callback delegating to each transit node's own policy."""
    return _PolicyDispatch(overlay)


class RoutingPolicy(abc.ABC):
    """Base class for per-node routing policies."""

    name: str = "abstract"

    def __init__(self, node_id: int, overlay) -> None:
        self.node_id = node_id
        self.overlay = overlay

    # -- per-transit-node decision -------------------------------------
    @abc.abstractmethod
    def select(self, node: int, upstream: int | None, query: Query) -> Sequence[int]:
        """Neighbors of ``node`` to forward ``query`` to."""

    def forward_to_all(self, node: int, upstream: int | None, query: Query) -> Sequence[int]:
        """The flooding decision: every neighbour (the engine drops the upstream)."""
        return self.overlay.topology.neighbors(node)

    # -- per-query driver (origin only) ----------------------------------
    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        """Default driver: one broadcast with per-node dispatch."""
        return engine.broadcast(query, dispatch_select(self.overlay))

    # -- optional feedback / lifecycle -----------------------------------
    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        """Reply passed back through this node (learning hook)."""

    def reset(self) -> None:
        """Forget learned state (called when the peer churns)."""


def _implementation(policy, method: str):
    """The plain function behind ``policy.<method>``, or ``None``."""
    return getattr(getattr(policy, method, None), "__func__", None)


def forwards_to_all(policy) -> bool:
    """Whether a node running ``policy`` forwards every query to every neighbour."""
    return (
        policy is None
        or _implementation(policy, "select") is RoutingPolicy.forward_to_all
    )


def observes_replies(policy) -> bool:
    """Whether ``policy`` does anything with a reply passing back through it."""
    return hasattr(policy, "on_reply") and (
        _implementation(policy, "on_reply") is not RoutingPolicy.on_reply
    )
