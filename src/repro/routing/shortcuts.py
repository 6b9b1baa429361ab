"""Interest-based shortcuts (Sripanidkulchai et al., the paper's ref [7]).

Each peer keeps an ordered list of *shortcuts* — peers that satisfied its
past queries.  A new query first probes the shortcuts directly (cheap,
one message each); only if none of them has the content does the peer
fall back to flooding, and the flood's providers are added as new
shortcuts.  Interest-based locality makes the shortcut list likely to
keep working: a peer that shared one file in my interests probably shares
others.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.metrics.traffic import QueryOutcome
from repro.network.engine import QueryEngine
from repro.network.messages import Query
from repro.routing.base import RoutingPolicy, dispatch_select

__all__ = ["InterestShortcutsPolicy"]

#: shortcuts a peer keeps; the least recently successful goes first.
SHORTCUT_CAPACITY = 10


class InterestShortcutsPolicy(RoutingPolicy):
    """Probe learned shortcuts first, flood on a miss."""

    name = "shortcuts"

    def __init__(self, node_id: int, overlay) -> None:
        super().__init__(node_id, overlay)
        # provider id -> None, most-recently-successful last.
        self._shortcuts: OrderedDict[int, None] = OrderedDict()

    # -- transit behaviour: plain flooding ------------------------------
    select = RoutingPolicy.forward_to_all

    # -- origin driver ----------------------------------------------------
    def probe_shortcuts(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        """Ask every shortcut directly, one message each: the first rung
        of this policy's ladder and of the hybrid's."""
        # Most-recently-successful shortcuts are probed first; shortcuts
        # pointing at churned peers are still probed and simply miss.
        shortcuts = list(reversed(self._shortcuts))
        hits, messages = engine.probe(query, shortcuts) if shortcuts else ([], 0)
        if hits:
            self._touch(hits[0])
        return QueryOutcome(query.guid, messages, len(hits), 1 if hits else None, 0)

    def route_query(self, engine: QueryEngine, query: Query) -> QueryOutcome:
        probe = self.probe_shortcuts(engine, query)
        if probe.hits:
            return probe
        flood = engine.broadcast(query, dispatch_select(self.overlay))
        return flood.on_top_of(probe.messages)

    # -- learning ---------------------------------------------------------
    def on_reply(self, *, node_id, upstream, downstream, query, provider) -> None:
        if query.origin == self.node_id and node_id == self.node_id:
            self._touch(provider)

    def _touch(self, provider: int) -> None:
        if provider in self._shortcuts:
            self._shortcuts.move_to_end(provider)
        else:
            self._shortcuts[provider] = None
            while len(self._shortcuts) > SHORTCUT_CAPACITY:
                self._shortcuts.popitem(last=False)

    def reset(self) -> None:
        self._shortcuts.clear()

    @property
    def shortcut_list(self) -> list[int]:
        """Current shortcuts, most recent last (exposed for tests)."""
        return list(self._shortcuts)
