"""Drive a :class:`~repro.network.topology.Topology` from a fault plan.

The same :class:`~repro.faults.plan.FaultPlan` that batters a live
cluster can batter an *offline* strategy run: crash/restart become node
departure/rejoin (edges detached and restored), partition/heal remove
and restore the cross edges of the cut.  Link-level byte faults
(latency, corrupt, stall, …) have no offline analogue and are ignored —
the offline simulators move frames by function call, not by socket.

:class:`TopologyChurn` is a cursor over the plan: feed it the simulation
clock (block index, query index — any monotone time in the plan's units)
and it applies every event that has come due, mutating the topology in
place.  Strategy runs can then re-derive per-block neighbor sets from
``topology.neighbors`` exactly as the live stack re-derives them from
its connection table, so offline and live runs decay under the *same*
seeded churn.
"""

from __future__ import annotations

from repro.faults.plan import CRASH, HEAL, PARTITION, RESTART, FaultPlan

__all__ = ["TopologyChurn"]

#: events with an offline meaning; everything else is skipped.
_OFFLINE_KINDS = (CRASH, RESTART, PARTITION, HEAL)


class TopologyChurn:
    """Apply a plan's node/partition events to ``topology``, in place."""

    def __init__(self, topology, plan: FaultPlan) -> None:
        self.topology = topology
        self.plan = plan
        self._events = [e for e in plan.events if e.kind in _OFFLINE_KINDS]
        self._cursor = 0
        self._down_edges: dict[int, list[tuple[int, int]]] = {}
        self._cut_edges: list[tuple[int, int]] = []
        self._side: set[int] | None = None  # a side of the active partition
        #: deterministic application log, mirroring the live injector's.
        self.log: list[dict] = []

    # -- state -------------------------------------------------------------
    @property
    def down(self) -> set[int]:
        """Nodes currently departed."""
        return set(self._down_edges)

    def alive(self) -> set[int]:
        return set(range(self.topology.n_nodes)) - self.down

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._events)

    # -- the cursor --------------------------------------------------------
    def advance_to(self, now: float) -> list[dict]:
        """Apply every pending event with ``time <= now``; returns their
        log entries.  Times are in the plan's own units — callers map
        simulation progress (e.g. block index) onto them."""
        applied: list[dict] = []
        while (
            self._cursor < len(self._events)
            and self._events[self._cursor].time <= now
        ):
            event = self._events[self._cursor]
            self._cursor += 1
            self._apply(event)
            entry = event.as_dict()
            applied.append(entry)
            self.log.append(entry)
        return applied

    def finish(self) -> list[dict]:
        """Apply everything left and restore the end state (rejoin any
        departed node, heal any cut), exactly like the live injector."""
        applied = self.advance_to(float("inf"))
        for node in sorted(self._down_edges):
            edges = self._down_edges.pop(node)
            self._restore(edges)
            entry = {"time": self.plan.duration, "kind": "final-restart",
                     "node": node}
            applied.append(entry)
            self.log.append(entry)
        if self._cut_edges:
            self._side = None
            self._restore(self._cut_edges)
            self._cut_edges = []
            entry = {"time": self.plan.duration, "kind": "final-heal"}
            applied.append(entry)
            self.log.append(entry)
        return applied

    # -- event semantics ---------------------------------------------------
    def _apply(self, event) -> None:
        if event.kind == CRASH:
            self._down_edges[event.node] = self.topology.detach_node(event.node)
        elif event.kind == RESTART:
            edges = self._down_edges.pop(event.node, ())
            self._restore(edges)
        elif event.kind == PARTITION:
            self._side = a = set(event.groups[0])
            removed = []
            for u, v in self.topology.edges():
                if (u in a) != (v in a):
                    removed.append((u, v))
            for u, v in removed:
                self.topology.remove_edge(u, v)
            self._cut_edges = removed
        elif event.kind == HEAL:
            self._side = None
            self._restore(self._cut_edges)
            self._cut_edges = []

    def _restore(self, edges) -> None:
        side = self._side
        for u, v in edges:
            # an edge whose endpoint is departed follows that node: it is
            # re-stashed so the node's own rejoin restores it; one that
            # crosses the active partition waits for the heal, as the
            # live controller refuses a crossing link until then.  The
            # degree cap can also refuse a restore — that is real churn.
            departed = next(
                (n for n in (u, v) if n in self._down_edges), None
            )
            if departed is not None:
                self._down_edges[departed].append((u, v))
            elif side is not None and (u in side) != (v in side):
                self._cut_edges.append((u, v))
            elif self.topology.can_add_edge(u, v):
                self.topology.add_edge(u, v)
