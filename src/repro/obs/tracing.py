"""GUID-keyed hop-by-hop query tracing.

A Gnutella query is born with a GUID, fans out hop by hop, and its hits
retrace the GUID route backwards — so the GUID *is* the trace id.
:class:`QueryTracer` collects :class:`TraceEvent` records from every
servent that touches a descriptor (one shared tracer per cluster, or one
per node) and can reconstruct the full path of any query: where it was
issued, which nodes received it at which TTL, whether each hop
rule-routed or flooded it, where it matched a file, and how the hit
travelled back.  :func:`repro.obs.collect.format_trace_tree` is the one
viewer: it draws a trace, from one tracer or merged across nodes, as
the tree of forwarding decisions.

Event kinds used by the instrumented stack:

========== ==========================================================
``issued``       query originated at ``node``
``received``     query arrived at ``node`` from ``peer``
``duplicate``    query arrived again over another path and was dropped
``rule_routed``  forwarded along learned rules to ``targets``
``flooded``      forwarded to every other connection (no covering rule)
``ttl_expired``  not forwarded: TTL exhausted at ``node``
``hit``          matched ``info`` in the local library of ``node``
``hit_routed``   hit passed backwards through ``node`` towards ``peer``
``delivered``    hit reached the originating node
``timeout``      harness marker: the query quiesced with no hit
========== ==========================================================

Routing decisions carry *explainability* fields: a ``rule_routed`` event
records the matched rule's antecedent/consequent plus its live windowed
support and confidence; a ``flooded`` event records the fallback
``reason``; forward-path events record the descriptor ``ttl``.  Every
event also carries ``latency`` — seconds since this node first saw the
GUID — so hop latency survives export.

Timestamps come from ``time.time`` (wall clock) by default so spans
recorded in *different processes* merge onto one comparable timeline;
tests inject a fake clock instead of sleeping.

Retention is TTL-bounded on both axes: at most ``max_traces`` distinct
GUIDs are kept (oldest evicted first) and whole traces expire
:data:`TRACE_TTL` seconds after their last event, so a long-running
daemon's tracer is a ring buffer, not a leak.  ``sample`` thins by GUID —
``traced_guid(guid, n)`` keeps 1-in-``n`` — so the load generator and
every worker agree on which queries are traced without coordination.
Tracing off is ``tracer is None``: hot paths test that and skip.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "QueryTrace",
    "QueryTracer",
    "TraceEvent",
    "traced_guid",
]

#: seconds after its last event a whole trace expires.
TRACE_TTL = 300.0


def traced_guid(guid: int, sample: int) -> bool:
    """Is this GUID in the 1-in-``sample`` traced subset?

    ``sample <= 1`` traces everything.  Both the load generator and the
    worker servents mint GUIDs sequentially, so ``guid % sample == 0``
    picks an even 1-in-N slice with zero coordination between processes.
    """
    return sample <= 1 or guid % sample == 0


@dataclass(frozen=True)
class TraceEvent:
    """One step in a query's life, as seen by one node."""

    ts: float
    node: int
    kind: str
    peer: int | None = None
    info: str = ""
    # Routing explainability (populated where the decision is made).
    ttl: int | None = None
    antecedent: int | None = None
    consequent: int | None = None
    confidence: float | None = None
    support: int | None = None
    reason: str = ""
    # Seconds since this node first saw the GUID (node-local hop latency).
    latency: float | None = None

    def to_dict(self) -> dict:
        """Plain-data form for JSON-lines export; ``None`` fields omitted."""
        doc: dict = {"ts": self.ts, "node": self.node, "kind": self.kind}
        if self.peer is not None:
            doc["peer"] = self.peer
        if self.info:
            doc["info"] = self.info
        if self.ttl is not None:
            doc["ttl"] = self.ttl
        if self.antecedent is not None:
            doc["antecedent"] = self.antecedent
        if self.consequent is not None:
            doc["consequent"] = self.consequent
        if self.confidence is not None:
            doc["confidence"] = self.confidence
        if self.support is not None:
            doc["support"] = self.support
        if self.reason:
            doc["reason"] = self.reason
        if self.latency is not None:
            doc["latency"] = self.latency
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceEvent":
        return cls(
            ts=float(doc["ts"]),
            node=int(doc["node"]),
            kind=str(doc["kind"]),
            peer=None if doc.get("peer") is None else int(doc["peer"]),
            info=str(doc.get("info", "")),
            ttl=None if doc.get("ttl") is None else int(doc["ttl"]),
            antecedent=(
                None if doc.get("antecedent") is None else int(doc["antecedent"])
            ),
            consequent=(
                None if doc.get("consequent") is None else int(doc["consequent"])
            ),
            confidence=(
                None if doc.get("confidence") is None else float(doc["confidence"])
            ),
            support=None if doc.get("support") is None else int(doc["support"]),
            reason=str(doc.get("reason", "")),
            latency=None if doc.get("latency") is None else float(doc["latency"]),
        )


@dataclass
class QueryTrace:
    """Every recorded event for one GUID, in arrival order."""

    guid: int
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def started(self) -> float:
        return self.events[0].ts if self.events else 0.0

    @property
    def last_event(self) -> float:
        return self.events[-1].ts if self.events else 0.0

    @property
    def answered(self) -> bool:
        return any(e.kind == "delivered" for e in self.events)

    @property
    def hops(self) -> int:
        """Distinct nodes the query itself reached."""
        return len(
            {e.node for e in self.events if e.kind in ("issued", "received")}
        )

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]


class QueryTracer:
    """Bounded, GUID-keyed store of in-flight and recent query traces."""

    def __init__(
        self,
        *,
        max_traces: int = 1024,
        clock: Callable[[], float] = time.time,
        sample: int = 1,
    ) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.max_traces = max_traces
        self.sample = sample
        self._clock = clock
        self._traces: "OrderedDict[int, QueryTrace]" = OrderedDict()

    def wants(self, guid: int) -> bool:
        """Would ``record`` keep events for this GUID?

        Hot paths check this *before* computing explainability extras
        (rule confidence, support) so untraced queries pay nothing.
        """
        return traced_guid(guid, self.sample)

    def record(
        self,
        guid: int,
        node: int,
        kind: str,
        *,
        peer: int | None = None,
        info: str = "",
        ttl: int | None = None,
        antecedent: int | None = None,
        consequent: int | None = None,
        confidence: float | None = None,
        support: int | None = None,
        reason: str = "",
    ) -> None:
        """Append one event to the GUID's trace (creating it on first use)."""
        if not traced_guid(guid, self.sample):
            return
        now = self._clock()
        trace = self._traces.get(guid)
        if trace is None:
            self._evict(now)
            trace = self._traces[guid] = QueryTrace(guid)
        first_local = next(
            (e.ts for e in trace.events if e.node == node), None
        )
        latency = 0.0 if first_local is None else now - first_local
        event = TraceEvent(
            now,
            node,
            kind,
            peer,
            info,
            ttl=ttl,
            antecedent=antecedent,
            consequent=consequent,
            confidence=confidence,
            support=support,
            reason=reason,
            latency=latency,
        )
        trace.events.append(event)

    def _evict(self, now: float) -> None:
        """Drop expired traces, then the oldest beyond ``max_traces - 1``."""
        expired = [
            guid
            for guid, trace in self._traces.items()
            if now - trace.last_event > TRACE_TTL
        ]
        for guid in expired:
            del self._traces[guid]
        while len(self._traces) >= self.max_traces:
            self._traces.popitem(last=False)

    # -- queries -----------------------------------------------------------
    def trace(self, guid: int) -> QueryTrace | None:
        return self._traces.get(guid)

    def guids(self) -> list[int]:
        """Known GUIDs, oldest first."""
        return list(self._traces)

    def answered_guids(self) -> list[int]:
        return [g for g, t in self._traces.items() if t.answered]

    def __len__(self) -> int:
        return len(self._traces)

    def export_jsonl(self) -> str:
        """Every retained event as JSON lines (the ``/trace`` payload).

        One line per event, each self-describing with its ``guid``, so a
        collector can concatenate payloads from many nodes and merge by
        GUID without per-node framing.
        """
        lines = []
        for guid, trace in self._traces.items():
            for event in trace.events:
                doc = {"guid": guid}
                doc.update(event.to_dict())
                lines.append(json.dumps(doc, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

