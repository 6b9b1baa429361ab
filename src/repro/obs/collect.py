"""Cluster-wide trace collection and live routing-quality rollups.

``live-node --metrics-port`` daemons scatter one query's story across
many tracers: each daemon's :class:`~repro.obs.tracing.QueryTracer` only
sees the hops its own servent took.  This module is the read side that
puts the story back together, in the idiom of :mod:`repro.obs.scrape`:
poll every node's ``/trace`` (JSON-lines spans)
and ``/metrics`` (Prometheus text) endpoints over plain HTTP, merge
spans by GUID — the GUID *is* the trace id, so concatenating per-node
span streams and sorting by wall-clock timestamp reconstructs the
cluster-wide query tree — and fold the counters into the paper's
quality measures, read live:

* **α (coverage)** — rule-routed decisions over all routing decisions;
* **ρ (success)**  — hits received per issued query (above 1 when a
  query draws several hits, so not the paper's ρ = s/n);
* **traffic per query** — outbound frames per issued query.

:class:`ClusterTraceCollector` keeps both the cumulative measures (the
servents' own counters, aggregated) and *rolling windows*: each poll's
counter deltas become one window, mirroring the paper's per-block
measurement on live traffic.  :func:`format_trace_tree` renders one
merged trace as a hop tree with per-edge routing explanations (matched
rule, confidence, support, or the flood fallback reason) and
:func:`format_cluster_rollup` renders the per-node / cluster / rolling
quality table the ``trace-view`` CLI prints.
"""

from __future__ import annotations

import json
import time
from collections import deque
from http.client import HTTPException
from typing import Callable, Iterable, Sequence

from repro.obs.instruments import quality_measures
from repro.obs.scrape import (
    histogram_quantile,
    merge_histograms,
    parse_histograms,
    parse_samples,
    scrape_text,
)
from repro.obs.tracing import QueryTrace, TraceEvent

__all__ = [
    "ClusterTraceCollector",
    "format_cluster_rollup",
    "format_trace_tree",
    "merge_spans",
    "parse_spans",
    "quality_measures",
]

#: the NodeStats field each series the quality measures read mirrors, by
#: metric and ``decision`` / ``direction`` label (NodeInstruments.sync).
_FIELDS = {
    ("repro_routing_decisions_total", "rule"): "queries_rule_routed",
    ("repro_routing_decisions_total", "flood"): "queries_flooded",
    ("repro_queries_issued_total", None): "queries_issued",
    ("repro_hits_received_total", None): "hits_received",
    ("repro_frames_total", "out"): "frames_out",
}

#: rolling windows kept; older ones fall off the front
MAX_WINDOWS = 64

#: what a fetch or parse of one node raises when the node is down or is
#: not a metrics endpoint (a servent's Gnutella port answers non-HTTP
#: bytes, which ``http.client`` raises as an ``HTTPException``).
_UNREACHABLE = (OSError, ValueError, HTTPException)

_ZERO = dict.fromkeys(_FIELDS.values(), 0.0)


def parse_spans(text: str) -> list[dict]:
    """Parse one ``/trace`` JSON-lines payload into event dicts."""
    docs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            docs.append(json.loads(line))
    return docs


def merge_spans(event_docs: Iterable[dict]) -> dict[int, QueryTrace]:
    """Merge span dicts from many nodes into per-GUID query traces.

    Events are grouped by GUID and ordered by wall-clock timestamp (the
    tracers' shared ``time.time`` base is what makes cross-process
    ordering meaningful); the sort is stable, so events a single node
    recorded in the same clock tick keep their recorded order.
    """
    by_guid: dict[int, list[TraceEvent]] = {}
    for doc in event_docs:
        by_guid.setdefault(int(doc["guid"]), []).append(
            TraceEvent.from_dict(doc)
        )
    traces: dict[int, QueryTrace] = {}
    for guid, events in by_guid.items():
        events.sort(key=lambda e: e.ts)
        traces[guid] = QueryTrace(guid, events)
    return traces


def _quality_counters(
    samples: Sequence[tuple[str, dict, float]],
) -> dict[str, float]:
    """Fold one node's samples into the counters the measures need."""
    counters = dict(_ZERO)
    for name, labels, value in samples:
        field = _FIELDS.get((name, labels.get("decision", labels.get("direction"))))
        if field is not None:
            counters[field] += value
    return counters


class ClusterTraceCollector:
    """Poll every node's ``/trace`` + ``/metrics``; merge spans and measures.

    ``endpoints`` is a sequence of ``(label, base_url)`` pairs (label is
    typically the node id).  Each :meth:`poll` re-fetches every node,
    folds new spans into :attr:`traces`, refreshes the per-node and
    cluster counters, merges latency histograms across nodes, and —
    from the second poll on — appends one rolling window of counter
    deltas (the last :data:`MAX_WINDOWS` are kept).  A node that cannot
    be reached, that does not answer HTTP, or whose reply does not parse
    is skipped for that poll (dead daemons must not hang a sweep),
    tallied in ``errors``.
    """

    def __init__(
        self,
        endpoints: Sequence[tuple[object, str]],
        *,
        timeout: float = 5.0,
        fetch: Callable[[str], str] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.endpoints = [(label, base.rstrip("/")) for label, base in endpoints]
        self._fetch = fetch or (lambda url: scrape_text(url, timeout=timeout))
        self._clock = clock
        self.traces: dict[int, QueryTrace] = {}
        self.per_node: dict[object, dict[str, float]] = {}
        self.cluster: dict[str, float] = dict(_ZERO)
        self.histograms: dict[str, dict] = {}
        self.windows: deque[dict] = deque(maxlen=MAX_WINDOWS)
        self.errors = 0
        self._last: tuple[float, dict[str, float]] | None = None

    def poll(self) -> dict:
        """One collection sweep; returns a small summary dict."""
        spans: list[dict] = []
        per_node: dict[object, dict[str, float]] = {}
        histograms: list[dict[str, dict]] = []
        for label, base in self.endpoints:
            try:
                spans.extend(parse_spans(self._fetch(base + "/trace")))
            except _UNREACHABLE:
                self.errors += 1
            try:
                metrics_text = self._fetch(base + "/metrics")
                counters = _quality_counters(parse_samples(metrics_text))
                node_histograms = parse_histograms(metrics_text)
            except _UNREACHABLE:
                self.errors += 1
                continue
            per_node[label] = counters
            histograms.append(node_histograms)
        self.traces.update(merge_spans(spans))
        self.per_node = per_node
        self.histograms = merge_histograms(*histograms)
        cluster = dict(_ZERO)
        for counters in per_node.values():
            for key, value in counters.items():
                cluster[key] += value
        now = self._clock()
        window = None
        if self._last is not None:
            prev_ts, prev = self._last
            deltas = {key: cluster[key] - prev[key] for key in cluster}
            window = {"seconds": now - prev_ts, **deltas}
            window.update(quality_measures(deltas))
            self.windows.append(window)
        self._last = (now, cluster)
        self.cluster = cluster
        return {
            "nodes": len(per_node),
            "traces": len(self.traces),
            "window": window,
        }

    # -- reads -------------------------------------------------------------
    def live_quality(self) -> dict[str, float]:
        """Cumulative α/ρ/traffic-per-query from the latest poll."""
        return quality_measures(self.cluster)

    def answered_guids(self) -> list[int]:
        return [guid for guid, t in self.traces.items() if t.answered]

    def best_guid(self) -> int | None:
        """The most interesting trace: latest answered, else latest seen."""
        answered = self.answered_guids()
        pool = answered or list(self.traces)
        if not pool:
            return None
        return max(pool, key=lambda guid: self.traces[guid].last_event)


def _edge_label(event: TraceEvent) -> str:
    if event.kind == "rule_routed":
        label = f"rule {event.antecedent}=>{event.consequent}"
        if event.confidence is not None:
            label += f" conf={event.confidence:.2f} sup={event.support}"
        return label
    label = "flood"
    if event.reason:
        label += f" {event.reason}"
    return label


def _node_summary(events: list[TraceEvent], t0: float) -> str:
    parts = []
    for event in events:
        if event.kind in ("rule_routed", "flooded"):
            continue
        desc = event.kind
        if event.kind == "issued" and event.info:
            desc = f"issued[{event.info}]"
        if event.kind == "hit" and event.info:
            desc = f"hit[{event.info}]"
        if event.ttl is not None and event.kind in ("issued", "received"):
            desc += f" ttl={event.ttl}"
        desc += f" +{(event.ts - t0) * 1000:.1f}ms"
        parts.append(desc)
    return ", ".join(parts)


def format_trace_tree(trace: QueryTrace) -> str:
    """Render one merged cross-node trace as a forwarding tree.

    Nodes are tree entries; each branch is one forwarding decision,
    labelled with its explanation (the matched rule with live
    confidence/support, or the flood fallback reason).  Edge targets
    with no events of their own — typically load-generator clients the
    query was flooded at — render as bare leaves.  Repeat arrivals over
    a second path are marked ``(dup)`` instead of being expanded twice.
    """
    if not trace.events:
        return f"query {trace.guid:#x}: no events"
    t0 = trace.started
    by_node: dict[int, list[TraceEvent]] = {}
    forwards: dict[int, list[TraceEvent]] = {}
    for event in trace.events:
        by_node.setdefault(event.node, []).append(event)
        if event.kind in ("rule_routed", "flooded") and event.peer is not None:
            forwards.setdefault(event.node, []).append(event)
    origin = trace.events[0].node
    outcome = "answered" if trace.answered else "unanswered"
    duration = (trace.last_event - t0) * 1000
    lines = [
        f"query {trace.guid:#x} — {outcome}, {trace.hops} nodes, "
        f"{len(trace.events)} events, {duration:.1f}ms"
    ]
    visited: set[int] = set()

    def walk(node: int, prefix: str, is_last: bool, edge: TraceEvent | None):
        connector = "" if edge is None else ("└─" if is_last else "├─")
        label = "" if edge is None else f"[{_edge_label(edge)}]→ "
        expanded = node not in visited
        visited.add(node)
        summary = _node_summary(by_node.get(node, []), t0)
        if node not in by_node:
            summary = "(no events)"
        elif not expanded:
            summary = "(dup)"
        lines.append(f"{prefix}{connector}{label}node {node} — {summary}")
        if not expanded:
            return
        children = sorted(forwards.get(node, []), key=lambda e: (e.ts, e.peer))
        extend = "" if edge is None else ("   " if is_last else "│  ")
        for i, child_edge in enumerate(children):
            walk(
                child_edge.peer,
                prefix + extend,
                i == len(children) - 1,
                child_edge,
            )

    walk(origin, "", True, None)
    return "\n".join(lines)


def format_cluster_rollup(collector: ClusterTraceCollector) -> str:
    """The per-node / cluster / rolling-window quality table (markdown)."""
    header = (
        "| node | alpha | rho | issued | hits | rule | flood |"
        " frames_out | traffic/query |"
    )
    rule = "|---|---|---|---|---|---|---|---|---|"

    def row(label, counters) -> str:
        m = quality_measures(counters)
        return (
            f"| {label} | {m['alpha']:.3f} | {m['rho']:.3f} |"
            f" {counters['queries_issued']:.0f} | {counters['hits_received']:.0f} |"
            f" {counters['queries_rule_routed']:.0f} |"
            f" {counters['queries_flooded']:.0f} |"
            f" {counters['frames_out']:.0f} | {m['traffic_per_query']:.2f} |"
        )

    lines = ["## Cluster routing quality", "", header, rule]
    for label in sorted(collector.per_node, key=str):
        lines.append(row(label, collector.per_node[label]))
    lines.append(row("**cluster**", collector.cluster))
    if collector.windows:
        lines += [
            "",
            "### Rolling windows (per-poll deltas)",
            "",
            "| window | seconds | alpha | rho | d_issued | d_hits |"
            " traffic/query |",
            "|---|---|---|---|---|---|---|",
        ]
        for i, w in enumerate(collector.windows):
            lines.append(
                f"| {i} | {w['seconds']:.1f} | {w['alpha']:.3f} |"
                f" {w['rho']:.3f} | {w['queries_issued']:.0f} |"
                f" {w['hits_received']:.0f} |"
                f" {w['traffic_per_query']:.2f} |"
            )
    if collector.histograms:
        lines += ["", "### Merged latency distributions", ""]
        for name in sorted(collector.histograms):
            hist = collector.histograms[name]
            if hist["count"] <= 0:
                continue
            p50 = histogram_quantile(hist, 0.50)
            p99 = histogram_quantile(hist, 0.99)
            lines.append(
                f"- `{name}`: count={hist['count']:.0f}"
                f" p50<={p50:g} p99<={p99:g}"
            )
    return "\n".join(lines) + "\n"
