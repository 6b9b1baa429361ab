"""Observability: metrics, structured logging, and query tracing.

The paper's premise is that a node watches its own traffic; this package
makes that watching operational for the whole stack:

* :mod:`repro.obs.registry` — dependency-free labeled counters, gauges
  and fixed-bucket histograms with a Prometheus text-format writer and a
  no-op :class:`~repro.obs.registry.NullRegistry` for the disabled path;
* :mod:`repro.obs.instruments` — per-node pre-bound metric handles used
  by the live daemon (hot-path histograms, scrape-time counter syncs);
* :mod:`repro.obs.logging` — JSON-lines structured logging with ambient
  node/peer contextvars and per-key rate limiting;
* :mod:`repro.obs.tracing` — GUID-keyed hop-by-hop query traces with
  TTL-bounded retention;
* :mod:`repro.obs.http` — an asyncio ``/metrics`` + ``/healthz`` +
  ``/trace`` endpoint servable from a running
  :class:`~repro.live.node.LiveServent`;
* :mod:`repro.obs.scrape` — the inverse of the registry's renderer:
  parse Prometheus text exposition (counters, gauges *and* histogram
  ``le`` buckets) back into samples, and fetch one ``/metrics`` page;
* :mod:`repro.obs.collect` — the cross-daemon trace collector: merge
  per-node ``/trace`` spans by GUID into query trees and fold counters
  into rolling live α/ρ/traffic-per-query windows.

See ``docs/observability.md`` for metric names, label conventions and
the trace lifecycle.
"""

from repro.obs.collect import (
    ClusterTraceCollector,
    format_cluster_rollup,
    format_trace_tree,
    merge_spans,
    parse_spans,
    quality_measures,
)
from repro.obs.http import ObsHttpServer
from repro.obs.instruments import NodeInstruments
from repro.obs.logging import (
    JsonFormatter,
    PlainFormatter,
    RateLimiter,
    bind_node,
    bind_peer,
    configure_logging,
    get_logger,
    node_id_var,
    peer_id_var,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    get_global_registry,
    reset_global_registry,
)
from repro.obs.scrape import (
    histogram_quantile,
    merge_histograms,
    parse_histograms,
    parse_labels,
    parse_samples,
    scrape_text,
)
from repro.obs.tracing import (
    QueryTrace,
    QueryTracer,
    TraceEvent,
    traced_guid,
)

__all__ = [
    "ClusterTraceCollector",
    "DEFAULT_BUCKETS",
    "JsonFormatter",
    "MetricsRegistry",
    "NodeInstruments",
    "NullRegistry",
    "NULL_REGISTRY",
    "ObsHttpServer",
    "PlainFormatter",
    "QueryTrace",
    "QueryTracer",
    "RateLimiter",
    "TraceEvent",
    "bind_node",
    "bind_peer",
    "configure_logging",
    "format_cluster_rollup",
    "format_trace_tree",
    "get_global_registry",
    "get_logger",
    "histogram_quantile",
    "merge_histograms",
    "merge_spans",
    "node_id_var",
    "parse_histograms",
    "parse_labels",
    "parse_samples",
    "parse_spans",
    "peer_id_var",
    "quality_measures",
    "reset_global_registry",
    "scrape_text",
    "traced_guid",
]
