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
