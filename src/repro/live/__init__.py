"""The paper's servent as a deployable asyncio network service.

The reproduction's other subsystems exercise the Gnutella substrate
in-process; this one puts it on the wire.  A :class:`LiveServent` is a
real TCP daemon — asyncio server, supervised outbound links with
reconnect backoff, incremental frame reassembly, bounded-queue write
backpressure — around the exact codec and forwarding state machine of
:mod:`repro.network`, with the paper's association routing maintained
online by :class:`repro.core.streaming.StreamingRules`.

* :mod:`~repro.live.framing` — chunk-boundary-safe descriptor decoding;
* :mod:`~repro.live.connection` — per-peer connection lifecycle;
* :mod:`~repro.live.node` — the servent daemon itself;
* :mod:`~repro.live.cluster` — loopback N-node harness + workloads;
* :mod:`~repro.live.stats` — per-node operational counters.

Observability (see :mod:`repro.obs` and ``docs/observability.md``): a
node built with a metrics registry exports Prometheus series and can
serve ``/metrics`` + ``/healthz`` over HTTP (``obs_port=``); a cluster
built with ``observe=True`` shares one registry and one query tracer
across its nodes, so ``render_metrics()`` scrapes everything at once and
``trace(guid)`` holds a query's hop-by-hop path
(:func:`repro.obs.collect.format_trace_tree` draws it).

Run one node with ``python -m repro live-node``; race rule routing
against flooding over real sockets with ``python -m repro live-cluster``.
"""

# The names the benchmark harness imports from the package root; every
# other name is imported from the module that defines it.
from repro.live.cluster import LiveCluster, make_vocabulary
from repro.live.framing import StreamDecoder
from repro.live.node import StreamingRuleServent

__all__ = ["LiveCluster", "StreamDecoder", "StreamingRuleServent", "make_vocabulary"]
