"""Pre-resolved metric handles for one live node, and the simulators'
two ambient instruments (:func:`observe_sim_build`,
:func:`set_sim_population_bytes`).

:class:`NodeInstruments` binds every metric the live stack emits to one
``node`` label value at construction time, so hot paths (frame decode,
write drain, rule promotion) hold direct child references and never
touch the registry's family/label lookup machinery per event.

Two cost tiers, by design:

* **hot-path instruments** (`observe_decode`, `observe_rule_regeneration`,
  `drain_stalls`, `set_backoff`) are updated where the event happens;
  built on a :class:`~repro.obs.registry.NullRegistry` they dispatch to
  no-op children, and ``enabled`` is False so callers also skip the
  clock reads that exist only to feed them;
* **snapshot instruments** (every :class:`~repro.live.stats.NodeStats`
  mirror, queue depth, α/ρ, active rule count) are written by
  :meth:`sync` at *scrape* time only — steady-state traffic pays nothing
  for them.

Metric names follow Prometheus conventions: ``repro_`` prefix,
``_total`` suffix on counters, base-unit seconds for durations.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.collect import quality_measures
from repro.obs.registry import MetricsRegistry, get_global_registry

__all__ = ["NodeInstruments", "observe_sim_build", "set_sim_population_bytes"]


def observe_sim_build(network: str, started: float) -> None:
    """Report the ``perf_counter`` seconds since ``started`` as one
    construction of a simulated ``network``, to the process-wide registry.

    Ambient, like the offline simulator's per-block timings: the
    simulators take no registry.  Each constructor reports its own part
    under its own label (``overlay``; ``superpeer``, the two-tier
    substrate; ``hier``, the tiers ``HierNetwork`` adds on top of it), so
    the labels of one build add up to its duration.
    """
    get_global_registry().histogram(
        "repro_sim_build_seconds",
        "Construction time of a simulated network.",
        ("network",),
    ).labels(network).observe(perf_counter() - started)


def set_sim_population_bytes(network: str, nbytes: int) -> None:
    """Report what a simulated ``network``'s population occupies right
    now — its library buffer plus the index buffers derived from it — to
    the process-wide registry.  Set when the population is built and each
    time a derived buffer is rebuilt; several networks under one label
    read as the last one (they are one world drawn again)."""
    get_global_registry().gauge(
        "repro_sim_population_bytes",
        "Bytes of a simulated network's library and index buffers.",
        ("network",),
    ).labels(network).set(nbytes)


class NodeInstruments:
    """Every live-node metric, bound to one ``node`` label value."""

    def __init__(self, registry: MetricsRegistry, node_id: int) -> None:
        self.registry = registry
        self.enabled = registry.enabled
        node = str(node_id)
        self._node = node

        # -- hot path: updated where the event happens -------------------
        self.decode_seconds = registry.histogram(
            "repro_decode_seconds",
            "Time spent turning received byte chunks into descriptors.",
            ("node",),
        ).labels(node)
        self.rule_regeneration_seconds = registry.histogram(
            "repro_rule_regeneration_seconds",
            "Time to fold one observed (query, reply) pair into the live "
            "rule counts.",
            ("node",),
        ).labels(node)
        self.drain_stalls = registry.counter(
            "repro_drain_stalls_total",
            "Write drains that exceeded the configured stall threshold "
            "(a slow-reading peer exerting backpressure).",
            ("node",),
        ).labels(node)
        self._backoff = registry.gauge(
            "repro_backoff_seconds",
            "Current reconnect backoff delay per supervised peer "
            "(0 = link up).",
            ("node", "peer"),
        )

        # -- scrape time: synced from NodeStats and the servent ----------
        self._frames = registry.counter(
            "repro_frames_total",
            "Complete descriptors handled from / accepted towards peers.",
            ("node", "direction"),
        )
        self._bytes = registry.counter(
            "repro_bytes_total",
            "Raw socket bytes read from / written to peers.",
            ("node", "direction"),
        )
        self._decisions = registry.counter(
            "repro_routing_decisions_total",
            "Transit and local queries forwarded along learned rules "
            "('rule') or flooded for lack of a covering rule ('flood').",
            ("node", "decision"),
        )
        self._simple_counters = {
            name: registry.counter(
                f"repro_{name}_total", help_text, ("node",)
            ).labels(node)
            for name, help_text in (
                ("frames_dropped", "Frames lost to queue overflow or a missing connection."),
                ("queries_shed", "Query forwards shed by the bounded send queue under overload."),
                ("protocol_errors", "Peers dropped for malformed bytes or broken handshakes."),
                ("connects", "Successful handshakes, inbound and outbound."),
                ("reconnects", "Successful outbound re-dials after a lost link."),
                ("dial_failures", "Failed outbound dial attempts."),
                ("pings_sent", "Keepalive Pings originated."),
                ("queries_issued", "Query descriptors originated locally."),
                ("hits_received", "QueryHits answering locally issued queries."),
                ("rule_regenerations", "Observed pairs that promoted a new routing rule."),
            )
        }
        self.coverage = registry.gauge(
            "repro_routing_coverage",
            "alpha: fraction of routing decisions covered by rules.",
            ("node",),
        ).labels(node)
        self.success = registry.gauge(
            "repro_routing_success",
            "rho: hits received per locally issued query; above 1 when "
            "a query draws several hits, so not the paper's s/n.",
            ("node",),
        ).labels(node)
        self.rules_active = registry.gauge(
            "repro_rules_active",
            "Routing rules currently at or above the support threshold.",
            ("node",),
        ).labels(node)
        self.send_queue_frames = registry.gauge(
            "repro_send_queue_frames",
            "Frames waiting in send queues (the backpressure backlog).",
            ("node",),
        ).labels(node)
        self.connected_peers = registry.gauge(
            "repro_connected_peers",
            "Live peer connections.",
            ("node",),
        ).labels(node)

    # -- hot-path helpers --------------------------------------------------
    def observe_decode(self, seconds: float) -> None:
        self.decode_seconds.observe(seconds)

    def observe_rule_regeneration(self, seconds: float) -> None:
        self.rule_regeneration_seconds.observe(seconds)

    def set_backoff(self, peer: object, delay: float) -> None:
        self._backoff.labels(self._node, str(peer)).set(delay)

    # -- scrape-time sync --------------------------------------------------
    def sync(
        self,
        stats,
        *,
        pending_frames: int,
        connected_peers: int,
        n_rules: int | None,
    ) -> None:
        """Mirror one node's counters into the registry (scrape time)."""
        node = self._node
        self._frames.labels(node, "in").set_total(stats.frames_in)
        self._frames.labels(node, "out").set_total(stats.frames_out)
        self._bytes.labels(node, "in").set_total(stats.bytes_in)
        self._bytes.labels(node, "out").set_total(stats.bytes_out)
        self._decisions.labels(node, "rule").set_total(stats.queries_rule_routed)
        self._decisions.labels(node, "flood").set_total(stats.queries_flooded)
        for name, child in self._simple_counters.items():
            child.set_total(getattr(stats, name))
        quality = quality_measures(stats.as_dict())
        self.coverage.set(quality["alpha"])
        self.success.set(quality["rho"])
        if n_rules is not None:
            self.rules_active.set(n_rules)
        self.send_queue_frames.set(pending_frames)
        self.connected_peers.set(connected_peers)
