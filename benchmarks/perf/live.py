"""Third wall-clock: the live servent over loopback TCP.

An in-process :class:`LiveCluster` (8 nodes, random 3-regular, 24-term
partitioned library, so every query has exactly one answering node) is
loaded by two clients in one open loop with Poisson arrivals.  The
cluster and the load generator share the process, so
``qps_per_core`` — queries issued per process CPU-second — prices both.

``live_flood`` floods: frame decode, forwarding and socket writes
dominate and the rule code is idle.  ``live_rules`` is the same cluster
rule-routed after a sequential closed-loop warm-up; the warm-up plan and
the topology are fixed, so every seed meets the same learned rules and
only the measured arrivals differ.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

from benchmarks.perf.harness import (
    Stopwatch,
    Workload,
    median,
    per_call,
    scaled,
)
from benchmarks.perf.openloop import OpenLoopDriver, quantile_ms
from repro.core.streaming import StreamingRules
from repro.live import LiveCluster, StreamDecoder, StreamingRuleServent, make_vocabulary
from repro.network.protocol import (
    QueryHitMessage,
    QueryMessage,
    decode_message,
    encode_message,
)
from repro.network.servent import Servent, SharedFile
from repro.network.topology import random_regular
from repro.network.wirenet import WireNetwork
from repro.scale.loadgen import TASK_QUERY, LoadConfig, build_schedule
from repro.utils.rng import as_generator

__all__ = ["LiveFlood", "LiveRules"]

N_NODES = 8
DEGREE = 3
N_TERMS = 24
#: nodes the two load clients attach to (``nproc`` = 2: one client each).
CLIENT_NODES = (0, 4)
#: about a quarter of the one thread the cluster and the clients share.
#: The issue's 600 queries/s is half of it on this host, where queueing
#: amplifies every drift of the host's speed: in ten interleaved runs
#: p50 spread 17 % at 600/s, 10 % at 400/s and 4 % at 250/s.
RATE_QPS = 300.0
TIMEOUT_SECONDS = 0.5
#: the cluster's shape and what it learned are part of the system under
#: test, not of the seeded input, so they do not vary with ``--seed``.
TOPOLOGY_SEED = 20060814
WARMUP_SEED = 7
RULE_WINDOW_PAIRS = 512
#: a generator that ran later than this share of a window voids it.
MAX_LATENESS_SHARE = 0.10

_TOTALS = (
    "frames_in",
    "frames_out",
    "frames_dropped",
    "queries_shed",
    "queries_rule_routed",
    "queries_flooded",
    "rule_regenerations",
)


class _Live(Workload):
    rule_routed: bool
    window_seconds = 0.125

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        self.duration = max(0.1, self.window_seconds * min(1.0, scale))
        self.warmup_queries = scaled(1800, scale, floor=200)
        self.vocabulary = make_vocabulary(N_TERMS)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.cluster: LiveCluster | None = None
        self.driver: OpenLoopDriver | None = None
        self.window_index = 0
        self._deck: list[tuple[int, str]] = []
        self._deck_rng = random.Random(self.seed)

    def sizes(self) -> dict:
        return {
            "n_nodes": N_NODES,
            "degree": DEGREE,
            "n_terms": N_TERMS,
            "clients": len(CLIENT_NODES),
            "rate_qps": RATE_QPS,
            "window_seconds": self.duration,
            "timeout_seconds": TIMEOUT_SECONDS,
            "rule_routed": self.rule_routed,
            "warmup_queries": self.warmup_queries if self.rule_routed else 0,
            "rule_window_pairs": RULE_WINDOW_PAIRS,
        }

    # -- cluster lifetime -----------------------------------------------------
    def _settled(self) -> bool:
        """No descriptor is in flight: everything accepted for sending —
        by a node or a client — has been handled by its receiver."""
        nodes = self.cluster.nodes
        frames_in = sum(n.stats.frames_in for n in nodes) + self.driver.frames_received
        frames_out = sum(n.stats.frames_out for n in nodes) + self.driver.frames_sent
        return frames_in == frames_out and not any(n.pending_frames for n in nodes)

    async def _boot(self) -> tuple[LiveCluster, OpenLoopDriver]:
        topology = random_regular(N_NODES, DEGREE, rng=as_generator(TOPOLOGY_SEED))
        cluster = LiveCluster(
            topology,
            rule_routed=self.rule_routed,
            rule_kwargs={"window_pairs": RULE_WINDOW_PAIRS},
        )
        await cluster.start()
        cluster.stock_partitioned_library(self.vocabulary)
        driver = OpenLoopDriver(
            [(cluster.host, cluster.nodes[n].port) for n in CLIENT_NODES],
            timeout=TIMEOUT_SECONDS,
        )
        await driver.connect()
        return cluster, driver

    async def _warm(self) -> dict[str, int]:
        """Sequential closed-loop warm-up; returns what the cluster did."""
        rng = random.Random(WARMUP_SEED)
        plan = [
            (rng.randrange(len(CLIENT_NODES)), rng.choice(self.vocabulary))
            for _ in range(self.warmup_queries)
        ]
        await self.driver.one_at_a_time(plan, self._settled)
        totals = self.cluster.totals()
        return {k: totals[k] for k in ("queries_rule_routed", "queries_flooded", "frames_out")}

    async def _shutdown(self) -> None:
        await self.driver.close()
        await self.cluster.close()

    def setup(self, tracer) -> None:
        self.loop = asyncio.new_event_loop()
        self.window_index = 0
        with tracer.span("live.cluster.start"):
            self.cluster, self.driver = self.loop.run_until_complete(self._boot())
        if self.rule_routed:
            with self.host.timed(steady=True), tracer.span("live.cluster.warmup"):
                self.warm_totals = self.loop.run_until_complete(self._warm())

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._shutdown())
        self.loop.close()
        self.loop = self.cluster = self.driver = None

    # -- measuring ------------------------------------------------------------
    def _deal(self, schedule: list) -> list:
        """The same arrival instants, asking what a shuffled deck of
        every (client, term) pair deals next.  ``build_schedule`` draws
        each query's client and term independently, so a run of 3,000
        queries asks some pairs 45 times and others 80 — and whether a
        query is answered, and how far it floods, is a function of its
        pair.  With the deck the order is the seed's and the mix is not:
        ``frames_per_query`` and ``answered_share`` stop measuring it."""
        dealt = []
        for task in schedule:
            if not self._deck:
                self._deck = [
                    (client, term)
                    for client in range(len(CLIENT_NODES))
                    for term in self.vocabulary
                ]
                self._deck_rng.shuffle(self._deck)
            client, term = self._deck.pop()
            dealt.append(dataclasses.replace(task, target=client, term=term))
        return dealt

    def window(self, tracer) -> dict:
        schedule = self._deal(
            build_schedule(
                LoadConfig(
                    rps=RATE_QPS,
                    duration=self.duration,
                    seed=self.seed * 1000 + self.window_index,
                    mix=((TASK_QUERY, 1.0),),
                ),
                self.vocabulary,
                len(CLIENT_NODES),
            )
        )
        self.window_index += 1
        before = self.cluster.totals()
        with self.host.timed() as watch:
            result = self.loop.run_until_complete(
                self.driver.run(schedule, self._settled, tracer)
            )
        after = self.cluster.totals()
        return {
            # wall time means nothing under an open loop
            "busy_s": watch.cpu,
            "ref_s": watch.cpu_reference,
            "host": watch.host,
            "ops": result.issued + result.errors,
            "failed": result.errors,
            # unanswered within the time-out; each also stays in the
            # latency sample as ``inf``
            "missed": result.unanswered,
            "issued": result.issued,
            "latencies": result.latencies,
            "max_lateness": result.max_lateness,
            "schedule_stretch": result.schedule_stretch,
            "void": result.max_lateness > MAX_LATENESS_SHARE * self.duration,
            "totals": {k: after[k] - before[k] for k in _TOTALS},
            "counts": {"scheduled": len(schedule)},
        }

    def summarize(self, windows) -> dict[str, float]:
        issued = sum(w["issued"] for w in windows)
        # a reply time is CPU work along the query's path (the cluster is
        # a quarter busy), so it scales with the host like any other time
        pooled = [s / w["host"] for w in windows for s in w["latencies"]]
        return {
            "qps_per_core": median(w["issued"] / w["ref_s"] for w in windows),
            "latency_p50_ms": quantile_ms(pooled, 0.50, ceiling=TIMEOUT_SECONDS),
            "frames_per_query": sum(w["totals"]["frames_out"] for w in windows) / issued,
            "answered_share": 1.0 - sum(w["missed"] for w in windows) / issued,
        }

    # -- per-layer ------------------------------------------------------------
    def layers(self, tracer, traced) -> dict[str, float]:
        # a window holds some forty queries: pool the traced ones
        totals = {k: sum(w["totals"][k] for w in traced) for k in _TOTALS}
        samples = [s for w in traced for s in w["latencies"]]
        decided = totals["queries_rule_routed"] + totals["queries_flooded"]
        out = {f"live.node.{k}": float(totals[k]) for k in _TOTALS[:4]}
        out["live.node.rule_routed_share"] = (
            totals["queries_rule_routed"] / decided if decided else 0.0
        )
        out["live.node.rule_regenerations"] = float(totals["rule_regenerations"])
        out["live.latency_p90_ms"] = quantile_ms(samples, 0.90, ceiling=TIMEOUT_SECONDS)
        out["live.latency_p99_ms"] = quantile_ms(samples, 0.99, ceiling=TIMEOUT_SECONDS)
        out["live.missed_share"] = sum(w["missed"] for w in traced) / max(
            1, sum(w["ops"] for w in traced)
        )
        out["scale.loadgen.max_lateness_ms"] = 1e3 * max(
            w["max_lateness"] for w in traced
        )
        out["scale.loadgen.schedule_stretch"] = max(
            w["schedule_stretch"] for w in traced
        )
        out.update(self._frame_probes())
        handle = out[
            "live.node.rule_handle_s" if self.rule_routed else "network.servent.flood_handle_s"
        ]
        # what the servents' own frame handling does not explain is
        # sockets, asyncio and the load generator
        out["live.connection.io_cpu_share"] = (
            1.0 - totals["frames_in"] * handle / sum(w["busy_s"] for w in traced)
        )
        return out

    def _frame_probes(self, n_calls: int = 3000) -> dict[str, float]:
        """Direct calls on this workload's own frames, no sockets."""
        term = self.vocabulary[0]
        calls = range(n_calls)
        query = QueryMessage(min_speed=0, search=term)
        hit = QueryHitMessage(
            port=6346,
            ip="10.0.0.1",
            speed=1000,
            file_index=0,
            file_size=1 << 20,
            file_name=f"{term} track0.mp3",
            servent_guid=100_001,
        )
        out = {
            "network.protocol.encode_s": per_call(
                lambda i: encode_message(i + 1, 7, 0, query), calls
            )
        }
        queries = [encode_message(i + 1, 7, 0, query) for i in calls]
        hits = [encode_message(i + 1, 7, 0, hit) for i in calls]
        out["network.protocol.decode_s"] = per_call(
            lambda i: decode_message(queries[i]), calls
        )
        chunks = [b"".join(queries[i : i + 50]) for i in range(0, n_calls, 50)]
        out["live.framing.stream_decode_s"] = (
            per_call(StreamDecoder().feed, chunks) / 50
        )

        flood = Servent(1)
        rule = StreamingRuleServent(
            2,
            rules=StreamingRules(min_support_count=2, window_pairs=RULE_WINDOW_PAIRS),
            top_k=2,
        )
        for servent in (flood, rule):
            for conn in range(DEGREE + 1):
                servent.connect(conn)
        # teach the rule servent that connection 0's queries are answered
        # through connections 1 and 2, so the timed frames are rule-routed
        for i in range(64):
            guid = (1 << 40) + i
            rule.handle_frame(0, encode_message(guid, 7, 0, query))
            rule.handle_frame(1 + i % 2, encode_message(guid, 7, 0, hit))
        out["network.servent.flood_handle_s"] = per_call(
            lambda i: flood.handle_frame(0, queries[i]), calls
        )
        out["live.node.rule_handle_s"] = per_call(
            lambda i: rule.handle_frame(0, queries[i]), calls
        )
        out["live.node.hit_handle_s"] = per_call(
            lambda i: rule.handle_frame(1 + i % 2, hits[i]), calls
        )

        wire = WireNetwork(
            random_regular(N_NODES, DEGREE, rng=as_generator(TOPOLOGY_SEED)),
            rule_routed=self.rule_routed,
        )
        wire.stock_libraries(
            {
                node: [
                    SharedFile(index=j, name=f"{t} track{j}.mp3", size=1 << 20)
                    for j, t in enumerate(self.vocabulary[node::N_NODES])
                ]
                for node in range(N_NODES)
            }
        )
        with Stopwatch() as watch:
            wire.run_workload(
                as_generator(self.seed), vocabulary=self.vocabulary, n_queries=500
            )
        out["network.wirenet.frames_per_s"] = wire.frames_delivered / watch.wall
        return out


class LiveFlood(_Live):
    name = "live_flood"
    rule_routed = False


class LiveRules(_Live):
    name = "live_rules"
    rule_routed = True

    def check(self) -> list[str]:
        """Determinism guard: a second warm-up of a fresh cluster must
        make exactly the routing decisions the first one made."""
        first = self.warm_totals
        self.teardown()
        self.loop = asyncio.new_event_loop()
        self.cluster, self.driver = self.loop.run_until_complete(self._boot())
        second = self.loop.run_until_complete(self._warm())
        if second != first:
            return [f"sequential warm-up did not repeat: {first} then {second}"]
        return []
