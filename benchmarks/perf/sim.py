"""Second wall-clock: the overlay simulators.

``sim_flat`` drives the flat :class:`Overlay` with a flooding arm and an
association-routing arm on equal seeds, so ``engine.broadcast`` dominates
and the hierarchy code is idle.  ``sim_hier`` drives a hybrid
:class:`HierNetwork` through its whole ladder (index, super-peer rules,
digest gossip, keyspace, flood fallback); the flat engine is idle and
set-up is the network build.

Both keep one network alive across windows, so learned state evolves
from window to window exactly as it would in one long run; every count
is still a pure function of the seed.
"""

from __future__ import annotations

from benchmarks.perf.harness import (
    Stopwatch,
    Workload,
    median,
    peak_rss_mb,
    per_call,
    scaled,
)
from benchmarks.perf.spans import NullTracer
from repro.metrics.traffic import TrafficStats
from repro.network.hier import HierConfig, HierNetwork
from repro.network.hier.digest import MergedRuleTable, decode_digest
from repro.network.hier.keyspace import category_key
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.routing import AssociationRoutingPolicy, FloodingPolicy, SuperPeerRules

__all__ = ["SimFlat", "SimHier"]

#: the self-check replays a workload at this share of its size.
REPLICA_SCALE = 0.08


def stats_counts(stats: TrafficStats) -> list[int]:
    return [
        stats.n_queries,
        stats.n_succeeded,
        stats.total_messages,
        stats.total_hits,
        stats.total_duplicates,
        stats.n_rule_covered,
        stats.n_rule_succeeded,
    ]


def warm_up(network, n_queries: int, host) -> None:
    """``network.run_workload(0, warmup=n_queries)`` cut into four timed
    stretches (the queries issued are the same)."""
    done = 0
    for i in range(4):
        upto = n_queries * (i + 1) // 4
        with host.timed():
            network.run_workload(0, warmup=upto - done)
        done = upto


class _Sim(Workload):
    """Shared summary and the same-seed/other-seed replay check."""

    #: queries one window issues (all arms together).
    window_queries: int

    def summarize(self, windows) -> dict[str, float]:
        # traffic and answers are the routed system's; sim_flat's
        # flooding arm is its baseline and is reported per layer
        routed = sum(w["routed"] for w in windows)
        return {
            "sim_queries_per_s": median(w["ops"] / w["ref_s"] for w in windows),
            "msgs_per_query": sum(w["msgs"] for w in windows) / routed,
            "answered_share": 1.0 - sum(w["missed"] for w in windows) / routed,
        }

    def _replica_counts(self, seed: int) -> dict:
        replica = type(self)(
            seed, self.scale * REPLICA_SCALE, self.work_dir, self.host
        )
        replica.setup(NullTracer())
        try:
            return replica.window(NullTracer())["counts"]
        finally:
            replica.teardown()

    def check(self) -> list[str]:
        first = self._replica_counts(self.seed)
        failures = []
        if self._replica_counts(self.seed) != first:
            failures.append("two runs of one seed gave different simulated counts")
        if self._replica_counts(self.seed + 1) == first:
            failures.append("another seed gave the same simulated counts")
        return failures


class SimFlat(_Sim):
    name = "sim_flat"
    window_seconds = 0.5

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        self.config = OverlayConfig(
            n_nodes=scaled(2000, scale, floor=60, multiple=2), churn_rate=0.002
        )
        self.warmup = scaled(3000, scale, floor=100)
        self.arm_queries = scaled(200, scale, floor=60)
        self.window_queries = 2 * self.arm_queries

    def sizes(self) -> dict:
        return {
            "n_nodes": self.config.n_nodes,
            "churn_rate": self.config.churn_rate,
            "association": {"top_k": 2, "window": 2048},
            "warmup_queries": self.warmup,
            "queries_per_arm_per_window": self.arm_queries,
        }

    def _arm(self, tracer, factory) -> Overlay:
        with self.host.timed(steady=True):
            with tracer.span("network.overlay.build"):
                overlay = Overlay(self.config, seed=self.seed)
            with tracer.span("network.overlay.install_policies"):
                overlay.install_policies(factory)
        return overlay

    def setup(self, tracer) -> None:
        self.flood = self._arm(tracer, FloodingPolicy)
        self.assoc = self._arm(
            tracer,
            lambda node, overlay: AssociationRoutingPolicy(
                node, overlay, top_k=2, window=2048
            ),
        )
        with tracer.span("routing.association.warmup"):
            warm_up(self.assoc, self.warmup, self.host)

    def teardown(self) -> None:
        self.flood = self.assoc = None

    def _rule_outcomes(self) -> tuple[int, int]:
        resolved = fallback = 0
        for node in range(self.assoc.n_nodes):
            policy = self.assoc.node(node).policy
            resolved += policy.rule_resolved_count
            fallback += policy.fallback_count
        return resolved, fallback

    def window(self, tracer) -> dict:
        resolved0, fallback0 = self._rule_outcomes()
        with self.host.timed() as flood_watch, tracer.span("network.engine.flood_arm"):
            flood = self.flood.run_workload(self.arm_queries)
        with self.host.timed() as assoc_watch, tracer.span("routing.association.arm"):
            assoc = self.assoc.run_workload(self.arm_queries)
        resolved1, fallback1 = self._rule_outcomes()
        return {
            "busy_s": flood_watch.wall + assoc_watch.wall,
            "ref_s": flood_watch.reference + assoc_watch.reference,
            "flood_s": flood_watch.wall,
            "assoc_s": assoc_watch.wall,
            "ops": self.window_queries,
            "missed": assoc.n_queries - assoc.n_succeeded,
            "msgs": assoc.total_messages,
            "routed": assoc.n_queries,
            "flood": flood,
            "rule_resolved": resolved1 - resolved0,
            "rule_fallback": fallback1 - fallback0,
            "counts": {"flood": stats_counts(flood), "assoc": stats_counts(assoc)},
        }

    def layers(self, tracer, traced) -> dict[str, float]:
        self_times = tracer.self_times()
        window = traced[0]
        flood: TrafficStats = window["flood"]
        n = self.arm_queries
        covered = sum(
            1
            for node in range(self.assoc.n_nodes)
            if self.assoc.node(node).policy.rules.consequents(node, 1)
        )
        attempts = window["rule_resolved"] + window["rule_fallback"]
        return {
            # two overlays are built; report one
            "network.overlay.build_s": self_times["network.overlay.build"] / 2,
            "network.overlay.install_policies_s": self_times[
                "network.overlay.install_policies"
            ]
            / 2,
            "network.engine.flood_queries_per_s": n / window["flood_s"],
            "network.engine.flood_msgs_per_s": flood.total_messages / window["flood_s"],
            "network.engine.flood_msgs_per_query": flood.messages_per_query,
            "network.engine.flood_success_rate": flood.success_rate,
            "routing.association.queries_per_s": n / window["assoc_s"],
            # share of nodes whose own queries a rule covers when the
            # window ends (the flat engine does not flag covered queries)
            "routing.association.coverage_alpha": covered / self.assoc.n_nodes,
            "routing.association.success_rho": (
                window["rule_resolved"] / attempts if attempts else 0.0
            ),
        }


class SimHier(_Sim):
    name = "sim_hier"
    window_seconds = 0.4

    def __init__(self, seed, scale, work_dir, host) -> None:
        super().__init__(seed, scale, work_dir, host)
        # bench_hier's substrate and tier tuning: 500 x 20 = 10,500 nodes
        self.substrate = dict(
            n_superpeers=scaled(500, scale, floor=12),
            leaves_per_superpeer=20,
            superpeer_degree=4,
            n_categories=40,
            files_per_category=250,
            library_size=60,
            interests_per_peer=4,
            superpeer_ttl=4,
        )
        self.tier = {"rule_top_k": 5, "digest_top_k": 5}
        self.warmup = scaled(12_000, scale, floor=300)
        self.window_queries = scaled(5_000, scale, floor=300)

    def sizes(self) -> dict:
        n_sp = self.substrate["n_superpeers"]
        return {
            "n_nodes": n_sp * (self.substrate["leaves_per_superpeer"] + 1),
            "substrate": self.substrate,
            "tier": self.tier,
            "mode": "hybrid",
            "warmup_queries": self.warmup,
            "queries_per_window": self.window_queries,
        }

    def _network(self, mode: str) -> HierNetwork:
        return HierNetwork(
            HierConfig(mode=mode, **self.substrate, **self.tier), seed=self.seed
        )

    def setup(self, tracer) -> None:
        with self.host.timed(steady=True), tracer.span("network.hier.build"):
            self.net = self._network("hybrid")
        with tracer.span("network.hier.warmup"):
            warm_up(self.net, self.warmup, self.host)

    def teardown(self) -> None:
        self.net = None

    def summarize(self, windows) -> dict[str, float]:
        return {**super().summarize(windows), "peak_rss_mb": peak_rss_mb()}

    def window(self, tracer) -> dict:
        control0 = self.net.control_messages
        with self.host.timed() as watch, tracer.span("network.hier.run_workload"):
            stats = self.net.run_workload(self.window_queries)
        control = self.net.control_messages - control0
        return {
            "busy_s": watch.wall,
            "ref_s": watch.reference,
            "ops": stats.n_queries,
            "missed": stats.n_queries - stats.n_succeeded,
            # digest and directory traffic of the window is charged to
            # the window's queries
            "msgs": stats.total_messages + control,
            "routed": stats.n_queries,
            "control": control,
            "stats": stats,
            "counts": {"hybrid": stats_counts(stats), "control": control},
        }

    def check(self) -> list[str]:
        failures = super().check()
        small = type(self)(
            self.seed, self.scale * REPLICA_SCALE, self.work_dir, self.host
        )
        flood = small._network("flood").run_workload(
            small.window_queries, warmup=small.warmup
        )
        baseline = SuperPeerNetwork(
            SuperPeerConfig(**small.substrate), seed=self.seed
        ).run_workload(small.window_queries, warmup=small.warmup)
        if stats_counts(flood) != stats_counts(baseline):
            failures.append("flood-mode HierNetwork differs from SuperPeerNetwork")
        return failures

    def layers(self, tracer, traced) -> dict[str, float]:
        self_times = tracer.self_times()
        window = traced[0]
        stats: TrafficStats = window["stats"]
        n = self.window_queries
        out = {
            "network.hier.build_s": self_times["network.hier.build"],
            "network.hier.hybrid_queries_per_s": n / window["busy_s"],
            "network.hier.control_msgs_per_query": window["control"] / n,
            "network.hier.coverage_alpha": stats.coverage_alpha,
            "network.hier.success_rho": stats.success_rho,
        }
        # the two flooding references, traced run only
        with tracer.span("network.hier.build_flood"):
            flood = self._network("flood")
        with Stopwatch() as watch, tracer.span("network.hier.flood_arm"):
            flood.run_workload(n, warmup=self.warmup)
        out["network.hier.flood_queries_per_s"] = (n + self.warmup) / watch.wall
        with Stopwatch() as watch, tracer.span("network.superpeer.build"):
            baseline = SuperPeerNetwork(
                SuperPeerConfig(**self.substrate), seed=self.seed
            )
        out["network.superpeer.build_s"] = watch.wall
        with Stopwatch() as watch, tracer.span("network.superpeer.run_workload"):
            baseline.run_workload(n, warmup=self.warmup)
        out["network.superpeer.queries_per_s"] = (n + self.warmup) / watch.wall

        out.update(self._tier_probes())
        with Stopwatch() as watch, tracer.span("network.hier.kill_superpeer"):
            self.net.kill_superpeer(0)
        out["network.hier.kill_superpeer_s"] = watch.wall
        return out

    def _tier_probes(self, n_calls: int = 2000) -> dict[str, float]:
        """Direct calls on the trained network's own tier objects."""
        net = self.net
        n_sp = self.substrate["n_superpeers"]
        top_k = self.tier["digest_top_k"]
        calls = range(n_calls)
        publish_s = per_call(lambda i: net.sp_rules[i % n_sp].publish(top_k), calls)
        digests = [net.sp_rules[sp].publish(top_k) for sp in range(n_sp)]
        wires = [d.encode() for d in digests]
        merged = MergedRuleTable()
        keys = [category_key(c) for c in range(self.substrate["n_categories"])]
        rules = SuperPeerRules(0)
        return {
            "routing.superpeer_rules.publish_s": publish_s,
            "network.hier.digest.encode_s": per_call(
                lambda i: digests[i % n_sp].encode(), calls
            ),
            "network.hier.digest.decode_s": per_call(
                lambda i: decode_digest(wires[i % n_sp]), calls
            ),
            "network.hier.digest.merge_s": per_call(
                lambda i: merged.merge(digests[i % n_sp]), calls
            ),
            "network.hier.keyspace.closest_s": per_call(
                lambda i: net.kbuckets[i % n_sp].closest(keys[i % len(keys)], 3),
                calls,
            ),
            "routing.superpeer_rules.observe_s": per_call(
                lambda i: rules.observe(i % 40, i % n_sp), calls
            ),
        }
