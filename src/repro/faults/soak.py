"""Chaos soak: a live cluster battered by a fault plan, then audited.

``run_soak`` boots a :class:`~repro.live.cluster.LiveCluster` whose
nodes dial through a :class:`~repro.faults.transport.FaultController`,
warms the rule tables up with real query traffic, lets a
:class:`~repro.faults.injector.FaultInjector` execute a seeded
:class:`~repro.faults.plan.FaultPlan` while a background pump keeps
queries flowing, and then audits the survivors:

``converged``
    every overlay edge is re-established on both ends after the last
    fault (reconnect supervision actually converges);
``quiesced``
    no descriptor stays in flight once the workload stops;
``accounting``
    send queues are empty and cluster-wide ``frames_in <=
    frames_out`` *including retired node incarnations* — frames may die
    in killed sockets but can never appear from nowhere;
``probe_answers``
    a post-chaos probe workload reaches its answering nodes (routing —
    rules or flooding — still works after restarts relearn state);
``rule_state``
    every servent's connection view matches its node's live connection
    table, and rule-routed nodes still hold working streaming counts;
``metrics_agree``
    the shared :class:`~repro.obs.registry.MetricsRegistry` totals equal
    the :class:`~repro.live.stats.NodeStats` they mirror;
``reconnect_floor``
    observed reconnects reach the minimum the plan implies
    (:func:`expected_min_reconnects`);
``fault_feedback``
    injected stream corruptions show up as protocol errors;
``no_leaks``
    closing the cluster leaves no running tasks behind.

With a ``state_dir`` (durable rule state via :mod:`repro.persist`) two
more invariants join the audit:

``warm_restart``
    every crash-restarted node came back with a recovery record whose
    post-replay rule count is at least the restored snapshot's — a
    warm restart never knows *less* than the last checkpoint;
``durable_roundtrip``
    after the cluster closes, replaying each node's state directory
    offline reproduces the live counts' blake2b fingerprint exactly,
    twice (recovery is deterministic and lossless for fsynced state).

The :class:`SoakReport` separates the *deterministic* record (plan
events with applied flags, invariant verdicts) from timing-noisy
observations (counter values, rates): :meth:`SoakReport.fingerprint`
hashes only the former, so two runs of the same seed produce the same
fingerprint — the replay guarantee the CLI's ``chaos-soak`` asserts.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    PARTITION,
    RESET,
    RESTART,
    TRUNCATE,
    FaultPlan,
    chaos_plan,
    crash_restart_plan,
    partition_heal_plan,
)
from repro.faults.transport import FaultController
from repro.live.cluster import (
    LiveCluster,
    harness_config,
    interest_plan,
    make_vocabulary,
)
from repro.network.topology import Topology, random_regular
from repro.utils.rng import as_generator
from repro.utils.validation import check_finite_positive

__all__ = [
    "PLAN_NAMES",
    "SoakReport",
    "chaos_soak",
    "expected_min_reconnects",
    "make_plan",
    "run_soak",
]

PLAN_NAMES = ("crash-restart", "partition-heal", "mixed")

#: queries issued after the chaos to audit the survivors' answer rate
PROBE_QUERIES = 20


@dataclass
class SoakReport:
    """Everything one soak run learned, replay-stable parts first."""

    label: str
    seed: int
    n_nodes: int
    rule_routed: bool
    #: the injector's replay log: planned events + ``applied`` flags.
    events: list[dict] = field(default_factory=list)
    #: invariant name -> verdict.
    invariants: dict[str, bool] = field(default_factory=dict)
    #: human detail for failed invariants.
    details: dict[str, str] = field(default_factory=dict)
    #: timing-noisy measurements — excluded from the fingerprint.
    observed: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.invariants) and all(self.invariants.values())

    def fingerprint(self) -> str:
        """Hash of the deterministic record (label, seed, size, events,
        verdicts).  Two runs of the same plan+seed must agree on it."""
        blob = json.dumps(
            {
                "label": self.label,
                "seed": self.seed,
                "n_nodes": self.n_nodes,
                "rule_routed": self.rule_routed,
                "events": self.events,
                "invariants": self.invariants,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps(
            {
                "label": self.label,
                "seed": self.seed,
                "n_nodes": self.n_nodes,
                "rule_routed": self.rule_routed,
                "fingerprint": self.fingerprint(),
                "ok": self.ok,
                "events": self.events,
                "invariants": self.invariants,
                "details": self.details,
                "observed": self.observed,
            },
            sort_keys=True,
            indent=2,
        )

    def format(self) -> str:
        lines = [
            f"chaos soak '{self.label}' "
            f"(seed {self.seed}, {self.n_nodes} nodes, "
            f"{'rule-routed' if self.rule_routed else 'flooding'})",
            f"  fingerprint {self.fingerprint()}",
            f"  {len(self.events)} fault events "
            f"({sum(1 for e in self.events if e.get('applied'))} applied)",
        ]
        for name in sorted(self.invariants):
            verdict = "ok  " if self.invariants[name] else "FAIL"
            line = f"  [{verdict}] {name}"
            if name in self.details:
                line += f" — {self.details[name]}"
            lines.append(line)
        for name in sorted(self.observed):
            lines.append(f"  observed {name} = {self.observed[name]:g}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def expected_min_reconnects(topology: Topology, plan_or_events) -> int:
    """The reconnects a plan *guarantees*: its distinct disrupted edges.

    An edge counts as disrupted when a fault severs it while its dialer
    (the lower node id, per the cluster's wiring convention) survives:

    * a crash severs every edge towards a surviving dialer-side neighbor;
    * a partition resets every cross edge;
    * reset / truncate / corrupt each kill one live link.

    The floor is the count of *distinct* such edges, not of severing
    events: a supervisor still backing off from one fault when the next
    one lands recovers both with a single re-dial, so per-event counting
    would be timing-dependent — but a disrupted edge that converged
    again reconnected at least once, whatever the interleaving.

    Accepts a :class:`~repro.faults.plan.FaultPlan` or an injector /
    churn log (dicts — entries with ``applied: False`` are skipped).
    Extra reconnects (collateral drops, repeat disruptions) are
    legitimate; fewer than the floor is a supervision bug.
    """
    events = getattr(plan_or_events, "events", plan_or_events)
    disrupted: set[tuple[int, int]] = set()
    for event in events:
        if isinstance(event, dict):
            if event.get("applied") is False:
                continue
            kind = event["kind"]
            node = event.get("node")
            link = tuple(event["link"]) if "link" in event else None
            groups = event.get("groups")
        else:
            kind, node = event.kind, event.node
            link, groups = event.link, event.groups
        if kind == CRASH:
            disrupted.update(
                (m, node) for m in topology.neighbors(node) if m < node
            )
        elif kind == PARTITION:
            a = set(groups[0])
            disrupted.update(
                (u, v) for u, v in topology.edges() if (u in a) != (v in a)
            )
        elif kind in (RESET, TRUNCATE, CORRUPT) and link is not None:
            disrupted.add((min(link), max(link)))
    return len(disrupted)


async def _pump_queries(cluster, plan, interval: float, stop: asyncio.Event):
    """Issue queries round-robin until told to stop; skips dead nodes."""
    issued = 0
    while not stop.is_set():
        node_id, term = plan[issued % len(plan)]
        issued += 1
        node = cluster.nodes[node_id]
        if not node.closed:
            try:
                node.issue_query(term)
            except Exception:
                pass  # the node died under our feet — the plan's doing
        try:
            await asyncio.wait_for(stop.wait(), timeout=interval)
        except asyncio.TimeoutError:
            continue
    return issued


async def run_soak(
    topology: Topology,
    plan: FaultPlan,
    *,
    rule_routed: bool = True,
    seed: int = 0,
    warmup_queries: int = 30,
    pump_interval: float = 0.04,
    answer_threshold: float = 0.5,
    time_scale: float = 1.0,
    converge_timeout: float = 15.0,
    state_dir: str | None = None,
    checkpoint_interval: float = 2.0,
) -> SoakReport:
    """One full soak: boot, warm up, inject, audit.  Returns the report.

    ``state_dir`` gives every node a durable-state directory beneath
    it: crashes become hard kills recovered through snapshot + WAL
    replay, and the ``warm_restart`` / ``durable_roundtrip`` invariants
    join the audit.  ``time_scale`` is checked before anything boots.
    """
    time_scale = check_finite_positive("time_scale", time_scale)
    report = SoakReport(
        label=plan.label,
        seed=seed,
        n_nodes=topology.n_nodes,
        rule_routed=rule_routed,
    )
    baseline_tasks = set(asyncio.all_tasks())
    controller = FaultController()
    cluster = LiveCluster(
        topology,
        rule_routed=rule_routed,
        config=harness_config(retry_jitter=0.5, retry_jitter_seed=seed),
        observe=True,
        fault_controller=controller,
        state_dir=state_dir,
        checkpoint_interval=checkpoint_interval,
    )
    rng = as_generator(seed)
    vocabulary = make_vocabulary(2 * topology.n_nodes)
    cluster.stock_partitioned_library(vocabulary)
    invariants = report.invariants
    details = report.details

    await cluster.start()
    try:
        if warmup_queries:
            await cluster.run_plan(
                interest_plan(
                    topology.n_nodes, vocabulary, warmup_queries, rng
                )
            )

        injector = FaultInjector(plan, controller)
        stop = asyncio.Event()
        pump = asyncio.create_task(
            _pump_queries(
                cluster,
                interest_plan(topology.n_nodes, vocabulary, 257, rng),
                pump_interval,
                stop,
            )
        )
        try:
            await injector.run(cluster, time_scale=time_scale)
        finally:
            stop.set()
            report.observed["pump_queries"] = float(await pump)
        report.events = list(injector.log)

        # -- invariants over the survivors -------------------------------
        try:
            await cluster.wait_connected(timeout=converge_timeout)
            invariants["converged"] = True
        except TimeoutError:
            invariants["converged"] = False
            details["converged"] = (
                f"overlay not fully re-wired within {converge_timeout}s"
            )
        invariants["quiesced"] = await cluster.quiesce(timeout=10.0)
        if not invariants["quiesced"]:
            details["quiesced"] = "descriptors still in flight after chaos"

        probe = await cluster.run_plan(
            interest_plan(topology.n_nodes, vocabulary, PROBE_QUERIES, rng)
        )
        invariants["probe_answers"] = probe["answer_rate"] >= answer_threshold
        if not invariants["probe_answers"]:
            details["probe_answers"] = (
                f"answer rate {probe['answer_rate']:.2f} "
                f"< {answer_threshold:.2f}"
            )

        pending = sum(node.pending_frames for node in cluster.nodes)
        grand = cluster.grand_totals()
        invariants["accounting"] = (
            pending == 0 and grand["frames_in"] <= grand["frames_out"]
        )
        if not invariants["accounting"]:
            details["accounting"] = (
                f"pending={pending}, frames_in={grand['frames_in']}, "
                f"frames_out={grand['frames_out']}"
            )

        rule_problems = []
        for node in cluster.nodes:
            if set(node.servent.connections) != node.connected_peers:
                rule_problems.append(
                    f"node {node.node_id}: servent sees "
                    f"{sorted(node.servent.connections)}, link table has "
                    f"{sorted(node.connected_peers)}"
                )
            counts = getattr(node.servent, "counts", None)
            if rule_routed and (counts is None or counts.n_rules() < 0):
                rule_problems.append(
                    f"node {node.node_id}: streaming counts missing"
                )
        invariants["rule_state"] = not rule_problems
        if rule_problems:
            details["rule_state"] = "; ".join(rule_problems)

        for node in cluster.nodes:
            node.sync_metrics()
        registry = cluster.registry
        totals = cluster.totals()
        mismatches = []
        for metric, value in (
            ("repro_frames_total", totals["frames_in"] + totals["frames_out"]),
            ("repro_reconnects_total", totals["reconnects"]),
            ("repro_protocol_errors_total", totals["protocol_errors"]),
            ("repro_frames_dropped_total", totals["frames_dropped"]),
        ):
            if registry.total(metric) != float(value):
                mismatches.append(
                    f"{metric}={registry.total(metric):g} vs stats {value}"
                )
        invariants["metrics_agree"] = not mismatches
        if mismatches:
            details["metrics_agree"] = "; ".join(mismatches)

        floor = expected_min_reconnects(topology, injector.log)
        corruptions = sum(
            1
            for entry in injector.log
            if entry["kind"] == CORRUPT and entry.get("applied")
        )
        invariants["reconnect_floor"] = grand["reconnects"] >= floor
        if not invariants["reconnect_floor"]:
            details["reconnect_floor"] = (
                f"saw {grand['reconnects']} reconnects, plan implies "
                f">= {floor}"
            )
        invariants["fault_feedback"] = grand["protocol_errors"] >= corruptions
        if not invariants["fault_feedback"]:
            details["fault_feedback"] = (
                f"{corruptions} corruptions injected but only "
                f"{grand['protocol_errors']} protocol errors surfaced"
            )

        final_fingerprints: dict[int, str] = {}
        if state_dir is not None:
            from repro.persist.snapshot import fingerprint_counts

            problems = []
            restarted = sorted(
                {
                    entry["node"]
                    for entry in report.events
                    if entry["kind"] in (RESTART, "final-restart")
                }
            )
            recovered_rules = 0
            for node_id in restarted:
                recovery = cluster.nodes[node_id].recovery
                if recovery is None:
                    problems.append(
                        f"node {node_id}: restarted without recovery info"
                    )
                    continue
                recovered_rules += recovery.n_rules
                if recovery.n_rules < recovery.snapshot_rules:
                    problems.append(
                        f"node {node_id}: recovered {recovery.n_rules} "
                        f"rules < snapshot's {recovery.snapshot_rules}"
                    )
            invariants["warm_restart"] = not problems
            if problems:
                details["warm_restart"] = "; ".join(problems)
            report.observed["restarted_nodes"] = float(len(restarted))
            report.observed["recovered_rules"] = float(recovered_rules)
            report.observed["checkpoints"] = registry.total(
                "repro_persist_checkpoints_total"
            )
            report.observed["wal_records"] = registry.total(
                "repro_persist_wal_records_total"
            )
            # quiesced above: no pair can land between here and close.
            final_fingerprints = {
                node.node_id: fingerprint_counts(node.servent.counts)
                for node in cluster.nodes
            }

        report.observed.update(
            {
                "answer_rate": probe["answer_rate"],
                "reconnects": float(grand["reconnects"]),
                "expected_min_reconnects": float(floor),
                "protocol_errors": float(grand["protocol_errors"]),
                "corruptions_applied": float(corruptions),
                "frames_in": float(grand["frames_in"]),
                "frames_out": float(grand["frames_out"]),
                "frames_dropped": float(grand["frames_dropped"]),
                "queries_issued": float(grand["queries_issued"]),
                "drain_stalls": registry.total("repro_drain_stalls_total"),
            }
        )
    finally:
        await cluster.close()

    if state_dir is not None and final_fingerprints:
        from repro.core.streaming import StreamingRules
        from repro.network.servent import LIVE_RULES
        from repro.persist.state import PersistentState

        # The rule config the cluster's nodes ran.
        rules_template = StreamingRules(**LIVE_RULES)
        mismatches = []
        for node in cluster.nodes:
            node_dir = cluster.node_state_dir(node.node_id)
            if not os.path.isdir(node_dir):
                mismatches.append(f"node {node.node_id}: state dir missing")
                continue
            fingerprints = []
            for _ in range(2):
                persist = PersistentState(node_dir, fsync="never")
                _counts, info = persist.recover(rules_template)
                persist.close()
                fingerprints.append(info.fingerprint)
            if fingerprints[0] != fingerprints[1]:
                mismatches.append(
                    f"node {node.node_id}: replay fingerprint unstable "
                    f"({fingerprints[0]} then {fingerprints[1]})"
                )
            elif fingerprints[0] != final_fingerprints[node.node_id]:
                mismatches.append(
                    f"node {node.node_id}: durable state {fingerprints[0]} "
                    f"!= live counts {final_fingerprints[node.node_id]}"
                )
        invariants["durable_roundtrip"] = not mismatches
        if mismatches:
            details["durable_roundtrip"] = "; ".join(mismatches)

    await asyncio.sleep(0)  # let close callbacks finish before counting
    current = asyncio.current_task()
    leaked = [
        task
        for task in asyncio.all_tasks()
        if task is not current and task not in baseline_tasks and not task.done()
    ]
    invariants["no_leaks"] = not leaked
    if leaked:
        details["no_leaks"] = f"{len(leaked)} tasks still running after close"
    report.observed["leaked_tasks"] = float(len(leaked))
    return report


def make_plan(name: str, topology: Topology, *, seed: int = 0) -> FaultPlan:
    """One of the named soak plans, sized to ``topology``."""
    if name == "crash-restart":
        return crash_restart_plan(topology.n_nodes, seed=seed, crashes=2)
    if name == "partition-heal":
        return partition_heal_plan(topology.n_nodes, seed=seed)
    if name == "mixed":
        return chaos_plan(topology.n_nodes, topology.edges(), seed=seed)
    raise ValueError(f"unknown plan {name!r}; pick from {PLAN_NAMES}")


def chaos_soak(
    plan_name: str = "mixed",
    *,
    n_nodes: int = 8,
    degree: int = 3,
    seed: int = 0,
    rule_routed: bool = True,
    warmup_queries: int = 30,
    time_scale: float = 1.0,
    state_dir: str | None = None,
) -> SoakReport:
    """Synchronous entry: build topology + plan from a seed, run once."""
    topology = random_regular(n_nodes, degree, rng=as_generator(seed))
    plan = make_plan(plan_name, topology, seed=seed)
    return asyncio.run(
        run_soak(
            topology,
            plan,
            rule_routed=rule_routed,
            seed=seed,
            warmup_queries=warmup_queries,
            time_scale=time_scale,
            state_dir=state_dir,
        )
    )
