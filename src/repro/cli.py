"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every registered experiment with its paper reference.
``run <experiment-id> [...]``
    Regenerate one or more paper artifacts and print their
    paper-vs-measured tables (plus ASCII charts for figure experiments).
``all``
    The same over the complete registry, in order.  Both take
    ``--workers`` / ``--seeds`` / ``--csv`` / ``--markdown`` /
    ``--json`` / ``--no-chart`` (see ``docs/performance.md``, "Running
    experiments").
``hier``
    Compare the two-tier routing arms (flood vs per-node rules vs
    super-peer rules vs hybrid) on one seeded workload and print
    traffic/α/ρ per arm (see ``docs/hierarchy.md``).
``live-node``
    Run one live asyncio servent daemon on a TCP port (optionally
    dialing peers), printing its counters on exit.
``live-cluster``
    Boot a loopback cluster of live servents over real sockets, drive a
    workload through it, and (with ``--compare``) race association
    routing against flooding on identical topology and queries.
``chaos-soak``
    Run a loopback cluster under a seeded fault-injection plan (peer
    crashes, partitions, stream corruption, stalls) and audit teardown
    / reconnect / accounting invariants; exits non-zero if any fails.
    With ``--state-dir`` nodes keep durable rule state and the
    warm-restart invariants join the audit.
``persist inspect``
    Dump the snapshot and WAL-segment headers of one durable
    rule-state directory as JSON (see ``docs/persistence.md``).
``load-test``
    Drive a seeded **open-loop** load step (or RPS ramp) against
    already-running ``live-node`` daemons and print latency
    percentiles, error rates, and the saturation summary (see
    ``docs/scale.md``).
``trace-inspect STORE``
    Print a trace store's header (version, meta word, block size, closed
    or recovered) and, per block, its pairs, two stored lengths, distinct
    keys, row width and verify result; exits 1 when a block fails to
    verify.
``trace-view``
    Merge the ``/trace`` spans of running ``live-node --metrics-port``
    daemons into query trees plus a live α/ρ rollup.

Use ``--seed`` to vary the seed and ``--full`` for the paper's full
365-block horizon (what ``REPRO_FULL_SCALE=1`` selects by default).

Reports and tables go to stdout; diagnostics go through the structured
logger (stderr) — tune with ``--log-level`` and ``--log-json`` (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.obs.logging import configure_logging, get_logger

__all__ = ["main", "build_parser"]

_log = get_logger("cli")


def _non_negative_int(text: str, low: int = 0) -> int:
    """argparse type: an integer >= 0 (>= ``low``)."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    return _non_negative_int(text, 1)


def _finite_positive(text: str) -> float:
    """argparse type: a float with 0 < value < inf (nan fails)."""
    from repro.utils.validation import check_finite_positive

    try:
        return check_finite_positive("value", text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}"
        ) from None


def _host_port(text: str) -> tuple[str, int]:
    """argparse type: ``HOST:PORT`` with a port in 1..65535; an empty
    host is 127.0.0.1.  Every flag naming a peer or an endpoint parses
    through it, before anything is dialled or polled."""
    host, _, port = text.rpartition(":")
    if not (port.isdecimal() and 1 <= int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Adaptively Routing P2P Queries Using "
            "Association Analysis' (ICPP 2006)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's full scale (365 blocks; slow)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured-log threshold on stderr (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiment_ids", nargs="+", metavar="EXPERIMENT")
    all_cmd = sub.add_parser("all", help="run every registered experiment")
    for command in (run, all_cmd):
        command.add_argument(
            "--workers",
            type=_non_negative_int,
            default=0,
            metavar="N",
            help="fan the runs out over N worker processes (default: run "
            "them one after another in this process)",
        )
        command.add_argument(
            "--seeds",
            type=_positive_int,
            default=1,
            metavar="N",
            help="aggregate over N consecutive seeds instead of one run "
            "(mean ± std per row)",
        )
        command.add_argument(
            "--no-chart", action="store_true", help="suppress ASCII series charts"
        )
        command.add_argument(
            "--csv",
            metavar="DIR",
            default=None,
            help="also export each experiment's series as DIR/<id>.csv",
        )
        command.add_argument(
            "--markdown",
            metavar="PATH",
            default=None,
            help="also write a markdown reproduction report to PATH",
        )
        command.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="also write per-run timings (seconds, pid, in-band) to PATH",
        )
    tracegen = sub.add_parser(
        "tracegen",
        help="stream a generated trace into an on-disk trace store: each "
        "block's key histogram in narrow rows under a CRC-32, and each pair "
        "as its 1-, 2- or 4-byte row of it",
    )
    tracegen.add_argument("path", metavar="PATH", help="store file to write")
    tracegen.add_argument(
        "--pairs",
        type=_positive_int,
        default=None,
        help="total pairs to generate (default: --blocks * block size)",
    )
    tracegen.add_argument(
        "--blocks",
        type=_positive_int,
        default=100,
        help="trace length in blocks when --pairs is not given (default: 100)",
    )
    tracegen.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=50_000,
        help="pairs generated per writer append (default: 50,000)",
    )

    trace_eval = sub.add_parser(
        "trace-eval",
        help="evaluate a strategy over an on-disk trace store, "
        "optionally partitioned across worker processes",
    )
    trace_eval.add_argument("path", metavar="PATH", help="store file to evaluate")
    trace_eval.add_argument(
        "--strategy",
        choices=("static", "sliding", "lazy", "adaptive", "streaming"),
        default="sliding",
        help="mine/test strategy (default: %(default)s)",
    )
    trace_eval.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes; 1 = serial streaming run (default: 1)",
    )
    trace_eval.add_argument(
        "--check-serial",
        action="store_true",
        help="also run serially and verify the merged partitioned run "
        "is bit-identical",
    )

    trace_inspect = sub.add_parser(
        "trace-inspect",
        help="print a trace store's header and, per block, its pairs, "
        "stored lengths, distinct keys, row width and verify result",
    )
    trace_inspect.add_argument("path", metavar="STORE", help="store file to inspect")

    hier = sub.add_parser(
        "hier",
        help="compare two-tier routing arms (flood vs per-node rules vs "
        "super-peer rules vs hybrid) on one seeded workload",
    )
    hier.add_argument(
        "--superpeers", type=int, default=60, help="super-peer count (default: 60)"
    )
    hier.add_argument(
        "--leaves-per",
        type=int,
        default=20,
        dest="leaves_per",
        help="leaves attached to each super-peer (default: 20)",
    )
    hier.add_argument(
        "--degree", type=int, default=4, help="super-peer overlay degree"
    )
    hier.add_argument(
        "--ttl", type=int, default=4, help="tier-2 flood TTL (default: 4)"
    )
    hier.add_argument(
        "--categories", type=int, default=40, help="content categories"
    )
    hier.add_argument(
        "--queries", type=int, default=2000, help="measured queries per arm"
    )
    hier.add_argument(
        "--warmup",
        type=int,
        default=2000,
        help="unrecorded warm-up queries per arm (rule tables learn here)",
    )
    hier.add_argument(
        "--mode",
        choices=("flood", "leaf-rules", "superpeer-rules", "hybrid"),
        default=None,
        help="run a single HierNetwork arm instead of the full comparison",
    )

    live_node = sub.add_parser(
        "live-node", help="run one live servent daemon over TCP"
    )
    live_node.add_argument("--host", default="127.0.0.1")
    live_node.add_argument(
        "--port", type=int, default=6346, help="listen port (0 = ephemeral)"
    )
    live_node.add_argument("--node-id", type=int, default=0)
    live_node.add_argument(
        "--connect",
        action="append",
        type=_host_port,
        default=[],
        metavar="HOST:PORT",
        help="peer to dial and supervise (repeatable)",
    )
    live_node.add_argument(
        "--share",
        default="",
        metavar="TERM[,TERM...]",
        help="keywords to share one file apiece for",
    )
    live_node.add_argument(
        "--flood",
        action="store_true",
        help="plain flooding servent (default: rule-routed)",
    )
    live_node.add_argument(
        "--duration",
        type=float,
        default=0.0,
        metavar="SECS",
        help="run this long then exit (0 = until interrupted)",
    )
    live_node.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus /metrics and /healthz on this port "
        "(0 = ephemeral; default: disabled)",
    )
    live_node.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="journal learned rule state here and warm-recover it on "
        "restart (rule-routed nodes only; default: in-memory)",
    )
    live_node.add_argument(
        "--checkpoint-interval",
        type=_finite_positive,
        default=30.0,
        metavar="SECS",
        help="seconds between rule-state snapshots (default: %(default)s)",
    )
    live_node.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="WAL durability policy (default: %(default)s)",
    )

    live_cluster = sub.add_parser(
        "live-cluster", help="boot a loopback live cluster and drive queries"
    )
    live_cluster.add_argument("--nodes", type=int, default=8)
    live_cluster.add_argument(
        "--topology",
        choices=("regular", "star"),
        default="regular",
        help="overlay shape (regular uses --degree)",
    )
    live_cluster.add_argument("--degree", type=int, default=3)
    live_cluster.add_argument("--queries", type=int, default=150)
    live_cluster.add_argument("--terms", type=int, default=24)
    # unset, the cluster's own defaults apply
    live_cluster.add_argument("--top-k", type=int)
    live_cluster.add_argument("--max-ttl", type=int)
    live_cluster.add_argument(
        "--compare",
        action="store_true",
        help="also run a flooding cluster on the same topology/workload",
    )
    live_cluster.add_argument(
        "--per-node", action="store_true", help="print per-node counters"
    )
    live_cluster.add_argument(
        "--metrics-dump",
        metavar="PATH",
        default=None,
        help="write a Prometheus /metrics snapshot of the cluster to PATH "
        "after the workload (with --compare, one file per mode)",
    )
    live_cluster.add_argument(
        "--show-trace",
        action="store_true",
        help="print the hop-by-hop trace of one sample query per mode",
    )
    live_cluster.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="per-node durable rule state under DIR/node-NNN "
        "(association mode only; default: in-memory)",
    )

    chaos = sub.add_parser(
        "chaos-soak",
        help="batter a loopback live cluster with a seeded fault plan "
        "and audit its invariants",
    )
    chaos.add_argument("--nodes", type=int, default=8)
    chaos.add_argument("--degree", type=int, default=3)
    chaos.add_argument(
        "--plan",
        choices=("crash-restart", "partition-heal", "mixed"),
        default="mixed",
        help="which seeded fault schedule to run (default: %(default)s)",
    )
    chaos.add_argument(
        "--flood",
        action="store_true",
        help="flooding servents (default: rule-routed)",
    )
    chaos.add_argument(
        "--warmup-queries",
        type=int,
        default=30,
        help="queries to train rules before faults start",
    )
    chaos.add_argument(
        "--time-scale",
        type=_finite_positive,
        default=1.0,
        help="stretch (>1) or compress (<1) the plan's activation times",
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the full soak report as JSON to PATH",
    )
    chaos.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="give every node durable rule state under DIR and audit "
        "the warm-restart invariants (rule-routed soaks only)",
    )

    trace_view = sub.add_parser(
        "trace-view",
        help="merge /trace spans across running live-node daemons into "
        "query trees plus a live alpha/rho rollup",
    )
    trace_view.add_argument(
        "--endpoint",
        action="append",
        type=_host_port,
        default=[],
        metavar="HOST:PORT",
        help="a live-node --metrics-port endpoint (repeatable)",
    )
    trace_view.add_argument(
        "--guid",
        default=None,
        metavar="GUID",
        help="render this query's tree (hex or decimal; default: the "
        "latest answered trace)",
    )
    trace_view.add_argument(
        "--polls",
        type=int,
        default=2,
        metavar="N",
        help="collection sweeps; each pair of sweeps yields one rolling "
        "alpha/rho window (default: %(default)s)",
    )
    trace_view.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECS",
        help="seconds between sweeps (default: %(default)s)",
    )
    trace_view.add_argument(
        "--trees",
        type=int,
        default=1,
        metavar="N",
        help="how many query trees to render (default: %(default)s)",
    )

    load_test = sub.add_parser(
        "load-test",
        help="open-loop load against running servents (saturation ramp)",
    )
    load_test.add_argument(
        "--target",
        action="append",
        type=_host_port,
        default=[],
        metavar="HOST:PORT",
        required=True,
        help="servent to load (repeatable; clients attach as peers)",
    )
    load_test.add_argument(
        "--rps",
        default="50",
        metavar="R[,R...]",
        help="offered RPS — one value for a single step, a comma list "
        "for a saturation ramp (default: %(default)s)",
    )
    load_test.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECS",
        help="seconds of offered load per step (default: %(default)s)",
    )
    load_test.add_argument(
        "--terms",
        default="jazz,blues,rock,folk,metal,opera",
        metavar="TERM[,TERM...]",
        help="query vocabulary",
    )
    load_test.add_argument(
        "--think",
        choices=("exponential", "lognormal", "fixed"),
        default="exponential",
        help="inter-arrival distribution (default: %(default)s)",
    )
    load_test.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-request timeout in seconds (default: %(default)s)",
    )
    load_test.add_argument(
        "--p99-bound",
        type=float,
        default=1.0,
        help="saturation gate: p99 bound in seconds (default: %(default)s)",
    )

    persist = sub.add_parser(
        "persist",
        help="inspect durable rule-state directories (snapshots + WAL)",
    )
    persist_sub = persist.add_subparsers(dest="persist_command", required=True)
    inspect = persist_sub.add_parser(
        "inspect",
        help="dump snapshot and WAL-segment headers of a state dir as JSON",
    )
    inspect.add_argument("state_dir", metavar="DIR")
    return parser


def _print_result(result, *, chart: bool = True, stream=None) -> None:
    stream = stream or sys.stdout
    print(result.report(), file=stream)
    if chart and result.series:
        from repro.metrics.ascii_chart import line_chart

        plottable = {
            name: values
            for name, values in result.series.items()
            if name in ("coverage", "success") and values
        }
        if plottable:
            print(file=stream)
            print(line_chart(plottable, height=10), file=stream)
    print(file=stream)


def _print_stats(stats: dict[str, int], *, indent: str = "  ", stream=None) -> None:
    stream = stream or sys.stdout
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{indent}{key.ljust(width)}  {value}", file=stream)


def _run_live_node(args) -> int:
    import asyncio

    from repro.live.node import LiveServent
    from repro.network.servent import SharedFile

    library = [
        SharedFile(index=i, name=f"{term.strip()} track{i}.mp3", size=1 << 20)
        for i, term in enumerate(args.share.split(","))
        if term.strip()
    ]
    if args.state_dir and args.flood:
        _log.error("--state-dir persists rule state; drop --flood to use it")
        return 2

    registry = tracer = None
    if args.metrics_port is not None:
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracing import QueryTracer

        registry = MetricsRegistry()
        tracer = QueryTracer()

    async def run() -> None:
        node = LiveServent(
            args.node_id,
            host=args.host,
            port=args.port,
            library=library,
            rule_routed=not args.flood,
            registry=registry,
            tracer=tracer,
            obs_port=args.metrics_port,
            state_dir=args.state_dir,
            checkpoint_interval=args.checkpoint_interval,
            fsync=args.fsync,
        )
        await node.start()
        mode = "flooding" if args.flood else "rule-routed"
        _log.info(
            "servent listening",
            extra={
                "mode": mode,
                "node": args.node_id,
                "host": node.host,
                "port": node.port,
                "metrics_port": node.obs_port,
            },
        )
        if node.recovery is not None:
            _log.info("rule state recovered", extra=node.recovery.as_dict())
        for host, port in args.connect:
            node.add_peer(host, port)
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            await node.close()
            print("final counters:")
            _print_stats(node.snapshot())

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _split_terms(text: str) -> list[str]:
    return [term.strip() for term in text.split(",") if term.strip()]


def _run_load_test(args) -> int:
    import json

    from repro.scale.loadgen import LoadConfig
    from repro.scale.ramp import run_ramp, saturation_summary
    from repro.utils.validation import check_finite_positive

    vocabulary = _split_terms(args.terms)
    if not vocabulary:
        _log.error("need a non-empty --terms vocabulary")
        return 2
    try:
        rps_steps = [
            check_finite_positive("--rps", part)
            for part in args.rps.split(",")
            if part.strip()
        ]
        if not rps_steps:
            raise ValueError("--rps needs at least one value")
        base = LoadConfig(
            rps=1.0,
            duration=args.duration,
            think=args.think,
            request_timeout=args.timeout,
        )
    except ValueError as exc:
        _log.error("bad load-test setting", extra={"error": str(exc)})
        return 2
    seed = args.seed if args.seed is not None else 0
    steps = run_ramp(
        args.target,
        vocabulary,
        rps_steps,
        step_duration=args.duration,
        seed=seed,
        load_config=base,
    )
    summary = saturation_summary(steps, p99_bound=args.p99_bound)
    print(json.dumps({"steps": steps, "summary": summary}, indent=2))
    return 0


def _parse_guid(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        return int(text, 16)


def _run_trace_view(args) -> int:
    import time as _time

    from repro.obs.collect import (
        ClusterTraceCollector,
        format_cluster_rollup,
        format_trace_tree,
    )

    endpoints = [
        (f"{host}:{port}", f"http://{host}:{port}") for host, port in args.endpoint
    ]
    if not endpoints:
        _log.error("no endpoints: pass --endpoint")
        return 2
    collector = ClusterTraceCollector(endpoints)
    polls = max(1, args.polls)
    for sweep in range(polls):
        if sweep:
            _time.sleep(max(0.0, args.interval))
        summary = collector.poll()
        _log.info(
            "trace sweep",
            extra={
                "sweep": sweep + 1,
                "nodes": summary["nodes"],
                "traces": summary["traces"],
            },
        )
    if collector.errors and not collector.per_node:
        _log.error(
            "no endpoint answered", extra={"errors": collector.errors}
        )
        return 2
    print(format_cluster_rollup(collector))
    if args.guid is not None:
        try:
            guids = [_parse_guid(args.guid)]
        except ValueError:
            _log.error("bad --guid value", extra={"value": args.guid})
            return 2
        if guids[0] not in collector.traces:
            _log.error(
                "guid not in any collected trace",
                extra={"guid": args.guid, "traces": len(collector.traces)},
            )
            return 2
    else:
        # latest answered traces first, then latest seen, up to --trees.
        answered = set(collector.answered_guids())
        by_recency = sorted(
            collector.traces,
            key=lambda g: (
                g in answered,
                collector.traces[g].last_event,
            ),
            reverse=True,
        )
        guids = by_recency[: max(1, args.trees)]
    if not guids:
        print("\nno traces collected (is --trace-sample enabled?)")
        return 0
    for guid in guids:
        print()
        print(format_trace_tree(collector.traces[guid]))
    return 0


def _run_trace_inspect(args) -> int:
    """Print what a trace store holds: 0 if every block verifies, 1 if
    one does not, 2 if the file is not a store."""
    from repro.trace.store import TraceStoreError, TraceStoreReader

    try:
        reader = TraceStoreReader(args.path)
    except (OSError, TraceStoreError) as exc:
        _log.error("cannot open trace store", extra={"error": str(exc)})
        return 2
    with reader:
        print(
            f"{args.path}: version {reader.version}, "
            f"meta {reader.meta_fingerprint:#018x}, "
            f"block size {reader.block_size:,}, {reader.n_blocks} block(s) / "
            f"{reader.n_pairs:,} pairs "
            f"({'recovered' if reader.recovered else 'closed'})"
        )
        columns = "{:>5} {:>8} {:>24} {:>7} {:>5}  {}"
        heads = ("block", "pairs", "stored bytes", "d", "width", "verify")
        print(columns.format(*heads))
        intact = True
        for row in reader.describe_blocks():
            intact &= row["intact"]
            print(
                columns.format(
                    row["block"],
                    row["pairs"],
                    ",".join(map(str, row["lengths"])),
                    row.get("d", "-"),
                    row.get("width") or "-",
                    "ok" if row["intact"] else "FAIL",
                )
            )
            if "error" in row:
                print(f"      {row['error']}")
    return 0 if intact else 1


def _print_sample_trace(cluster, label: str, *, stream=None) -> None:
    """Show one query's hop-by-hop path: the last answered query of the
    run (every hop visible end to end), or the last issued one if the
    workload answered nothing."""
    stream = stream or sys.stdout
    sample = None
    for node_id, term, guid in reversed(cluster.issued):
        trace = cluster.trace(guid)
        if trace is not None and trace.answered:
            sample = (node_id, term, guid)
            break
    if sample is None and cluster.issued:
        sample = cluster.issued[-1]
    if sample is None:
        print(f"{label}: no queries were issued, nothing to trace", file=stream)
        return
    from repro.obs.collect import format_trace_tree

    node_id, term, guid = sample
    print(
        f"{label}: trace of {term!r} from node {node_id} "
        f"(guid {guid:#x}):",
        file=stream,
    )
    trace = cluster.trace(guid)
    if trace is None:
        print(f"no trace for guid {guid:#x}", file=stream)
    else:
        print(format_trace_tree(trace), file=stream)


def _run_live_cluster(args, seed: int) -> int:
    import asyncio

    import numpy as np

    from repro.live.cluster import LiveCluster, interest_plan, make_vocabulary
    from repro.network.topology import Topology, random_regular

    rng = np.random.default_rng(seed)
    if args.nodes < 2:
        _log.error("need at least 2 nodes", extra={"nodes": args.nodes})
        return 2
    if args.topology == "star":
        topology = Topology(args.nodes, [(0, i) for i in range(1, args.nodes)])
        origins = list(range(1, args.nodes))
    else:
        topology = random_regular(args.nodes, args.degree, rng=rng)
        origins = None
    vocabulary = make_vocabulary(args.terms)
    plan = interest_plan(
        args.nodes, vocabulary, args.queries, rng, origins=origins
    )

    observe = bool(args.metrics_dump) or args.show_trace
    limits = {
        name: value
        for name, value in (("top_k", args.top_k), ("max_ttl", args.max_ttl))
        if value is not None
    }

    async def run_one(label: str, rule_routed: bool, n_modes: int):
        async with LiveCluster(
            topology,
            rule_routed=rule_routed,
            **limits,
            observe=observe,
            state_dir=args.state_dir if rule_routed else None,
        ) as cluster:
            cluster.stock_partitioned_library(vocabulary)
            summary = await cluster.run_plan(plan)
            if args.metrics_dump:
                path = args.metrics_dump
                if n_modes > 1:
                    path = f"{path}.{label}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cluster.render_metrics())
                _log.info(
                    "metrics snapshot written",
                    extra={"path": path, "mode": label},
                )
            if args.show_trace:
                _print_sample_trace(cluster, label)
            return summary, cluster.totals(), cluster.node_stats()

    async def run() -> None:
        modes = [("association", True)]
        if args.compare:
            modes.append(("flooding", False))
        results = {}
        for label, rule_routed in modes:
            summary, totals, per_node = await run_one(
                label, rule_routed, len(modes)
            )
            results[label] = summary
            print(f"{label}: {topology.n_nodes} nodes, {len(plan)} queries")
            for key in (
                "answer_rate",
                "frames_per_query",
                "frames_per_answered",
            ):
                print(f"  {key}: {summary[key]:.3f}")
            decisions = totals["queries_rule_routed"] + totals["queries_flooded"]
            if rule_routed and decisions:
                print(
                    f"  rule-routed decisions: "
                    f"{totals['queries_rule_routed']}/{decisions} "
                    f"(rules promoted {totals['rule_regenerations']}x)"
                )
            if args.per_node:
                for node_id, stats in per_node.items():
                    print(f"  node {node_id}: {stats}")
        if args.compare:
            rule_summary = results["association"]
            flood_summary = results["flooding"]
            measured = (
                flood_summary["frames_per_answered"]
                / rule_summary["frames_per_answered"]
                if rule_summary["frames_per_answered"] > 0
                else float("inf")
            )
            print(
                f"measured reduction: {measured:.2f}x cheaper per answered "
                f"query ({rule_summary['frames_per_answered']:.2f} vs "
                f"{flood_summary['frames_per_answered']:.2f} frames)"
            )

    asyncio.run(run())
    return 0


def _run_chaos_soak(args, seed: int) -> int:
    from repro.faults.soak import chaos_soak

    if args.nodes < 2:
        _log.error("need at least 2 nodes", extra={"nodes": args.nodes})
        return 2
    if args.state_dir and args.flood:
        _log.error("--state-dir persists rule state; drop --flood to use it")
        return 2
    report = chaos_soak(
        args.plan,
        n_nodes=args.nodes,
        degree=args.degree,
        seed=seed,
        rule_routed=not args.flood,
        warmup_queries=args.warmup_queries,
        time_scale=args.time_scale,
        state_dir=args.state_dir,
    )
    print(report.format())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        _log.info("soak report written", extra={"path": args.report})
    return 0 if report.ok else 1


def _run_experiments(args, ids: list[str], seed: int) -> int:
    """``run`` / ``all``: one executor call, then reports in id order."""
    import json
    from itertools import islice

    from repro.experiments.config import FULL_SCALE
    from repro.experiments.registry import run_experiments

    n_seeds = args.seeds
    if n_seeds > 1 and (args.csv or args.markdown):
        _log.error(
            "--csv and --markdown write one run's series; a seed sweep has "
            "none: drop them or --seeds",
            extra={"seeds": n_seeds},
        )
        return 2
    t0 = time.perf_counter()
    try:
        runs = run_experiments(
            ids,
            seeds=range(seed, seed + n_seeds),
            workers=args.workers,
            scale=FULL_SCALE if args.full else None,
        )
    except KeyError as exc:  # the executor refuses unknown ids before running
        _log.error("unknown experiment", extra={"reason": exc.args[0]})
        return 2
    failures = 0
    results = []
    timings = []
    for experiment_id in ids:
        group = list(islice(runs, n_seeds))
        elapsed = sum(run.seconds for run in group)
        if n_seeds > 1:
            from repro.experiments.multi import aggregate_sweep

            sweep = aggregate_sweep(group)
            print(sweep.report())
            in_band = sweep.all_in_band
        else:
            result = group[0].result
            results.append(result)
            if args.csv and result.series:
                os.makedirs(args.csv, exist_ok=True)
                csv_path = os.path.join(args.csv, f"{experiment_id}.csv")
                result.save_series(csv_path)
                _log.info("series written", extra={"path": csv_path})
            _print_result(result, chart=not args.no_chart)
            in_band = result.all_within_band
        status = "OK" if in_band else "OUT OF BAND"
        print(f"[{experiment_id}] {status} in {elapsed:.1f}s\n")
        failures += not in_band
        timings.extend(
            {
                "experiment_id": experiment_id,
                "seed": run.seed,
                "seconds": run.seconds,
                "pid": run.pid,
                "within_band": run.result.all_within_band,
            }
            for run in group
        )
    if args.markdown:
        from repro.experiments.report import build_markdown_report

        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(build_markdown_report(results))
        _log.info("markdown report written", extra={"path": args.markdown})
    if args.json:
        payload = {
            "name": "bench_all",
            "workers": max(args.workers, 1),
            "wall_seconds": time.perf_counter() - t0,
            "experiments": timings,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        _log.info("bench json written", extra={"path": args.json})
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)

    from repro.experiments.config import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED

    if args.command == "list":
        from repro.experiments.registry import EXPERIMENTS

        width = max(len(k) for k in EXPERIMENTS)
        for experiment_id, (title, _fn) in EXPERIMENTS.items():
            print(f"{experiment_id.ljust(width)}  {title}")
        return 0

    if args.command == "run":
        return _run_experiments(args, args.experiment_ids, seed)

    if args.command == "all":
        from repro.experiments.registry import EXPERIMENTS

        return _run_experiments(args, list(EXPERIMENTS), seed)

    if args.command == "live-node":
        return _run_live_node(args)

    if args.command == "live-cluster":
        return _run_live_cluster(args, seed)

    if args.command == "chaos-soak":
        return _run_chaos_soak(args, seed)

    if args.command == "load-test":
        return _run_load_test(args)

    if args.command == "trace-view":
        return _run_trace_view(args)

    if args.command == "persist":
        import json

        from repro.persist.state import inspect_state_dir

        if not os.path.isdir(args.state_dir):
            _log.error("no such state dir", extra={"path": args.state_dir})
            return 2
        print(json.dumps(inspect_state_dir(args.state_dir), indent=2))
        return 0

    if args.command == "hier":
        from repro.experiments.hier import (
            SUBSTRATE,
            format_arm_table,
            hier_arm_stats,
        )
        from repro.network.hier.network import HierConfig, HierNetwork

        substrate = {
            **SUBSTRATE,
            "n_superpeers": args.superpeers,
            "leaves_per_superpeer": args.leaves_per,
            "superpeer_degree": args.degree,
            "n_categories": args.categories,
            "superpeer_ttl": args.ttl,
        }
        try:  # refuse an out-of-range flag before any arm is built
            HierConfig(**substrate)
            if min(args.queries, args.warmup) < 0:
                raise ValueError("--queries and --warmup must be non-negative")
        except ValueError as exc:
            print(f"hier: {exc}", file=sys.stderr)
            return 2
        n_leaves = args.superpeers * args.leaves_per
        print(
            f"{args.superpeers} super-peers x {args.leaves_per} leaves "
            f"= {n_leaves + args.superpeers} nodes, "
            f"{args.queries} queries after {args.warmup} warm-up, seed {seed}"
        )
        if args.mode is not None:
            net = HierNetwork(HierConfig(mode=args.mode, **substrate), seed=seed)
            stats = net.run_workload(args.queries, warmup=args.warmup)
            arms = {args.mode: (stats, net.control_messages)}
        else:
            arms = hier_arm_stats(
                substrate, n_queries=args.queries, warmup=args.warmup, seed=seed
            )
        print(format_arm_table(arms))
        return 0

    if args.command == "tracegen":
        from time import perf_counter

        from repro.trace.store import TraceStoreWriter
        from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

        config = MonitorTraceConfig()
        total = args.pairs if args.pairs is not None else args.blocks * config.block_size
        generator = MonitorTraceGenerator(config, seed=seed)
        written = 0
        generate_seconds = 0.0
        t0 = perf_counter()
        with TraceStoreWriter(args.path, block_size=config.block_size) as writer:
            while written < total:
                n = min(args.chunk_size, total - written)
                g0 = perf_counter()
                arrays = generator.generate_pair_arrays(n)
                generate_seconds += perf_counter() - g0
                writer.append(arrays.source, arrays.replier)
                written += n
            # The paper's blocks are fixed-size: closing drops a short tail.
            dropped = writer.pending_pairs
        # everything that is not the generator is the writer: open, appends, close
        write_seconds = perf_counter() - t0 - generate_seconds
        generate_rate = written / generate_seconds if generate_seconds else float("inf")
        write_rate = written / write_seconds if write_seconds else float("inf")
        tail = f" (dropped a {dropped:,}-pair partial block)" if dropped else ""
        print(
            f"wrote {writer.n_pairs:,} pairs / {writer.n_blocks} block(s) "
            f"to {args.path}{tail}: "
            f"generate {generate_seconds:.2f}s ({generate_rate:,.0f} pairs/sec), "
            f"write {write_seconds:.2f}s ({write_rate:,.0f} pairs/sec), "
            f"seed {seed}"
        )
        return 0

    if args.command == "trace-inspect":
        return _run_trace_inspect(args)

    if args.command == "trace-eval":
        from time import perf_counter

        from repro.core.strategies import (
            AdaptiveSlidingWindow,
            LazySlidingWindow,
            SlidingWindow,
            StaticRuleset,
        )
        from repro.core.streaming import StreamingRules
        from repro.parallel.partition import (
            evaluate_store,
            evaluate_store_partitioned,
        )
        from repro.trace.store import TraceStoreError, TraceStoreReader

        factories = {
            "static": StaticRuleset,
            "sliding": SlidingWindow,
            "lazy": LazySlidingWindow,
            "adaptive": AdaptiveSlidingWindow,
            "streaming": StreamingRules,
        }
        strategy = factories[args.strategy]()
        try:
            with TraceStoreReader(args.path) as reader:
                n_pairs = reader.n_pairs
                n_blocks = reader.n_blocks
        except (OSError, TraceStoreError) as exc:
            _log.error("cannot open trace store", extra={"error": str(exc)})
            return 2
        if n_blocks < 2:
            _log.error(
                "trace store too short: a strategy trains on one block "
                "and tests on the next",
                extra={"blocks": n_blocks},
            )
            return 2
        # Blocks read their segments when first asked for, so corruption
        # the open did not see surfaces inside the evaluation.
        try:
            t0 = perf_counter()
            run = evaluate_store_partitioned(
                args.path, strategy, workers=args.workers
            )
            seconds = perf_counter() - t0
            serial = evaluate_store(args.path, strategy) if args.check_serial else None
        except TraceStoreError as exc:
            _log.error("trace store unreadable", extra={"error": str(exc)})
            return 2
        rate = n_pairs / seconds if seconds else float("inf")
        print(
            f"{run.strategy_name} over {n_blocks} block(s) / {n_pairs:,} pairs "
            f"with {args.workers} worker(s): "
            f"trials={run.n_trials} avg_coverage={run.average_coverage:.3f} "
            f"avg_success={run.average_success:.3f} "
            f"generations={run.n_generations} "
            f"({seconds:.2f}s, {rate:,.0f} pairs/sec)"
        )
        if args.check_serial:
            if serial != run:
                print("MISMATCH: partitioned run differs from serial", file=sys.stderr)
                return 1
            print("serial check: bit-identical")
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
