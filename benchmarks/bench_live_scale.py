"""Saturation benchmark: an in-process cluster under open-loop load.

``python -m benchmarks.bench_live_scale`` boots a ring
:class:`repro.live.cluster.LiveCluster` (one ``LiveServent`` per node,
real loopback TCP between them), then steps offered RPS through an
open-loop ramp (:mod:`repro.scale.ramp`) on the same event loop and
emits ``BENCH_live_scale.json``:

* one record per offered-RPS step — p50/p95/p99 latency timed from each
  request's due instant, achieved rate, timeout/error rate, cluster-side
  shed/drop deltas, open-loop fidelity;
* the saturation summary — max sustainable QPS within the p99 bound and
  error budget.  Servents and generator share one loop, one core, so
  that is also the per-core figure;
* the cluster's counter totals, restarted nodes included.

The run **gates**: exit 1 unless the cluster sustains ``--floor-qps``
at ``--p99-bound`` seconds, so CI catches throughput regressions the
unit suite cannot see.  ``--report`` additionally writes the curve as a
Markdown table for artifact upload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from benchmarks._emit import emit_bench_json

DEFAULT_TERMS = (
    "jazz", "blues", "rock", "folk", "metal", "opera",
    "tango", "salsa", "disco", "house", "swing", "punk",
)


def _parse_steps(text: str) -> list[float]:
    from repro.utils.validation import check_finite_positive

    try:
        steps = [
            check_finite_positive("RPS step", part)
            for part in text.split(",")
            if part.strip()
        ]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not steps:
        raise argparse.ArgumentTypeError("need at least one RPS step")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_live_scale",
        description="Gated saturation benchmark over an in-process cluster.",
    )
    parser.add_argument(
        "--nodes", type=int, default=2,
        help="LiveServents on the ring (default 2)",
    )
    parser.add_argument(
        "--rps", type=_parse_steps, default=_parse_steps("40,80,160,320"),
        help="comma-separated offered-RPS steps (default 40,80,160,320)",
    )
    parser.add_argument(
        "--step-duration", type=float, default=8.0,
        help="seconds of offered load per step (default 8)",
    )
    parser.add_argument(
        "--terms", type=lambda t: [s for s in t.split(",") if s],
        default=list(DEFAULT_TERMS),
        help="comma-separated query vocabulary (partitioned across nodes)",
    )
    parser.add_argument(
        "--think", choices=("exponential", "lognormal", "fixed"),
        default="exponential", help="inter-arrival distribution",
    )
    parser.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-request timeout in seconds (default 2)",
    )
    parser.add_argument(
        "--p99-bound", type=float, default=1.0,
        help="a step only sustains if p99 latency <= this (seconds)",
    )
    parser.add_argument(
        "--max-error-rate", type=float, default=0.05,
        help="a step only sustains if timeout+error rate <= this",
    )
    parser.add_argument(
        "--floor-qps", type=float, default=20.0,
        help="gate: fail unless max sustainable QPS >= this",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base arrival-process seed"
    )
    parser.add_argument(
        "--state-root", default=None,
        help="root directory for per-node durable state (default: none)",
    )
    parser.add_argument(
        "--report", default=None,
        help="also write the saturation curve as Markdown to this path",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: 2 nodes, low RPS, short steps",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=0,
        help="also run a second, traced ramp sampling 1-in-N GUIDs and "
        "gate its overhead at --trace-overhead (0 = skip, default)",
    )
    parser.add_argument(
        "--trace-overhead", type=float, default=0.05,
        help="gate: traced max sustainable QPS must stay within this "
        "fraction of the untraced baseline (default 0.05)",
    )
    parser.add_argument(
        "--trace-report", default=None,
        help="write the traced ramp's query tree + cluster routing "
        "quality as Markdown to this path",
    )
    return parser


async def _ramp_once(args: argparse.Namespace, *, trace_sample: int = 0) -> dict:
    """Boot one cluster, run the full ramp against it, tear it down.

    With ``trace_sample > 0`` the cluster's tracer samples 1-in-N GUIDs
    and the result additionally carries a rendered query tree and the
    cluster's routing quality (the tracing-overhead comparison needs a
    *separate* cluster so rules learned under the baseline ramp do not
    flatter the traced one).
    """
    from repro.live.cluster import LiveCluster
    from repro.network.topology import Topology
    from repro.obs.tracing import QueryTracer
    from repro.scale.loadgen import LoadConfig
    from repro.scale.ramp import run_ramp_async, saturation_summary

    # Ring topology: every node has peers, every query can reach every
    # shard within the TTL, and the edge count stays O(n).
    n = args.nodes
    topology = Topology(n, [(i, (i + 1) % n) for i in range(n)] if n > 1 else [])
    cluster = LiveCluster(
        topology,
        rule_routed=True,
        tracer=QueryTracer(sample=trace_sample) if trace_sample else None,
        state_dir=None if trace_sample else args.state_root,
    )
    cluster.stock_partitioned_library(list(args.terms))
    base = LoadConfig(
        rps=1.0,
        duration=args.step_duration,
        think=args.think,
        request_timeout=args.timeout,
        trace_sample=trace_sample,
    )
    async with cluster:
        steps = await run_ramp_async(
            [(cluster.host, node.port) for node in cluster.nodes],
            list(args.terms),
            args.rps,
            step_duration=args.step_duration,
            seed=args.seed,
            load_config=base,
            cluster_totals=cluster.totals,
        )
        totals = cluster.grand_totals()
    summary = saturation_summary(
        steps, p99_bound=args.p99_bound, max_error_rate=args.max_error_rate
    )
    return {
        "steps": steps,
        "summary": summary,
        "cluster_totals": totals,
        "trace": _render_trace(cluster, totals) if trace_sample else None,
    }


def _render_trace(cluster, totals: dict[str, int]) -> dict:
    """The cluster's routing quality and its most interesting query tree:
    the latest answered trace, else the latest seen."""
    from repro.obs.collect import format_trace_tree, quality_measures

    quality = quality_measures(totals)
    tracer = cluster.tracer
    answered = tracer.answered_guids()
    parts = [
        "## Cluster routing quality",
        "",
        "| alpha | rho | traffic/query |",
        "|---|---|---|",
        f"| {quality['alpha']:.3f} | {quality['rho']:.3f} "
        f"| {quality['traffic_per_query']:.2f} |",
    ]
    pool = answered or tracer.guids()
    if pool:
        guid = max(pool, key=lambda g: cluster.trace(g).last_event)
        parts += ["", format_trace_tree(cluster.trace(guid))]
    return {
        "traces_collected": len(tracer),
        "answered": len(answered),
        "quality": quality,
        "markdown": "\n".join(parts),
    }


def run(args: argparse.Namespace) -> dict:
    if args.quick:
        args.nodes = 2
        args.rps = [10.0, 20.0, 40.0, 80.0]
        args.step_duration = min(args.step_duration, 4.0)
        args.floor_qps = min(args.floor_qps, 8.0)

    baseline = asyncio.run(_ramp_once(args))
    payload = {
        "metadata": {
            "nodes": args.nodes,
            "cpu_count": os.cpu_count(),
            "think": args.think,
            "step_duration_seconds": args.step_duration,
            "request_timeout_seconds": args.timeout,
            "terms": list(args.terms),
            "seed": args.seed,
        },
        "steps": baseline["steps"],
        "summary": baseline["summary"],
        "cluster_totals": baseline["cluster_totals"],
    }
    if args.trace_sample > 0:
        traced = asyncio.run(_ramp_once(args, trace_sample=args.trace_sample))
        baseline_qps = baseline["summary"]["max_sustainable_qps"]
        traced_qps = traced["summary"]["max_sustainable_qps"]
        overhead = (
            (baseline_qps - traced_qps) / baseline_qps
            if baseline_qps > 0
            else 0.0
        )
        payload["tracing"] = {
            "sample": args.trace_sample,
            "baseline_qps": baseline_qps,
            "traced_qps": traced_qps,
            "overhead_fraction": round(overhead, 4),
            "overhead_bound": args.trace_overhead,
            "traced_steps": traced["steps"],
            "traced_summary": traced["summary"],
            "trace": {
                k: v for k, v in traced["trace"].items() if k != "markdown"
            },
        }
        payload["trace_markdown"] = traced["trace"]["markdown"]
    return payload


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    payload = run(args)
    summary = payload["summary"]
    trace_markdown = payload.pop("trace_markdown", None)
    path = emit_bench_json("live_scale", payload)
    if args.report:
        from repro.scale.ramp import format_saturation_markdown

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(format_saturation_markdown(payload["steps"], summary))
        print(f"saturation report: {args.report}")
    if args.trace_report and trace_markdown:
        with open(args.trace_report, "w", encoding="utf-8") as fh:
            fh.write(trace_markdown)
            fh.write("\n")
        print(f"trace report: {args.trace_report}")
    print(f"bench json: {path}")
    print(json.dumps(summary, indent=2))
    failed = False
    if summary["max_sustainable_qps"] < args.floor_qps:
        print(
            f"GATE FAIL: max sustainable "
            f"{summary['max_sustainable_qps']:g} QPS "
            f"< floor {args.floor_qps:g} QPS "
            f"(p99 bound {args.p99_bound:g}s, "
            f"error budget {args.max_error_rate:.0%})",
            file=sys.stderr,
        )
        failed = True
    tracing = payload.get("tracing")
    if tracing is not None:
        if tracing["overhead_fraction"] > args.trace_overhead:
            print(
                f"GATE FAIL: sampled tracing cost "
                f"{tracing['overhead_fraction']:.1%} of max sustainable "
                f"QPS ({tracing['baseline_qps']:g} -> "
                f"{tracing['traced_qps']:g}), bound "
                f"{args.trace_overhead:.0%}",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"TRACE GATE PASS: 1-in-{tracing['sample']} tracing cost "
                f"{tracing['overhead_fraction']:.1%} "
                f"({tracing['baseline_qps']:g} -> "
                f"{tracing['traced_qps']:g} QPS), within "
                f"{args.trace_overhead:.0%}"
            )
    if failed:
        return 1
    print(
        f"GATE PASS: sustained {summary['max_sustainable_qps']:g} QPS "
        f"({summary['qps_per_core']:g} QPS/core) "
        f"within p99 <= {args.p99_bound:g}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
