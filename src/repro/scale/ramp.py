"""Saturation-curve ramp controller.

A single load level tells you almost nothing about capacity: the
interesting numbers — max sustainable throughput, the knee where tail
latency departs — only appear when offered load is *stepped* and each
step is measured independently.  :func:`run_ramp` does exactly that:
for each offered RPS in an increasing schedule it runs one fresh
open-loop :class:`~repro.scale.loadgen.LoadGenerator` window against
the cluster and records latency percentiles, error/shed rates, and
open-loop fidelity.  :func:`saturation_summary` then reads the curve
the way a capacity plan would: the **max sustainable QPS** is the
highest offered step that stayed within the p99 bound and error
budget.

Steps reuse the same cluster on purpose — rules learned at low load
keep routing at high load, exactly as a warm production deployment
would behave.  What must *not* leak between steps is load-generator
state, so every step builds a new generator (fresh latencies, fresh
schedule seeded ``seed + step``) and shed/drop counts are reported as
*deltas* of the cluster's counters across the step window.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence

from repro.obs.logging import get_logger
from repro.scale.loadgen import LoadConfig, LoadGenerator

__all__ = [
    "run_ramp",
    "run_ramp_async",
    "saturation_summary",
    "format_saturation_markdown",
]

_log = get_logger("scale.ramp")

#: cluster counters whose per-step deltas matter for the curve.
_DELTA_COUNTERS = (
    "queries_shed",
    "frames_dropped",
    "queries_rule_routed",
    "queries_flooded",
)


async def run_ramp_async(
    addresses: Sequence[tuple[str, int]],
    vocabulary: Sequence[str],
    rps_steps: Sequence[float],
    *,
    step_duration: float = 10.0,
    seed: int = 0,
    load_config: LoadConfig | None = None,
    cluster_totals: Callable[[], dict[str, int]] | None = None,
    settle_seconds: float = 0.5,
) -> list[dict]:
    """Run one open-loop window per offered-RPS step; returns step dicts.

    ``cluster_totals``, when given (usually
    :meth:`LiveCluster.totals`), is sampled before and after each step
    so shed/drop/decision counts are attributed to the step that caused
    them.
    """
    base = load_config or LoadConfig(rps=1.0, duration=step_duration)
    steps: list[dict] = []
    for i, rps in enumerate(rps_steps):
        config = dataclasses.replace(
            base, rps=float(rps), duration=step_duration, seed=seed + i
        )
        before = cluster_totals() if cluster_totals is not None else {}
        generator = LoadGenerator(addresses, vocabulary, config)
        started = time.monotonic()
        result = await generator.run()
        elapsed = time.monotonic() - started
        after = cluster_totals() if cluster_totals is not None else {}
        step = result.to_dict()
        step["step"] = i
        step["wall_seconds"] = round(elapsed, 3)
        step["cluster"] = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in _DELTA_COUNTERS
            if after or before
        }
        steps.append(step)
        _log.info(
            "ramp step done",
            extra={
                "step": i,
                "offered_rps": rps,
                "achieved_rps": step["achieved_rps"],
                "p99": step["latency"]["p99_seconds"],
                "error_rate": step["error_rate"],
            },
        )
        if settle_seconds:
            # let in-flight floods and timers quiesce between steps so
            # a step's tail does not pollute its successor's latencies.
            import asyncio

            await asyncio.sleep(settle_seconds)
    return steps


def run_ramp(
    addresses: Sequence[tuple[str, int]],
    vocabulary: Sequence[str],
    rps_steps: Sequence[float],
    **kwargs,
) -> list[dict]:
    """Synchronous wrapper around :func:`run_ramp_async` for callers
    (benchmarks, CLI) that do not already run an event loop."""
    import asyncio

    return asyncio.run(
        run_ramp_async(addresses, vocabulary, rps_steps, **kwargs)
    )


def saturation_summary(
    steps: Sequence[dict],
    *,
    p99_bound: float = 1.0,
    max_error_rate: float = 0.05,
) -> dict:
    """Read the saturation curve: the max sustainable operating point.

    A step *sustains* its offered load when (1) p99 latency stayed
    within ``p99_bound`` seconds, (2) the combined timeout/error rate
    stayed within ``max_error_rate``, and (3) the generator's own
    schedule did not stretch beyond the open-loop tolerance (if the
    generator could not offer the load, the step proves nothing).  The
    max sustainable QPS is the highest *achieved* rate among sustaining
    steps.  It is also the per-core figure: ``bench_live_scale`` runs
    the servents and the generator on one event loop, one core.
    """
    sustained: list[dict] = []
    knee = None
    for step in steps:
        ok = (
            step["latency"]["p99_seconds"] <= p99_bound
            and step["error_rate"] <= max_error_rate
            and step["schedule_stretch"] <= 0.05
        )
        if ok:
            sustained.append(step)
        elif knee is None:
            knee = step["offered_rps"]
    max_qps = max((s["achieved_rps"] for s in sustained), default=0.0)
    return {
        "p99_bound_seconds": p99_bound,
        "max_error_rate": max_error_rate,
        "steps_total": len(steps),
        "steps_sustained": len(sustained),
        "sustained_rps": [s["offered_rps"] for s in sustained],
        "first_unsustained_rps": knee,
        "max_sustainable_qps": round(max_qps, 2),
        "qps_per_core": round(max_qps, 2),
    }


def format_saturation_markdown(
    steps: Sequence[dict], summary: dict, *, title: str = "Saturation curve"
) -> str:
    """Render the curve as a Markdown table (CI artifact / PR comment)."""
    lines = [
        f"# {title}",
        "",
        "- servents and load generator share one event loop (one core)",
        f"- gate: p99 ≤ {summary['p99_bound_seconds']:g}s, "
        f"error rate ≤ {summary['max_error_rate']:.0%}",
        f"- max sustainable: **{summary['max_sustainable_qps']:g} QPS** "
        f"({summary['qps_per_core']:g} QPS/core)",
        f"- first unsustained step: "
        f"{summary['first_unsustained_rps'] or '—'}",
        "",
        "| offered RPS | achieved | p50 (ms) | p95 (ms) | p99 (ms) "
        "| errors | shed | sustained |",
        "|---:|---:|---:|---:|---:|---:|---:|:---:|",
    ]
    sustained_rps = set(summary["sustained_rps"])
    for step in steps:
        latency = step["latency"]
        shed = step.get("cluster", {}).get("queries_shed", 0)
        lines.append(
            "| {offered:g} | {achieved:.1f} | {p50:.1f} | {p95:.1f} "
            "| {p99:.1f} | {errors:.1%} | {shed} | {ok} |".format(
                offered=step["offered_rps"],
                achieved=step["achieved_rps"],
                p50=latency["p50_seconds"] * 1e3,
                p95=latency["p95_seconds"] * 1e3,
                p99=latency["p99_seconds"] * 1e3,
                errors=step["error_rate"],
                shed=shed,
                ok="✓" if step["offered_rps"] in sustained_rps else "✗",
            )
        )
    lines.append("")
    return "\n".join(lines)
