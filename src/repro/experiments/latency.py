"""Latency-under-load experiment (the paper's §VI timing claim).

"Because of this, results to queries may be received more quickly, and
the networks can support more simultaneous queries, allowing the number
of users who can efficiently and successfully use the network to grow."

The discrete-event network (uplink queueing + link latency) makes this
measurable: flooding wins on latency while the network is idle (it
searches every path in parallel), but its per-query message bill
saturates peer uplinks at a much lower query rate — past that point its
latency and backlogs explode while association routing, paying ~½ the
messages, keeps serving.  The experiment runs both policies at a light
and a heavy offered load and asserts the crossover.
"""

from __future__ import annotations

from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.network.discrete_event import DiscreteEventConfig, DiscreteEventNetwork

__all__ = ["run_latency_under_load"]

#: mean seconds between queries: an idle network, then saturated uplinks
LIGHT_INTERARRIVAL = 0.2
HEAVY_INTERARRIVAL = 0.01


def _run_one(ctx: RunContext, policy: str, interarrival: float):
    # The learning policy builds its tables before anything is timed.
    overlay, _ = ctx.overlay(
        policy,
        n_nodes=min(ctx.scale.overlay_nodes, 300),
        n_queries=0,
        warmup=800 if policy == "association" else 0,
    )
    net = DiscreteEventNetwork(
        overlay,
        DiscreteEventConfig(query_interarrival=interarrival, fallback_timeout=1.5),
    )
    return net.run(max(200, ctx.scale.overlay_queries // 2), seed=ctx.seed + 1)


def run_latency_under_load(ctx: RunContext) -> ExperimentResult:
    """Flooding vs association routing at light and saturating load."""
    flood_light = _run_one(ctx, "flooding", LIGHT_INTERARRIVAL)
    assoc_light = _run_one(ctx, "association", LIGHT_INTERARRIVAL)
    flood_heavy = _run_one(ctx, "flooding", HEAVY_INTERARRIVAL)
    assoc_heavy = _run_one(ctx, "association", HEAVY_INTERARRIVAL)

    rows = [
        ComparisonRow(
            "light load: flooding mean latency (parallel search wins when idle)",
            "-",
            flood_light.mean_latency,
        ),
        ComparisonRow(
            "light load: association mean latency (narrow paths + fallback wait)",
            "-",
            assoc_light.mean_latency,
        ),
        ComparisonRow(
            "heavy load: flooding mean latency (uplinks saturate)",
            "-",
            flood_heavy.mean_latency,
        ),
        ComparisonRow(
            "heavy load: association mean latency",
            "-",
            assoc_heavy.mean_latency,
        ),
        ComparisonRow(
            "heavy load: association beats flooding on mean latency "
            "(paper: 'results ... received more quickly')",
            ">0",
            flood_heavy.mean_latency - assoc_heavy.mean_latency,
            band=(0.0, 1e9),
        ),
        ComparisonRow(
            "heavy load: flooding tail latency / association tail latency "
            "(paper: 'support more simultaneous queries')",
            ">1.5",
            flood_heavy.p_high_latency / assoc_heavy.p_high_latency,
            band=(1.5, 1e9),
        ),
        ComparisonRow(
            "heavy load: uplink backlog ratio (flooding / association)",
            ">1.5",
            flood_heavy.peak_queue_length / max(assoc_heavy.peak_queue_length, 1),
            band=(1.5, 1e9),
        ),
        ComparisonRow(
            "answer rates comparable (flood fallback active)",
            "~equal",
            assoc_heavy.answer_rate - flood_heavy.answer_rate,
            band=(-0.08, 1.0),
        ),
    ]
    return ctx.result(
        rows,
        extras={
            "flooding_light": str(flood_light),
            "association_light": str(assoc_light),
            "flooding_heavy": str(flood_heavy),
            "association_heavy": str(assoc_heavy),
        },
    )
