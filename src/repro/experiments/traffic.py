"""Online traffic-reduction experiment (the paper's motivating claim).

§I/§VI argue that forwarding queries along association rules yields "a
dramatic reduction in the number of queries that are flooded" without
hurting result quality.  The paper does not plot this (its evaluation is
trace-driven), so this experiment supplies the missing end-to-end check:
the same query workload is pushed through each routing strategy on the
same overlay, comparing messages per query and hit rate.
"""

from __future__ import annotations

from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.metrics.traffic import TrafficStats

__all__ = ["STRATEGIES", "run_traffic_comparison"]

#: every compared strategy -> whether it learns, i.e. gets the warm-up
#: workload (memoryless ones skip it; keeps total runtime proportionate).
STRATEGIES = {
    "flooding": False,
    "expanding-ring": False,
    "k-random-walk": False,
    "shortcuts": True,
    "routing-indices": False,
    "association": True,
}


def run_traffic_comparison(ctx: RunContext) -> ExperimentResult:
    """Compare all strategies on identical overlays and workloads."""
    stats: dict[str, TrafficStats] = {}
    for name, learns in STRATEGIES.items():
        _, stats[name] = ctx.overlay(
            name, churn_rate=0.002, warmup=None if learns else 0
        )
    flood = stats["flooding"]
    assoc = stats["association"]
    rows = [
        ComparisonRow(
            f"messages/query [{name}]",
            "flooding worst",
            s.messages_per_query,
        )
        for name, s in stats.items()
    ]
    reduction = (
        flood.messages_per_query / assoc.messages_per_query
        if assoc.messages_per_query
        else float("inf")
    )
    rows.append(
        ComparisonRow(
            "flooding/association message ratio (paper: dramatic reduction)",
            ">1.5x",
            reduction,
            band=(1.5, 1000.0),
        )
    )
    rows.append(
        ComparisonRow(
            "association hit rate vs flooding (paper: quality preserved)",
            "~equal",
            assoc.success_rate - flood.success_rate,
            band=(-0.10, 1.0),
        )
    )
    return ctx.result(
        rows,
        extras={name: str(s) for name, s in stats.items()},
    )
