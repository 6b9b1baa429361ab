"""Incremental-deployment experiment (paper §III-B).

"A secondary benefit of this approach is that all nodes in the network do
not need to support this routing method in order for one node to use it,
although the benefits increase as the number of nodes using this routing
technique increases."

The sweep deploys association routing on a growing fraction of peers
(the rest run vanilla flooding — `dispatch_select` already routes each
per-node decision to that node's own policy; ``RunContext.adoption``
draws the adopter set) and measures network-wide
traffic.  The claim to verify: messages per query fall monotonically with
adoption, and partial adoption already helps.
"""

from __future__ import annotations

from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow

__all__ = ["run_adoption_sweep"]

#: shares of peers running association routing (the rest flood)
ADOPTION_FRACTIONS = (0.0, 0.25, 0.5, 1.0)


def run_adoption_sweep(ctx: RunContext) -> ExperimentResult:
    """Traffic vs fraction of peers running association routing."""
    stats = {}
    rows = []
    for fraction in ADOPTION_FRACTIONS:
        _, stats[fraction] = ctx.overlay(ctx.adoption(fraction))
        rows.append(
            ComparisonRow(
                f"msgs/query @ {int(fraction * 100)}% adoption",
                "falls with adoption",
                stats[fraction].messages_per_query,
            )
        )
    ordered = [stats[f].messages_per_query for f in ADOPTION_FRACTIONS]
    # Allow small non-monotonic wiggles from workload randomness.
    monotone = all(a >= b - 0.05 * ordered[0] for a, b in zip(ordered, ordered[1:]))
    rows.append(
        ComparisonRow(
            "traffic non-increasing in adoption (paper: benefits increase)",
            "monotone",
            1.0 if monotone else 0.0,
            band=(1.0, 1.0),
        )
    )
    rows.append(
        ComparisonRow(
            "full vs zero adoption message ratio",
            ">1.5x",
            ordered[0] / ordered[-1] if ordered[-1] else float("inf"),
            band=(1.5, 1000.0),
        )
    )
    rows.append(
        ComparisonRow(
            "half adoption already saves traffic",
            ">1.1x",
            ordered[0] / stats[0.5].messages_per_query,
            band=(1.1, 1000.0),
        )
    )
    rows.append(
        ComparisonRow(
            "hit rate at full adoption vs pure flooding",
            "~equal",
            stats[1.0].success_rate - stats[0.0].success_rate,
            band=(-0.08, 1.0),
        )
    )
    return ctx.result(
        rows,
        extras={f"{int(f*100)}%": str(s) for f, s in stats.items()},
    )
