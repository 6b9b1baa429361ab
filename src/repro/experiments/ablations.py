"""Ablations over the design choices DESIGN.md calls out.

* ``topk-ablation`` — §III-B.1: "future queries can either be sent to a
  random subset of neighbors ... or sent to the k neighbors with the
  highest support."  Sweeps k for the Sliding Window engine, quantifying
  the traffic/quality trade-off behind the choice of k.
* ``churn-sensitivity`` — the paper stresses unstructured P2P churn
  throughout; this ablation measures how online association routing
  degrades as peer turnover accelerates (rule tables reset on churn).
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import ruleset_test_random_subset
from repro.core.generation import generate_ruleset
from repro.core.strategies import SlidingWindow
from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.utils.rng import as_generator

__all__ = ["run_topk_ablation", "run_churn_sensitivity"]

#: consequents forwarded, ``None`` = all matching rules
TOP_KS = (1, 2, 3, None)
#: per-query probability that one peer churns
CHURN_RATES = (0.0, 0.01, 0.05, 0.15)


def run_topk_ablation(ctx: RunContext) -> ExperimentResult:
    """Success/coverage of Sliding Window as top-k consequents vary.

    Also evaluates the paper's *other* §III-B.1 option — forwarding to a
    uniformly random subset of the matching rules' consequents — which
    must underperform support-ordered top-k at the same k.
    """
    successes = {}
    coverages = {}
    rows = []
    for k in TOP_KS:
        run = ctx.trace(SlidingWindow(top_k=k))
        label = "all" if k is None else str(k)
        successes[label] = run.average_success
        coverages[label] = run.average_coverage
        rows.append(
            ComparisonRow(
                f"sliding success @ top_k={label}",
                "rises with k",
                run.average_success,
            )
        )
    # Random-subset variant at k=2 (sliding schedule, stochastic choice).
    rng = as_generator(ctx.seed + 1)
    blocks = ctx.blocks()
    random_successes = []
    for b in range(1, len(blocks)):
        ruleset = generate_ruleset(blocks[b - 1])
        result = ruleset_test_random_subset(ruleset, blocks[b], k=2, rng=rng)
        random_successes.append(result.success)
    successes["random-2"] = float(np.mean(random_successes))
    rows.append(
        ComparisonRow(
            "sliding success @ random subset of 2 (§III-B.1 alternative)",
            "below top-2",
            successes["random-2"],
        )
    )
    rows.append(
        ComparisonRow(
            "top-2 beats random-2 (support ordering matters)",
            ">0",
            successes["2"] - successes["random-2"],
            band=(0.0, 1.0),
        )
    )
    ordered = [successes["all" if k is None else str(k)] for k in TOP_KS]
    monotone = all(a <= b + 0.02 for a, b in zip(ordered, ordered[1:]))
    rows.append(
        ComparisonRow(
            "success non-decreasing in k (more consequents, more matches)",
            "monotone",
            1.0 if monotone else 0.0,
            band=(1.0, 1.0),
        )
    )
    # k=2 should already capture most of the unlimited-rules success: a
    # source's replies concentrate on its top interests' paths (the
    # interest-based-locality premise).
    rows.append(
        ComparisonRow(
            "success share captured at k=2 vs unlimited",
            "most",
            successes["2"] / successes["all"] if successes["all"] else 0.0,
            band=(0.75, 1.01),
        )
    )
    rows.append(
        ComparisonRow(
            "coverage unaffected by k (antecedent-side measure)",
            "0",
            max(coverages.values()) - min(coverages.values()),
            band=(0.0, 0.01),
        )
    )
    return ctx.result(rows, extras={"successes": successes, "coverages": coverages})


def run_churn_sensitivity(ctx: RunContext) -> ExperimentResult:
    """Online association routing under accelerating peer turnover.

    Each issued query churns one peer with probability ``churn_rate``
    (fresh identity, learned tables reset).  The finding this ablation
    pins down: *online* rule learning is churn-robust — because tables
    update from every reply (the mechanism §VI's streaming proposal
    formalizes), fallback share and hit rate stay essentially flat, and
    the traffic advantage over flooding survives heavy turnover.  Churn
    even trims the double-pay pathology (stale covered-but-wrong rules
    cost a futile narrow attempt *plus* the fallback flood).
    """
    stats = {}
    fallback_share = {}
    rows = []
    for rate in CHURN_RATES:
        overlay, stats[rate] = ctx.overlay("association", churn_rate=rate)
        resolved = sum(
            overlay.node(n).policy.rule_resolved_count
            for n in range(overlay.n_nodes)
        )
        fallbacks = sum(
            overlay.node(n).policy.fallback_count for n in range(overlay.n_nodes)
        )
        total = resolved + fallbacks
        fallback_share[rate] = fallbacks / total if total else 0.0
        rows.append(
            ComparisonRow(
                f"flood-fallback share @ churn={rate}",
                "stays flat (online learning)",
                fallback_share[rate],
            )
        )
    lo, hi = CHURN_RATES[0], CHURN_RATES[-1]
    # Flooding baseline under the same heavy churn, for the savings ratio.
    _, flood = ctx.overlay("flooding", churn_rate=hi, warmup=0)
    rows.append(
        ComparisonRow(
            "fallback-share drift across churn rates (churn-robust learning)",
            "small",
            abs(fallback_share[hi] - fallback_share[lo]),
            band=(0.0, 0.10),
        )
    )
    rows.append(
        ComparisonRow(
            "hit rate retained under heavy churn (flood fallback is churn-proof)",
            "~equal",
            stats[hi].success_rate - stats[lo].success_rate,
            band=(-0.12, 1.0),
        )
    )
    rows.append(
        ComparisonRow(
            "traffic advantage over flooding survives heavy churn",
            ">1.3x",
            flood.messages_per_query / stats[hi].messages_per_query,
            band=(1.3, 1000.0),
        )
    )
    return ctx.result(
        rows,
        extras={
            **{str(rate): str(s) for rate, s in stats.items()},
            "flooding@heavy-churn": str(flood),
        },
    )
