"""Runners for every figure and in-text result of the paper's evaluation.

Each ``run_*`` function regenerates one artifact (see DESIGN.md §5) from
a :class:`~repro.experiments.context.RunContext` and returns an
:class:`~repro.experiments.results.ExperimentResult` whose rows compare
measured values against the paper's reported ones, with acceptance bands
encoding the reproduction contract (shape and rough magnitude, not
bit-exact numbers — our substrate is a synthetic trace).
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.experiments.context import BLOCK_SIZE, RunContext
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow
from repro.metrics.series import sawtooth_depth

__all__ = [
    "BLOCK_SIZE",
    "run_static",
    "run_fig1_sliding",
    "run_fig2_block_sizes",
    "run_fig3_lazy",
    "run_fig4_adaptive",
    "run_adaptive_history",
    "run_streaming",
    "run_prune_ablation",
    "run_confidence_ablation",
]

#: Fig. 2's block sizes (pairs per block)
FIG2_BLOCK_SIZES = (5_000, 10_000, 20_000, 50_000)
#: Fig. 3: Lazy Sliding Window regenerates every 10 blocks
LAZINESS = 10
#: Fig. 4: the Adaptive threshold history N
HISTORY = 10
#: §III-B.1 support-prune thresholds swept by ``prune-ablation``
PRUNE_THRESHOLDS = (1, 5, 10, 25, 50)
#: §VI minimum confidences swept by ``confidence-ablation``
CONFIDENCES = (0.0, 0.1, 0.25, 0.5)


# ---------------------------------------------------------------------------
# §V-A  Static Ruleset
# ---------------------------------------------------------------------------
def run_static(ctx: RunContext) -> ExperimentResult:
    """§V-A: Static Ruleset degrades and never recovers."""
    run = ctx.trace(StaticRuleset(), ctx.scale.n_blocks_static * BLOCK_SIZE)
    succ = run.success_series
    cov = run.coverage_series
    tail_success = float(np.mean(succ[16:])) if len(succ) > 16 else float("nan")
    plateau = float(np.mean(cov[2:12]))
    rows = [
        ComparisonRow(
            "success from trial 16 on (paper: ~0, never rises)",
            0.0,
            tail_success,
            band=(0.0, 0.08),
        ),
        ComparisonRow(
            "coverage plateau, trials 3-12 (paper: ~0.4)",
            0.40,
            plateau,
            band=(0.25, 0.55),
        ),
        ComparisonRow(
            "long-run average coverage (paper: 0.18 over 365 trials)",
            0.18,
            run.average_coverage,
            band=(0.10, 0.40),
        ),
        ComparisonRow(
            "late average success (paper: < 0.02 over 365 trials)",
            "<0.02",
            tail_success,
            band=(0.0, 0.08),
        ),
    ]
    return ctx.result(
        rows,
        series={"coverage": cov, "success": succ},
        extras={"n_trials": run.n_trials},
    )


# ---------------------------------------------------------------------------
# Fig. 1  Sliding Window
# ---------------------------------------------------------------------------
def run_fig1_sliding(ctx: RunContext) -> ExperimentResult:
    """Fig. 1: coverage and success of Sliding Window over time."""
    run = ctx.trace(SlidingWindow())
    rows = [
        ComparisonRow(
            "average coverage (paper: > 0.80)",
            0.80,
            run.average_coverage,
            band=(0.72, 0.88),
        ),
        ComparisonRow(
            "average success (paper: ~0.79)",
            0.79,
            run.average_success,
            band=(0.70, 0.88),
        ),
    ]
    return ctx.result(
        rows,
        series={"coverage": run.coverage_series, "success": run.success_series},
    )


# ---------------------------------------------------------------------------
# Fig. 2  Sliding Window, block-size sweep
# ---------------------------------------------------------------------------
def run_fig2_block_sizes(ctx: RunContext) -> ExperimentResult:
    """Fig. 2: Sliding Window coverage is similar across block sizes."""
    n_pairs = ctx.scale.n_pairs_blocksweep
    rows = []
    series: dict[str, list[float]] = {}
    coverages = {}
    for block_size in FIG2_BLOCK_SIZES:
        if n_pairs // block_size < 2:
            continue
        run = ctx.trace(SlidingWindow(), n_pairs, block_size=block_size)
        coverages[block_size] = run.average_coverage
        series[f"coverage_{block_size}"] = run.coverage_series
        rows.append(
            ComparisonRow(
                f"average coverage, block size {block_size}",
                "~0.8 (similar across sizes)",
                run.average_coverage,
                band=(0.60, 0.92),
            )
        )
    spread = max(coverages.values()) - min(coverages.values())
    rows.append(
        ComparisonRow(
            "coverage spread across block sizes (paper: very similar)",
            "small",
            spread,
            band=(0.0, 0.15),
        )
    )
    return ctx.result(rows, series=series, extras={"coverages": coverages})


# ---------------------------------------------------------------------------
# Fig. 3  Lazy Sliding Window
# ---------------------------------------------------------------------------
def run_fig3_lazy(ctx: RunContext) -> ExperimentResult:
    """Fig. 3: Lazy Sliding Window sawtooth; averages ≈ 0.59."""
    run = ctx.trace(LazySlidingWindow(laziness=LAZINESS))
    depth = sawtooth_depth(run.success_series, LAZINESS)
    rows = [
        ComparisonRow(
            "average coverage (paper: 0.59)",
            0.59,
            run.average_coverage,
            band=(0.45, 0.72),
        ),
        ComparisonRow(
            "average success (paper: 0.59)",
            0.59,
            run.average_success,
            band=(0.42, 0.72),
        ),
        ComparisonRow(
            "success sawtooth drop within a lazy span (paper: tapering decay)",
            ">0",
            depth,
            band=(0.05, 1.0),
        ),
    ]
    return ctx.result(
        rows,
        series={"coverage": run.coverage_series, "success": run.success_series},
        extras={"n_generations": run.n_generations},
    )


# ---------------------------------------------------------------------------
# Fig. 4  Adaptive Sliding Window
# ---------------------------------------------------------------------------
def run_fig4_adaptive(ctx: RunContext) -> ExperimentResult:
    """Fig. 4: Adaptive Sliding Window with rolling thresholds, N=10."""
    run = ctx.trace(AdaptiveSlidingWindow(history=HISTORY, initial_threshold=0.7))
    rows = [
        ComparisonRow(
            "average coverage (paper: 0.78)",
            0.78,
            run.average_coverage,
            band=(0.70, 0.86),
        ),
        ComparisonRow(
            "average success (paper: ~0.76-0.79)",
            0.77,
            run.average_success,
            band=(0.66, 0.86),
        ),
        ComparisonRow(
            "blocks per rule-set generation (paper: ~1.7)",
            1.7,
            run.blocks_per_generation,
            band=(1.2, 2.6),
        ),
    ]
    return ctx.result(
        rows,
        series={"coverage": run.coverage_series, "success": run.success_series},
        extras={"n_generations": run.n_generations},
    )


# ---------------------------------------------------------------------------
# §V-D  Adaptive threshold-history comparison (N=10 vs N=50)
# ---------------------------------------------------------------------------
def run_adaptive_history(ctx: RunContext) -> ExperimentResult:
    """§V-D: larger threshold history regenerates less often, same quality."""
    run10 = ctx.trace(AdaptiveSlidingWindow(history=10, initial_threshold=0.7))
    run50 = ctx.trace(AdaptiveSlidingWindow(history=50, initial_threshold=0.7))
    rows = [
        ComparisonRow(
            "blocks/generation, N=10 (paper: 1.7)",
            1.7,
            run10.blocks_per_generation,
            band=(1.2, 2.6),
        ),
        ComparisonRow(
            "blocks/generation, N=50 (paper: 1.9)",
            1.9,
            run50.blocks_per_generation,
            band=(1.2, 3.2),
        ),
        ComparisonRow(
            "N=50 average coverage (paper: 0.79)",
            0.79,
            run50.average_coverage,
            band=(0.70, 0.88),
        ),
        ComparisonRow(
            "N=50 average success (paper: 0.76)",
            0.76,
            run50.average_success,
            band=(0.66, 0.86),
        ),
        ComparisonRow(
            "N=50 regenerates no more often than N=10 (paper: half of Sliding)",
            ">=",
            run50.blocks_per_generation - run10.blocks_per_generation,
            band=(-0.4, 10.0),
        ),
    ]
    return ctx.result(
        rows,
        series={
            "coverage_n10": run10.coverage_series,
            "coverage_n50": run50.coverage_series,
            "success_n10": run10.success_series,
            "success_n50": run50.success_series,
        },
        extras={
            "generations_n10": run10.n_generations,
            "generations_n50": run50.n_generations,
        },
    )


# ---------------------------------------------------------------------------
# §VI  Streaming rule maintenance (future work; "above 90%")
# ---------------------------------------------------------------------------
def run_streaming(ctx: RunContext) -> ExperimentResult:
    """§VI: immediate rule updates beat every batch strategy.

    The paper reports coverage/success "consistently above 90%" on its
    trace.  On the synthetic trace, achievable coverage is capped by the
    ephemeral-source volume (~13% of queries come from one-shot hosts
    that no rule can ever cover), so the quantitative band here is the
    cap-adjusted one; the qualitative claim — streaming beats Sliding
    Window, which beats everything else — is asserted exactly.
    """
    streaming = ctx.trace(StreamingRules(min_support_count=5))
    sliding = ctx.trace(SlidingWindow())
    rows = [
        ComparisonRow(
            "streaming average coverage (paper: > 0.90; ceiling here ~0.87)",
            0.90,
            streaming.average_coverage,
            band=(0.80, 1.0),
        ),
        ComparisonRow(
            "streaming average success (paper: > 0.90)",
            0.90,
            streaming.average_success,
            band=(0.80, 1.0),
        ),
        ComparisonRow(
            "streaming coverage - sliding coverage (paper: streaming best)",
            ">0",
            streaming.average_coverage - sliding.average_coverage,
            band=(0.0, 1.0),
        ),
        ComparisonRow(
            "streaming success - sliding success (paper: streaming best)",
            ">0",
            streaming.average_success - sliding.average_success,
            band=(0.0, 1.0),
        ),
    ]
    return ctx.result(
        rows,
        series={
            "coverage": streaming.coverage_series,
            "success": streaming.success_series,
        },
    )


# ---------------------------------------------------------------------------
# §III-B.1  Support-prune threshold ablation
# ---------------------------------------------------------------------------
def run_prune_ablation(ctx: RunContext) -> ExperimentResult:
    """§III-B.1/§V-B: rule quality across support-prune thresholds.

    The paper states Sliding Window "achieves very similar levels of
    coverage when either the block size or the query-reply pair threshold
    is altered" and that "only a small number of query-reply pairs are
    needed" — i.e. coverage degrades gracefully as the threshold rises.
    """
    rows = []
    series = {}
    coverages = {}
    for threshold in PRUNE_THRESHOLDS:
        run = ctx.trace(SlidingWindow(min_support_count=threshold))
        coverages[threshold] = run.average_coverage
        series[f"coverage_t{threshold}"] = run.coverage_series
        rows.append(
            ComparisonRow(
                f"average coverage, prune threshold {threshold}",
                "similar for moderate thresholds",
                run.average_coverage,
                band=(0.45, 0.95),
            )
        )
    monotone = all(
        coverages[a] >= coverages[b] - 0.02
        for a, b in zip(PRUNE_THRESHOLDS, PRUNE_THRESHOLDS[1:])
    )
    rows.append(
        ComparisonRow(
            "coverage non-increasing in threshold (support pruning semantics)",
            "monotone",
            1.0 if monotone else 0.0,
            band=(1.0, 1.0),
        )
    )
    rows.append(
        ComparisonRow(
            "coverage spread, thresholds 5 vs 10 (paper: very similar)",
            "small",
            abs(coverages[5] - coverages[10]),
            band=(0.0, 0.10),
        )
    )
    rows.append(
        ComparisonRow(
            "coverage spread, thresholds 5 vs 25 (beyond paper's sweep)",
            "-",
            abs(coverages[5] - coverages[25]),
        )
    )
    return ctx.result(rows, series=series, extras={"coverages": coverages})


# ---------------------------------------------------------------------------
# §VI  Confidence-based pruning extension
# ---------------------------------------------------------------------------
def run_confidence_ablation(ctx: RunContext) -> ExperimentResult:
    """§VI: confidence pruning shrinks rule sets while retaining quality."""
    rows = []
    sizes = {}
    successes = {}
    coverages = {}
    for conf in CONFIDENCES:
        run = ctx.trace(SlidingWindow(min_confidence=conf))
        mean_size = float(np.mean([t.ruleset_size for t in run.trials]))
        sizes[conf] = mean_size
        successes[conf] = run.average_success
        coverages[conf] = run.average_coverage
        rows.append(
            ComparisonRow(
                f"mean rule-set size @ min_confidence={conf}",
                "shrinks with confidence",
                mean_size,
            )
        )
    shrank = sizes[CONFIDENCES[-1]] < sizes[0.0]
    rows.append(
        ComparisonRow(
            "rule sets shrink under confidence pruning",
            "yes",
            1.0 if shrank else 0.0,
            band=(1.0, 1.0),
        )
    )
    retained = successes[0.1] >= successes[0.0] - 0.05
    rows.append(
        ComparisonRow(
            "success retained at min_confidence=0.1 (within 0.05)",
            "yes",
            1.0 if retained else 0.0,
            band=(1.0, 1.0),
        )
    )
    return ctx.result(
        rows,
        extras={"sizes": sizes, "successes": successes, "coverages": coverages},
    )
