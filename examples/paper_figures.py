#!/usr/bin/env python
"""Render the paper's four figures as terminal charts.

Regenerates Figures 1-4 from the calibrated synthetic trace and draws
each as an ASCII time-series chart (coverage `*`, success `o`) with the
paper's reported averages printed alongside — the closest a terminal gets
to the original plots.

Run:  python examples/paper_figures.py
"""

import time

from repro.experiments.registry import run_experiment
from repro.metrics.ascii_chart import line_chart

FIGURES = [
    (
        "fig1",
        "Fig. 1 — Coverage and Success of Sliding Window over time",
        "paper averages: coverage > 0.80, success ~0.79",
    ),
    (
        "fig3",
        "Fig. 3 — Lazy Sliding Window over time (rule set reused for 10 blocks)",
        "paper averages: coverage = success = 0.59 (sawtooth decay)",
    ),
    (
        "fig4",
        "Fig. 4 — Adaptive Sliding Window over time (threshold history N=10)",
        "paper: coverage 0.78, success ~0.77, regen every ~1.7 blocks",
    ),
    (
        "static",
        "§V-A — Static Ruleset over time (the figure the text describes)",
        "paper: success ~0 by trial 16; coverage plateaus ~0.4 then decays",
    ),
]


def main() -> None:
    for experiment_id, title, paper_note in FIGURES:
        t0 = time.time()
        result = run_experiment(experiment_id)
        series = {
            "coverage": result.series["coverage"],
            "success": result.series["success"],
        }
        print(title)
        print(paper_note)
        print()
        print(line_chart(series, height=12))
        avg_cov = sum(series["coverage"]) / len(series["coverage"])
        avg_succ = sum(series["success"]) / len(series["success"])
        print(
            f"\nmeasured averages: coverage={avg_cov:.3f} success={avg_succ:.3f} "
            f"({time.time() - t0:.1f}s)\n"
        )
        print("=" * 78)


if __name__ == "__main__":
    main()
