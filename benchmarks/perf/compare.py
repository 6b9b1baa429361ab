"""``compare``: apply each end-to-end metric's bound to two result files.

A result file holds one or more runs per workload (``--runs N``).  For
every workload and end-to-end metric the candidate's median is compared
with the baseline's; the change is a *regression* when it is worse by
more than the metric's bound.  When the two sets' own run-to-run spread
(the wider interquartile range, as a share of the median) exceeds the
bound the verdict is *unresolved* rather than pass or fail — unless
every candidate run reads better than every baseline run.  A metric is
compared only on its home workloads: a result file holds nothing else.

The bounds are sized for the driver, which compares runs of *different*
seeds.  Runs of one seed must also agree exactly on every count the
seed determines (simulated messages, hits, operations), whatever the
bounds allow; :func:`count_mismatches` checks that.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.perf.spec import Spec

__all__ = [
    "compare_results",
    "count_mismatches",
    "format_rows",
    "load_runs",
    "metric_table",
    "spread",
]


def load_runs(path: str) -> list[dict]:
    """The untraced run records of a result file."""
    with open(path, encoding="utf-8") as fh:
        return [run for run in json.load(fh)["runs"] if not run["trace"]]


def metric_table(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over ``runs``."""
    table: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        metrics = table.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return table


def count_mismatches(baseline: list[dict], candidate: list[dict]) -> list[str]:
    """Workloads whose seed-determined counts differ between two runs of
    the same inputs (same seed, duration, scale and sizes)."""

    def exact(run: dict) -> tuple:
        return run["attempted"], run["failed"], run["counts"]

    def inputs(run: dict) -> tuple:
        return tuple(run["manifest"][k] for k in ("seed", "seconds", "scale", "sizes"))

    reference = {run["workload"]: run for run in reversed(baseline)}
    return sorted(
        {
            run["workload"]
            for run in candidate
            if (ref := reference.get(run["workload"])) is not None
            and inputs(ref) == inputs(run)
            and exact(ref) != exact(run)
        }
    )


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def compare_results(spec: Spec, baseline: dict, candidate: dict) -> list[dict]:
    rows = []
    for workload in spec.workloads:
        for metric in spec.end_to_end:
            a = baseline.get(workload, {}).get(metric.name)
            b = candidate.get(workload, {}).get(metric.name)
            if not a or not b:
                continue
            base, cand = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric.better == "lower" else -1.0
            worse_by = sign * (cand - base) / abs(base) if base else 0.0
            noise = max(spread(a), spread(b))
            if metric.better == "lower":
                all_better = max(b) < min(a)
            else:
                all_better = min(b) > max(a)
            if noise > metric.bound and not all_better:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "baseline": base,
                    "candidate": cand,
                    "worse_by": worse_by,
                    "bound": metric.bound,
                    "spread": noise,
                    "verdict": verdict,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<17s} {'metric':<19s} {'baseline':>13s} {'candidate':>13s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<17s} {r['metric']:<19s} {r['baseline']:>13.4f} "
            f"{r['candidate']:>13.4f} {r['worse_by']:>+9.3f} {r['bound']:>6.2f} "
            f"{r['spread']:>7.3f}  {r['verdict']}"
        )
    return "\n".join(lines)
