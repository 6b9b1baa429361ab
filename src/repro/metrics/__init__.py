"""Evaluation metrics and reporting.

* :mod:`~repro.metrics.series` — time-series helpers for coverage/success
  curves (the y-axes of the paper's four figures);
* :mod:`~repro.metrics.traffic` — message accounting for the online
  overlay simulator (queries forwarded, duplicates, hits, hops);
* :mod:`~repro.metrics.report` — paper-vs-measured comparison rows used by
  the benchmark harness and EXPERIMENTS.md.
"""

from repro.metrics.ascii_chart import line_chart, sparkline
from repro.metrics.report import ComparisonRow, format_table
from repro.metrics.series import sawtooth_depth
from repro.metrics.traffic import QueryOutcome, TrafficStats

__all__ = [
    "ComparisonRow",
    "QueryOutcome",
    "TrafficStats",
    "format_table",
    "line_chart",
    "sawtooth_depth",
    "sparkline",
]
