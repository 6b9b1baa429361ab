"""Evaluation metrics and reporting.

* :mod:`~repro.metrics.series` — time-series helpers for coverage/success
  curves (the y-axes of the paper's four figures);
* :mod:`~repro.metrics.traffic` — message accounting for the online
  overlay simulator (queries forwarded, duplicates, hits, hops);
* :mod:`~repro.metrics.report` — paper-vs-measured comparison rows used by
  the benchmark harness and EXPERIMENTS.md.
"""
