"""Experiment registry: one table entry per paper figure/result.

Each experiment is a function of a seeded, scaled
:class:`~repro.experiments.context.RunContext` returning both the raw
series and :class:`~repro.metrics.report.ComparisonRow` entries that line
the measured values up against the paper's reported ones;
:func:`run_experiments` is the one way through the table.  The benchmark
harness (``benchmarks/``), EXPERIMENTS.md and
``reports/reproduction_report.md`` are generated from these.

Scale: by default experiments run at a laptop-friendly scale (fewer
blocks / smaller overlays than the paper's 365-trial full runs).  Pass
``scale=FULL_SCALE`` (``--full`` on the command line) or set the
environment variable ``REPRO_FULL_SCALE=1`` to run the paper's full
3.65M-pair trace lengths.
"""
