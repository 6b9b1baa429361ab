"""The repo's perf benchmark: six workloads over the three wall-clocks.

``PYTHONPATH=src python -m benchmarks.perf --seed S`` runs every workload
in a fresh child process and prints each end-to-end metric by name;
``--trace`` adds the per-layer run.  ``python3 benchmarks/perf/run.py
--workload W --seed S --seconds T --trace 0|1`` is the single-workload
form ``BENCHMARK.json`` declares.  See ``README.md`` next to this file.

Everything here measures ``repro.*`` from outside, by timing calls into
public functions; it imports nothing from the legacy ``benchmarks/``
files so those stay free to change.
"""
