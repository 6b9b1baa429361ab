"""Benchmark-harness plumbing.

``bench_experiments.py`` regenerates every paper artifact through
:mod:`repro.experiments` inside a pytest-benchmark measurement, asserts
its acceptance bands, and registers its paper-vs-measured table here; the
tables are printed in the terminal summary (so they land in
``bench_output.txt`` even under output capture).
"""

from __future__ import annotations

import os

_REPORTS: list[str] = []


def register_report(text: str) -> None:
    _REPORTS.append(text)


def _bench_record(bench) -> dict:
    """One benchmark's timings as a JSON-ready row."""
    stats = bench.stats
    record = {
        "test": bench.name,
        "mean_seconds": stats.mean,
        "min_seconds": stats.min,
        "stddev_seconds": stats.stddev,
        "rounds": stats.rounds,
        "extra_info": {k: str(v) for k, v in bench.extra_info.items()},
    }
    # Benches that declare their input size get a throughput figure.
    pairs = bench.extra_info.get("pairs")
    if pairs is not None and stats.mean > 0:
        record["pairs_per_second"] = float(pairs) / stats.mean
    return record


def _emit_module_jsons(config) -> list[str]:
    """Group the session's benchmarks by module and write one
    BENCH_<module>.json apiece (bench_mining.py -> BENCH_mining.json)."""
    session = getattr(config, "_benchmarksession", None)
    if session is None or not session.benchmarks:
        return []
    from benchmarks._emit import emit_bench_json

    by_module: dict[str, list] = {}
    for bench in session.benchmarks:
        module = os.path.basename(bench.fullname.split("::")[0])
        stem = module.removesuffix(".py").removeprefix("bench_")
        by_module.setdefault(stem, []).append(bench)
    paths = []
    for stem, benches in sorted(by_module.items()):
        paths.append(
            emit_bench_json(
                stem, {"benchmarks": [_bench_record(b) for b in benches]}
            )
        )
    return paths


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for path in _emit_module_jsons(config):
        terminalreporter.write_line(f"bench json written: {path}")
    if not _REPORTS:
        return
    terminalreporter.section("paper-vs-measured reproduction tables")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
