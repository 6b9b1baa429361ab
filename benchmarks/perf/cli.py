"""Command line of the perf benchmark.

* ``... --workload W --seed S --seconds T --trace 0|1`` runs one workload
  in this process and ends with the one-line JSON result ``BENCHMARK.json``
  promises (the form the driver calls).
* without ``--workload`` every workload runs in a fresh child process
  (so each owns its memory high-water mark), every metric is printed by
  name with its unit, and one result JSON is written; ``--trace`` adds
  the per-layer run of each workload.
* ``compare BASELINE CANDIDATE`` applies the bounds to two result files.

Any failed output check makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.perf.compare import (
    compare_results,
    count_mismatches,
    format_rows,
    load_runs,
    metric_table,
)
from benchmarks.perf.spec import OUT_DIR, ROOT, load_spec

__all__ = ["main"]


def _print_metrics(record: dict) -> None:
    kind = "per-layer" if record["trace"] else "end-to-end"
    print(
        f"== {record['workload']} ({kind}): ops={record['attempted']} "
        f"failed={record['failed']} missed={record['missed']} "
        f"correct={record['correct']}"
    )
    for name, entry in record["metrics"].items():
        print(f"  {name:<40s} {entry['value']:>16.6g} {entry['unit']}")
    for failure in record["check_failures"]:
        print(f"  CHECK FAILED: {failure}")


def _driver_line(spec, record: dict) -> str:
    """The driver's line: every declared name, the record's own metrics
    where it has them and its fill elsewhere, in declared order."""
    entries = {**record["fill"], **record["metrics"]}
    line = {key: record[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {m.name: entries[m.name] for m in spec.metrics(record["trace"])}
    return json.dumps(line)


def _run_one(spec, args, started) -> int:
    from benchmarks.perf.harness import run_workload

    if args.workload not in spec.workloads:
        print(f"unknown workload {args.workload!r}; known: {list(spec.workloads)}")
        return 2
    record = run_workload(
        args.workload,
        spec=spec,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        started=started,
    )
    if args.record:
        Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    _print_metrics(record)
    print(_driver_line(spec, record))
    return 0 if record["correct"] else 1


def _run_all(spec, args) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs = []
    ok = True
    for trace in (0, 1) if args.trace else (0,):
        for name in spec.workloads:
            for repeat in range(args.runs if not trace else 1):
                record_path = OUT_DIR / f"record-{name}-{trace}-{repeat}.json"
                command = [
                    sys.executable,
                    str(Path(__file__).with_name("run.py")),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--scale", str(args.scale),
                    "--record", str(record_path),
                ]  # fmt: skip
                child = subprocess.run(command, stdout=subprocess.DEVNULL, cwd=ROOT)
                if not record_path.exists():
                    print(f"== {name}: child exited {child.returncode} without a result")
                    ok = False
                    continue
                record = json.loads(record_path.read_text(encoding="utf-8"))
                record_path.unlink()
                del record["fill"]
                _print_metrics(record)
                ok = ok and record["correct"]
                runs.append(record)
    out = Path(args.out) if args.out else OUT_DIR / f"result-{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "runs": runs}, indent=1), encoding="utf-8")
    print(f"result written: {out}")
    return 0 if ok else 1


def _compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    baseline, candidate = load_runs(args.baseline), load_runs(args.candidate)
    rows = compare_results(
        load_spec(), metric_table(baseline), metric_table(candidate)
    )
    print(format_rows(rows))
    verdicts = [row["verdict"] for row in rows]
    print(
        f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
        f"{verdicts.count('regression')} regression"
    )
    mismatches = count_mismatches(baseline, candidate)
    for workload in mismatches:
        print(f"COUNTS DIFFER: {workload}: same inputs, different counts")
    return 1 if "regression" in verdicts or mismatches else 0


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.run_seconds))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0,
        help="1 (or bare --trace): the per-layer traced run",
    )  # fmt: skip
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload's inputs (the self-tests use this)",
    )  # fmt: skip
    parser.add_argument("--record", help="also write the full run record here")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="result file (default out/result-SEED.json)")
    args = parser.parse_args(argv)
    return _run_one(spec, args, started) if args.workload else _run_all(spec, args)
