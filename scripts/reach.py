"""Which ``src/repro`` functions the entry points reach, read off a call profiler.

    python scripts/reach.py [--root DIR] [--tests] [--json PATH] [--markdown PATH]
    python scripts/reach.py --command "python -c '...'" --json PATH

Every command runs with a bootstrap ``sitecustomize`` module first on
``PYTHONPATH``.  When ``REPRO_REACH_DIR`` is set it installs a
``sys.setprofile`` / ``threading.setprofile`` hook that records
``(co_filename, co_firstlineno)`` of every ``call`` event under
``src/repro``, and dumps the record at exit.  Child processes inherit the
environment, so ``subprocess`` children and forked pool workers record
too.  A forked ``multiprocessing`` child leaves
through ``os._exit`` (no ``atexit``), and ``Process._bootstrap`` clears
the finalizer registry it inherited, so the bootstrap registers its dump
as a ``multiprocessing.util.Finalize`` from an after-fork hook that runs
*in the child*.  A child whose environment drops the bootstrap from
``PYTHONPATH`` is not profiled.

``ast`` maps each record to the top-level function or method holding it
(a nested function or lambda counts for its enclosing one; a decorated
function's ``co_firstlineno`` is its first decorator's line).  Module and
class bodies are not functions and are not counted.

The entry points are the ones the project's aims name: the experiment
registry (``repro all``, serial and pooled, and ``repro run``), the six
``benchmarks/perf`` workloads at ``--trace 0`` and ``--trace 1``, every
``examples/*.py``, and every non-pytest command CI runs.  ``--tests``
adds a profiled tier-1 run, which splits "reached by tests only" from
"reached by nothing".  A command that exits non-zero is reported, not
fatal: the profiler slows timing gates down, and what it reached still
counts.  Commands run in a scratch directory with a fresh trace cache, so
the trace generator is reached the way a cold checkout reaches it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BOOTSTRAP = '''\
import os
import sys

_DIR = os.environ.get("REPRO_REACH_DIR")
if _DIR:
    import atexit
    import threading

    _PREFIX = os.environ["REPRO_REACH_PREFIX"]
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_PREFIX):
                _seen.add((code.co_filename, code.co_firstlineno))

    def _dump():
        import json

        path = os.path.join(_DIR, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(sorted(_seen), fh)
        os.replace(path + ".tmp", path)

    def _after_fork_in_child():
        mp_util = sys.modules.get("multiprocessing.util")
        if mp_util is not None:
            mp_util.register_after_fork(
                _dump, lambda _: mp_util.Finalize(None, _dump, exitpriority=0)
            )

    atexit.register(_dump)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''

#: seconds before one hung command is given up on (the profiled tier-1
#: run, the longest, takes about 4 minutes on 2 cores).
COMMAND_TIMEOUT = 1800

WORKLOADS = (
    "offline_pipeline",
    "offline_eval",
    "sim_flat",
    "sim_hier",
    "live_flood",
    "live_rules",
)


def entry_points(root: Path) -> list[tuple[str, list[str]]]:
    """(group, argv) for every entry point; ``{out}`` is the scratch dir."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    commands = [
        ("experiments", repro + ["all"]),
        (
            "experiments",
            repro
            + ["all", "--workers", "2", "--json", "{out}/bench_all.json",
               "--markdown", "{out}/report.md"],
        ),
        ("experiments", repro + ["run", "fig1", "fig3", "--seeds", "2"]),
    ]
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            commands.append(
                (
                    "workloads",
                    [py, str(root / "benchmarks/perf/run.py"), "--workload",
                     workload, "--seconds", "2", "--trace", trace],
                )
            )
    for example in sorted((root / "examples").glob("*.py")):
        commands.append(("examples", [py, str(example)]))

    def soak(seed: int, *extra: str) -> list[str]:
        return repro + ["--seed", str(seed), "chaos-soak", "--nodes", "6",
                        "--time-scale", "1.5", *extra]

    pooled = repro + ["run", "fig1", "fig3", "--workers", "2", "--no-chart"]
    commands += [
        (
            "ci",
            repro
            + ["live-cluster", "--nodes", "6", "--topology", "star",
               "--queries", "60", "--terms", "12", "--top-k", "1",
               "--metrics-dump", "{out}/metrics.prom", "--show-trace"],
        ),
        # twice: the second run replays the trace file the first published
        ("ci", pooled),
        ("ci", pooled),
        ("ci", [py, "-m", "benchmarks.bench_mining", "--workers", "2", "--quick"]),
        ("ci", soak(3, "--plan", "crash-restart", "--report", "{out}/soak-cr.json")),
        ("ci", soak(9, "--plan", "partition-heal", "--report", "{out}/soak-ph.json")),
        (
            "ci",
            [py, "-m", "benchmarks.bench_live_scale", "--quick", "--report",
             "{out}/saturation-curve.md"],
        ),
        (
            "ci",
            [py, "-m", "benchmarks.bench_live_scale", "--quick",
             "--trace-sample", "4", "--trace-overhead", "0.25", "--report",
             "{out}/saturation-traced.md", "--trace-report",
             "{out}/trace-tree.md"],
        ),
        (
            "ci",
            repro + ["tracegen", "{out}/stream.rptrace", "--blocks", "20"],
        ),
        ("ci", repro + ["trace-inspect", "{out}/stream.rptrace"]),
        (
            "ci",
            repro + ["trace-eval", "{out}/stream.rptrace", "--strategy",
                     "streaming", "--workers", "2", "--check-serial"],
        ),
        ("ci", [py, "-m", "benchmarks.bench_trace_scale", "--quick"]),
        ("ci", [py, "-m", "benchmarks.bench_hier", "--quick"]),
        (
            "ci",
            soak(5, "--plan", "crash-restart", "--state-dir", "{out}/soak-state",
                 "--report", "{out}/soak-recovery.json"),
        ),
        ("ci", [py, "-m", "benchmarks.bench_persist"]),
        ("ci", repro + ["persist", "inspect", "{out}/soak-state/node-000"]),
    ]
    return commands


def write_bootstrap(directory: Path) -> None:
    (directory / "sitecustomize.py").write_text(BOOTSTRAP, encoding="utf-8")


def run_profiled(
    root: Path, commands: list[tuple[str, list[str]]], work: Path
) -> tuple[dict[str, set[tuple[str, int]]], list[dict]]:
    """Run every command under the bootstrap; the records per group and
    one summary row per command."""
    boot = work / "bootstrap"
    out = work / "out"
    boot.mkdir()
    out.mkdir()
    write_bootstrap(boot)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(boot), str(root / "src"), str(root)]),
        REPRO_REACH_PREFIX=str(root / "src" / "repro") + os.sep,
        REPRO_TRACE_CACHE_DIR=str(work / "traces"),
    )
    reached: dict[str, set[tuple[str, int]]] = defaultdict(set)
    summary = []
    for index, (group, argv) in enumerate(commands):
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        records = work / f"records-{index:03d}"
        records.mkdir()
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                argv,
                # the suite reads paths relative to the checkout
                cwd=root if group == "tests" else out,
                env=dict(env, REPRO_REACH_DIR=str(records)),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=COMMAND_TIMEOUT,
            )
            code, stderr = done.returncode, done.stderr
        except subprocess.TimeoutExpired:
            code, stderr = "timeout", ""
        seconds = time.perf_counter() - t0
        n_processes = 0
        for dump in records.glob("*.json"):
            n_processes += 1
            reached[group].update(
                (name, line) for name, line in json.loads(dump.read_text())
            )
        line = " ".join(shlex.quote(a) for a in argv).replace(str(out), "OUT")
        summary.append(
            {
                "group": group,
                "command": line,
                "exit": code,
                "processes": n_processes,
                "seconds": round(seconds, 1),
            }
        )
        verdict = "ok" if code == 0 else f"EXIT {code}"
        print(
            f"[{group}] {verdict} {seconds:6.1f}s {n_processes} process(es): {line}",
            file=sys.stderr,
        )
        if code != 0:
            print(stderr[-2000:], file=sys.stderr)
    return reached, summary


def functions_of(path: Path) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of every top-level function
    and method, a decorated one starting at its first decorator."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    units = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                units.append((prefix + node.name, start, node.end_lineno))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return units


def build_table(root: Path, reached: dict[str, set[tuple[str, int]]]) -> dict:
    """One row per function under ``src/repro``: its lines and the groups
    whose records fall inside it."""
    src = root / "src"
    by_file: dict[str, dict[int, set[str]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for group, records in reached.items():
        for name, line in records:
            by_file[name][line].add(group)
    functions = []
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        lines = by_file.get(str(path), {})
        modules[module] = len(path.read_text(encoding="utf-8").splitlines())
        for name, start, end in functions_of(path):
            groups = set()
            for line, seen_by in lines.items():
                if start <= line <= end:
                    groups |= seen_by
            functions.append(
                {
                    "module": module,
                    "name": name,
                    "line": start,
                    "lines": end - start + 1,
                    "reached_by": sorted(groups),
                }
            )
    return {"modules": modules, "functions": functions}


def status(row: dict, with_tests: bool) -> str:
    if any(group != "tests" for group in row["reached_by"]):
        return "entry"
    if "tests" in row["reached_by"]:
        return "tests"
    return "nothing" if with_tests else "unreached"


READS_AS = {
    "entry": "entry points",
    "tests": "tests only",
    "nothing": "nothing",
    "unreached": "not by entry points",
}


def render_markdown(table: dict, with_tests: bool) -> str:
    """Per-module line counts, then every function no entry point reaches."""
    per_module: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    unreached = []
    for row in table["functions"]:
        kind = status(row, with_tests)
        per_module[row["module"]][kind] += row["lines"]
        if kind != "entry":
            unreached.append((row, kind))
    last = "nothing" if with_tests else "unreached"
    head = ["module", "lines", "in functions", "entry points"]
    head += ["tests only", "nothing"] if with_tests else ["not by entry points"]
    out = [
        "| " + " | ".join(head + ["reads as"]) + " |",
        "|" + "---|" * (len(head) + 1),
    ]
    totals = defaultdict(int)
    for module, n_lines in table["modules"].items():
        counts = per_module[module]
        cells = [n_lines, sum(counts.values()), counts["entry"]]
        cells += [counts["tests"], counts[last]] if with_tests else [counts[last]]
        for key, value in zip(head[1:], cells):
            totals[key] += value
        # a module reads as the furthest any of its functions is reached
        kind = next((k for k in ("entry", "tests", last) if counts[k]), None)
        cells.append(READS_AS[kind] if kind else "-")
        out.append(f"| `{module}` | " + " | ".join(str(c) for c in cells) + " |")
    out.append(
        "| **total** | " + " | ".join(str(totals[k]) for k in head[1:]) + " | |"
    )
    out += ["", "Functions no entry point reaches:", ""]
    out.append("| function | lines | reached by |")
    out.append("|---|---|---|")
    for row, kind in unreached:
        name = f"{row['module']}:{row['name']}"
        out.append(f"| `{name}` | {row['lines']} | {READS_AS[kind]} |")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to profile (default: the one holding this script)",
    )
    parser.add_argument(
        "--tests", action="store_true", help="also profile the tier-1 test suite"
    )
    parser.add_argument(
        "--command",
        action="append",
        default=[],
        metavar="CMD",
        help="profile this shell-quoted command instead of the entry points "
        "(repeatable; group 'command')",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the table as JSON"
    )
    parser.add_argument(
        "--markdown", type=Path, default=None, help="write the tables as markdown"
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.command:
        commands = [("command", shlex.split(c)) for c in args.command]
    else:
        commands = entry_points(root)
    if args.tests:
        commands.append(
            ("tests", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"])
        )
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reached, summary = run_profiled(root, commands, Path(tmp))
    table = build_table(root, reached)
    table["commands"] = summary
    markdown = render_markdown(table, args.tests)
    if args.json is not None:
        args.json.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    if args.markdown is not None:
        args.markdown.write_text(markdown, encoding="utf-8")
    if args.json is None and args.markdown is None:
        print(markdown)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
