"""``scripts/reach.py`` follows the work into pool workers.

A forked ``multiprocessing`` worker leaves through ``os._exit`` after
``Process._bootstrap`` has cleared the finalizers it inherited, so a
profile dump registered in the parent never runs there.  Pool-only code
such as ``_shard_task`` would then read "reached by nothing"; the tool
registers the dump from inside each child, and this test holds it to that.
The entry points themselves are held to ci.yml: every CLI or benchmark
command CI runs is one of them.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PARTITIONED = """\
import sys

import numpy as np

from repro.core.strategies import SlidingWindow
from repro.parallel.partition import evaluate_store_partitioned
from repro.trace.store import TraceStoreWriter

path = sys.argv[1]
rng = np.random.default_rng(0)
with TraceStoreWriter(path, block_size=200) as writer:
    writer.append(rng.integers(0, 20, 2000), rng.integers(0, 20, 2000))
assert evaluate_store_partitioned(path, SlidingWindow(), workers=2).n_trials == 9
"""


def test_pool_workers_are_profiled(tmp_path):
    script = tmp_path / "partitioned.py"
    script.write_text(PARTITIONED)
    table = tmp_path / "reach.json"
    command = f"{sys.executable} {script} {tmp_path / 'trace.rptrace'}"
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reach.py"), "--command", command,
         "--json", str(table)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(table.read_text())
    (row,) = doc["commands"]
    assert row["exit"] == 0
    assert row["processes"] >= 3  # the parent and its two pool workers
    reached = {
        (f["module"], f["name"]): f["reached_by"] for f in doc["functions"]
    }
    assert reached["repro.parallel.partition", "evaluate_store_partitioned"] == [
        "command"
    ]
    assert reached["repro.parallel.partition", "_shard_task"] == ["command"]
    assert reached["repro.parallel.partition", "run_shard"] == ["command"]
    assert reached["repro.cli", "main"] == []


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach_script", REPO / "scripts" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(words: list[str]) -> str:
    """``repro <command>`` or ``benchmarks.<module>`` for the words after
    ``python -m``; a ``repro`` command follows its global ``--seed N``."""
    module, *rest = words
    if module != "repro":
        return module
    words = iter(rest)
    for word in words:
        if word == "--seed":
            next(words)
        elif not word.startswith("-"):
            return f"repro {word}"
    raise AssertionError(f"no repro command in {rest}")


def test_entry_points_cover_every_ci_command():
    """Every ``python -m repro <command>`` and ``python -m benchmarks.<module>``
    CI runs is one of the tool's entry points, so what CI reaches never
    reads as "tests only"."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    in_ci = {
        _entry(match.group(1).split())
        for match in re.finditer(r"python -m ((?:repro|benchmarks\.).*)", ci)
    }
    assert "repro chaos-soak" in in_ci and "benchmarks.bench_hier" in in_ci
    profiled = set()
    for _group, argv in _load_reach().entry_points(REPO):
        if "-m" in argv:
            profiled.add(_entry(argv[argv.index("-m") + 1 :]))
    assert sorted(in_ci - profiled) == []
