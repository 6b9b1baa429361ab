"""``scripts/reach.py`` follows the work into pool workers.

A forked ``multiprocessing`` worker leaves through ``os._exit`` after
``Process._bootstrap`` has cleared the finalizers it inherited, so a
profile dump registered in the parent never runs there.  Pool-only code
such as ``_shard_task`` would then read "reached by nothing"; the tool
registers the dump from inside each child, and this test holds it to that.
"""

import json
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
