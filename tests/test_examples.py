"""The two examples that walk the §IV import run, and say what they said.

Nothing else executes ``examples/``; these two are rewritten whenever the
import changes shape, so their printed counts are pinned: the capture, the
dropped duplicates, the pairs and the mined result are functions of the
seeds in the scripts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

EXPECTED = {
    "trace_pipeline.py": [
        "captured 38,596 query and 12,000 reply records",
        "dropped 186 duplicate-GUID query records",
        "11,985 query-reply pairs",
        "5 full blocks",
        "    4     0.757     0.778      93",
        "averages: coverage=0.753 success=0.782",
    ],
    "servent_capture.py": [
        "monitor captured 120 query records and 203 reply records",
        "(323 rows)",
        "pipeline: 98 query-reply pairs after dedup + join",
        "mined 10 routing rules from the capture:",
        "queries from connection 0 -> forward to connection 3 (support 15)",
    ],
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs_and_prints_the_same_counts(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "query-reply pairs" in done.stdout
    for line in EXPECTED[script]:
        assert line in done.stdout
