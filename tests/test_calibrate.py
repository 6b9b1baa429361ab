"""``scripts/calibrate.py`` searches knobs the trace generator reads.

A grid entry the generator ignores spends a whole sweep of runs on one
trace.  Every knob the grid varies must change the pairs, at the
grid's own horizon of ``N_BLOCKS`` blocks.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"
#: small blocks keep the horizon at N_BLOCKS blocks and the test fast.
BLOCK_SIZE = 500


def load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calibrate = load_calibrate()


def trace_digest(config, seed, n_pairs):
    arrays = MonitorTraceGenerator(config, seed=seed).generate_pair_arrays(n_pairs)
    digest = hashlib.blake2b(digest_size=16)
    for column in (arrays.source, arrays.replier):
        digest.update(column.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "knob", [key for key, values in calibrate.GRID.items() if len(values) > 1]
)
def test_every_grid_knob_changes_the_trace(knob):
    digests = {
        trace_digest(
            MonitorTraceConfig(block_size=BLOCK_SIZE, **{knob: value}),
            calibrate.SEED,
            calibrate.N_BLOCKS * BLOCK_SIZE,
        )
        for value in calibrate.GRID[knob]
    }
    assert len(digests) == len(calibrate.GRID[knob])
