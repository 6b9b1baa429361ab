"""Every experiment runner executes end-to-end at a tiny scale.

Bands are asserted only by the benchmarks (tiny scales are too noisy);
here we check that each runner produces a well-formed result: rows with
finite measured values, correct experiment ids, and printable reports.
"""

import math

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.registry import EXPERIMENTS, run_experiment

# Small but not degenerate: fig3 needs > laziness(10) blocks for its
# sawtooth statistic, static needs > 16 trials for its tail statistic.
TINY = ExperimentScale(
    name="tiny",
    n_blocks=12,
    n_blocks_static=20,
    n_pairs_blocksweep=60_000,
    overlay_nodes=120,
    overlay_queries=60,
    overlay_warmup=120,
)


# fig2 sweeps block sizes up to 50k and needs more pairs than TINY offers;
# at TINY it skips its 50k size (one block), so it runs on its own below
# and its full run is covered by the benchmarks.
FAST_IDS = sorted(set(EXPERIMENTS) - {"fig2"})


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_runner_produces_wellformed_result(experiment_id):
    result = run_experiment(experiment_id, scale=TINY)
    assert result.experiment_id == experiment_id
    assert result.rows
    for row in result.rows:
        assert isinstance(row.measured, float)
        assert not math.isnan(row.measured)
    text = result.report()
    assert experiment_id in text
    for series in result.series.values():
        assert all(0.0 <= v <= 1.0 for v in series)


def test_fig2_runs_with_reduced_sizes():
    result = run_experiment("fig2", scale=TINY)
    assert result.rows
