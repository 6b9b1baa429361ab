"""One bench per registered experiment: its bands, and its shape.

Every id in :data:`repro.experiments.registry.EXPERIMENTS` runs once under the
pytest-benchmark timer and must land every banded row inside its
acceptance band (the reproduction contract, stated once, in the
experiment).  A few figures also make a claim about the *shape* of a
series that no single row states; those checks are the :data:`SHAPES`
table below.

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -k fig3
"""

import numpy as np
import pytest

from benchmarks.conftest import register_report
from repro.experiments.registry import EXPERIMENTS, run_experiment


def _fig1_stationary(result):
    # Fig. 1's visual claim: both series hover in a stable band, no decay.
    coverage = np.asarray(result.series["coverage"])
    success = np.asarray(result.series["success"])
    assert coverage.std() < 0.08
    assert success.std() < 0.08
    half = len(success) // 2
    assert abs(success[:half].mean() - success[half:].mean()) < 0.08


def _fig3_sawtooth(result):
    # The first trial after each regeneration beats the last trial of the
    # span before it (regen every 10 blocks).
    success = result.series["success"]
    for start in range(10, len(success) - 1, 10):
        assert success[start] > success[start - 1]


def _fig4_floor(result):
    # "the decreases in coverage and success were never dramatic"
    assert min(result.series["success"]) > 0.45
    assert int(result.extras["n_generations"]) > 1


def _static_tail(result):
    # Success collapses and stays collapsed; coverage keeps a long tail.
    assert max(result.series["success"][20:], default=0.0) < 0.15
    assert result.series["coverage"][-1] > 0.05


def _streaming_every_block(result):
    # "consistently" above the band: every block, not just on average.
    assert min(result.series["success"]) > 0.75


def _topk_gap(result):
    # k=1 sacrifices meaningful success (why category-rules exists).
    successes = result.extras["successes"]
    assert successes["1"] < successes["all"] - 0.1


def _history_generations(result):
    # A longer history never regenerates much more often.
    assert int(result.extras["generations_n50"]) <= (
        int(result.extras["generations_n10"]) + 2
    )


def _confidence_halving(result):
    # Rule sets at least halve at the aggressive end.
    sizes = result.extras["sizes"]
    assert sizes[0.5] < sizes[0.0] * 0.5


def _traffic_per_strategy(result):
    register_report(
        "per-strategy stats:\n"
        + "\n".join(f"  {k}: {v}" for k, v in result.extras.items())
    )


#: experiment id -> the shape check its bands do not state
SHAPES = {
    "fig1": _fig1_stationary,
    "fig3": _fig3_sawtooth,
    "fig4": _fig4_floor,
    "static": _static_tail,
    "streaming": _streaming_every_block,
    "topk-ablation": _topk_gap,
    "adaptive-history": _history_generations,
    "confidence-ablation": _confidence_halving,
    "traffic": _traffic_per_strategy,
}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment(benchmark, experiment_id):
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id), rounds=1, iterations=1
    )
    register_report(result.report())
    for key, value in result.extras.items():
        benchmark.extra_info[key] = str(value)
    assert result.all_within_band, f"out-of-band rows:\n{result.report()}"
    if experiment_id in SHAPES:
        SHAPES[experiment_id](result)
