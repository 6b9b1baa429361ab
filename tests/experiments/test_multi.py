"""Tests for repro.experiments.multi (seed sweeps)."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.multi import aggregate_sweep
from repro.experiments.registry import run_experiments

TINY = ExperimentScale("t", 8, 10, 30_000, 80, 30, 60)


def sweep_of(experiment_id, seeds):
    return aggregate_sweep(run_experiments([experiment_id], seeds=seeds, scale=TINY))


class TestRunSeedSweep:
    def test_aggregates_rows(self):
        sweep = sweep_of("fig1", [1, 2, 3])
        assert sweep.experiment_id == "fig1"
        assert sweep.seeds == (1, 2, 3)
        coverage = sweep.rows[0]
        assert coverage.n_seeds == 3
        assert 0.0 <= coverage.mean <= 1.0
        assert coverage.std >= 0.0

    def test_report_printable(self):
        sweep = sweep_of("fig1", [1, 2])
        text = sweep.report()
        assert "fig1" in text
        assert "±" in text

    def test_single_seed_zero_std(self):
        sweep = sweep_of("fig1", [5])
        assert all(row.std == 0.0 for row in sweep.rows)

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_experiments(["fig1"], seeds=[])
        with pytest.raises(ValueError):
            aggregate_sweep([])

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiments(["not-an-experiment"], seeds=[1])
