"""Tests for repro.core.runner."""

import math

import pytest

from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult
from repro.core.strategies import SlidingWindow
from tests.conftest import make_block


def make_trial(i, coverage_counts=(10, 8, 6), fresh=True):
    n, c, s = coverage_counts
    return TrialResult(
        block_index=i,
        result=RulesetTestResult(n_total=n, n_covered=c, n_successful=s),
        fresh_ruleset=fresh,
        ruleset_size=5,
    )


class TestStrategyRun:
    def test_series_and_averages(self):
        run = StrategyRun(
            "test",
            (make_trial(1, (10, 8, 6)), make_trial(2, (10, 4, 2))),
            n_generations=2,
        )
        assert run.coverage_series == [0.8, 0.4]
        assert run.success_series == [0.75, 0.5]
        assert run.average_coverage == pytest.approx(0.6)
        assert run.average_success == pytest.approx(0.625)

    def test_blocks_per_generation(self):
        run = StrategyRun("t", (make_trial(1), make_trial(2), make_trial(3)), 2)
        assert run.blocks_per_generation == pytest.approx(1.5)

    def test_zero_generations_is_inf(self):
        run = StrategyRun("t", (make_trial(1),), 0)
        assert math.isinf(run.blocks_per_generation)

    def test_empty_run_averages_nan(self):
        run = StrategyRun("t", (), 0)
        assert math.isnan(run.average_coverage)

    def test_summaries(self):
        run = StrategyRun("t", (make_trial(1), make_trial(2)), 1)
        assert len(run.coverage_series) == len(run.success_series) == 2
        assert run.average_coverage == pytest.approx(0.8)

    def test_trial_properties(self):
        trial = make_trial(3)
        assert trial.coverage == 0.8
        assert trial.success == 0.75


class TestRunStrategy:
    def test_delegates_to_strategy(self):
        blocks = [make_block([(1, 10)] * 20, index=i) for i in range(3)]
        run = SlidingWindow(min_support_count=2).run(blocks)
        assert isinstance(run, StrategyRun)
        assert run.strategy_name == "sliding"
        assert run.n_trials == 2
