"""Smoke tests for the experiment runners (fast subset).

The full per-figure regeneration lives in ``benchmarks/``; here we check
the runners execute and their banded rows pass for the lightest figures.
"""

import pytest

from repro.experiments.registry import run_experiment


@pytest.mark.parametrize("experiment_id", ["fig1", "fig4"])
def test_trace_experiments_in_band(experiment_id):
    result = run_experiment(experiment_id)
    assert result.all_within_band, result.report()
    assert result.series  # figures carry their plotted series


def test_experiment_result_report_is_printable():
    result = run_experiment("fig1")
    text = result.report()
    assert "fig1" in text
    assert "coverage" in text
