"""The shipped records cover the table: one section per registered id."""

import re
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("path", ["EXPERIMENTS.md", "reports/reproduction_report.md"])
def test_every_registered_id_has_a_section(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    headed = re.findall(r"(?m)^## `([a-z0-9-]+)` — (.+)$", text)
    assert [experiment_id for experiment_id, _ in headed] == list(EXPERIMENTS)
    for experiment_id, title in headed:
        assert title == EXPERIMENTS[experiment_id][0]
