"""Experiment result container."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.metrics.report import ComparisonRow, format_table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Output of one registered experiment."""

    experiment_id: str
    title: str
    rows: list[ComparisonRow]
    series: dict[str, list[float]] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def all_within_band(self) -> bool:
        """True when every banded row is inside its acceptance band."""
        return all(row.within_band is not False for row in self.rows)

    def payload(self) -> dict:
        """Fully comparable snapshot of everything this result carries.

        Used to assert that looped and pooled runs of the same
        experiment are bit-identical: rows, series values, and extras
        (repr'd, since extras may hold arbitrary objects) all participate.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [
                (row.label, row.paper, row.measured, row.band)
                for row in self.rows
            ],
            "series": {name: list(values) for name, values in self.series.items()},
            "extras": {name: repr(value) for name, value in self.extras.items()},
        }

    def report(self) -> str:
        return format_table(f"{self.experiment_id}: {self.title}", self.rows)

    def save_series(self, path: str | os.PathLike) -> int:
        """Write the plotted series as CSV (one column per series).

        Lets users regenerate the paper's figures with their own plotting
        stack; returns the number of data rows written.  Series of
        unequal length are padded with empty cells.
        """
        if not self.series:
            raise ValueError(f"experiment {self.experiment_id!r} has no series")
        names = sorted(self.series)
        length = max(len(self.series[n]) for n in names)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("trial," + ",".join(names) + "\n")
            for i in range(length):
                cells = [
                    f"{self.series[n][i]:.6f}" if i < len(self.series[n]) else ""
                    for n in names
                ]
                fh.write(f"{i + 1}," + ",".join(cells) + "\n")
        return length

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.report()
