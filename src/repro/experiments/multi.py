"""Multi-seed experiment sweeps.

A single seeded run shows the paper's shapes; a seed sweep shows they are
not a lucky draw.  :func:`aggregate_sweep` takes one experiment's runs
across seeds (``run_experiments([id], seeds=...)``) and aggregates each
row: mean, standard deviation, and how many seeds landed in band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.experiments.registry import ExperimentRun
from repro.metrics.report import ComparisonRow

__all__ = ["RowSweep", "SweepResult", "aggregate_sweep"]


@dataclass(frozen=True)
class RowSweep:
    """Aggregate of one comparison row across seeds."""

    label: str
    paper: float | str
    mean: float
    std: float
    band: tuple[float, float] | None
    n_in_band: int
    n_seeds: int

    @property
    def all_in_band(self) -> bool:
        return self.band is None or self.n_in_band == self.n_seeds

    def __str__(self) -> str:  # pragma: no cover - display convenience
        band = (
            f"[{self.band[0]:.2f}, {self.band[1]:.2f}] "
            f"{self.n_in_band}/{self.n_seeds} in band"
            if self.band
            else "unbanded"
        )
        return f"{self.label}: {self.mean:.3f} ± {self.std:.3f} ({band})"


@dataclass(frozen=True)
class SweepResult:
    """All row aggregates for one experiment's seed sweep."""

    experiment_id: str
    seeds: tuple[int, ...]
    rows: tuple[RowSweep, ...]

    @property
    def all_in_band(self) -> bool:
        return all(row.all_in_band for row in self.rows)

    def report(self) -> str:
        lines = [
            f"{self.experiment_id}: seed sweep over {list(self.seeds)}",
            "-" * 60,
        ]
        lines.extend(str(row) for row in self.rows)
        return "\n".join(lines)


def aggregate_sweep(runs: Iterable[ExperimentRun]) -> SweepResult:
    """Aggregate one experiment's runs across seeds, row by row.

    Rows are matched by label across runs; experiments whose row sets vary
    by seed (none do today) raise a ValueError.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run")
    seeds = tuple(run.seed for run in runs)
    results = [run.result for run in runs]
    experiment_id = results[0].experiment_id
    labels = [row.label for row in results[0].rows]
    for result in results[1:]:
        if [row.label for row in result.rows] != labels:
            raise ValueError(
                f"row sets differ across seeds for {experiment_id!r}"
            )
    sweeps = []
    for i, label in enumerate(labels):
        rows: list[ComparisonRow] = [result.rows[i] for result in results]
        values = np.array([row.measured for row in rows], dtype=float)
        band = rows[0].band
        n_in_band = sum(1 for row in rows if row.within_band)
        sweeps.append(
            RowSweep(
                label=label,
                paper=rows[0].paper,
                mean=float(values.mean()),
                std=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                band=band,
                n_in_band=n_in_band,
                n_seeds=len(seeds),
            )
        )
    return SweepResult(
        experiment_id=experiment_id, seeds=seeds, rows=tuple(sweeps)
    )
