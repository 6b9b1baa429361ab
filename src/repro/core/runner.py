"""Strategy run records.

A strategy consumes the trace's block sequence and produces a
:class:`StrategyRun`: one :class:`TrialResult` per tested block plus
aggregate statistics.  The aggregates mirror how the paper reports results
("the average coverage was 0.80", "new rule sets were generated every 1.7
blocks").

Partitioned evaluation (``evaluate_store_partitioned``) splits one trace
across workers by block range; each worker produces a partial
:class:`StrategyRun` over its scored range, and :func:`merge_runs`
reassembles the partials into the run the serial loop would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.evaluation import RulesetTestResult
from repro.obs.registry import get_global_registry

__all__ = ["TrialResult", "StrategyRun", "merge_runs", "observe_block_timing"]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of testing one block.

    ``fresh_ruleset`` is True when the rule set used for this trial was
    generated immediately before it (i.e. the trial exercised up-to-date
    rules).  ``ruleset_size`` is the number of rules in force.
    """

    block_index: int
    result: RulesetTestResult
    fresh_ruleset: bool
    ruleset_size: int

    @property
    def coverage(self) -> float:
        return self.result.coverage

    @property
    def success(self) -> float:
        return self.result.success


@dataclass(frozen=True)
class StrategyRun:
    """A full strategy execution over a trace."""

    strategy_name: str
    trials: tuple[TrialResult, ...]
    n_generations: int

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def coverage_series(self) -> list[float]:
        return [t.coverage for t in self.trials]

    @property
    def success_series(self) -> list[float]:
        return [t.success for t in self.trials]

    @property
    def average_coverage(self) -> float:
        """Mean per-trial coverage; ``nan`` for a run with no trials.

        ``nan`` marks "no data" for display, but must never be folded
        into cross-partition aggregates — :func:`merge_runs` skips empty
        partials instead of averaging them.
        """
        series = self.coverage_series
        return sum(series) / len(series) if series else float("nan")

    @property
    def average_success(self) -> float:
        series = self.success_series
        return sum(series) / len(series) if series else float("nan")

    @property
    def blocks_per_generation(self) -> float:
        """Mean number of tested blocks per rule-set generation.

        The paper's "new rule sets were generated every 1.7 blocks" metric;
        ``inf`` if the strategy never generated a rule set.
        """
        if self.n_generations == 0:
            return float("inf")
        return self.n_trials / self.n_generations

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return (
            f"{self.strategy_name}: trials={self.n_trials} "
            f"avg_coverage={self.average_coverage:.3f} "
            f"avg_success={self.average_success:.3f} "
            f"generations={self.n_generations}"
        )


def observe_block_timing(phase: str, strategy: str, seconds: float) -> None:
    """Record one per-block mining/test duration in the global registry.

    Block granularity (10k pairs per observation at paper scale) keeps
    the instrumentation cost invisible next to the work it measures;
    :func:`repro.experiments.report.offline_timings_section` surfaces
    the distributions in the markdown report.
    """
    get_global_registry().histogram(
        f"repro_offline_{phase}_seconds",
        f"Per-block {phase} duration in the offline simulator.",
        ("strategy",),
    ).labels(strategy).observe(seconds)


def merge_runs(runs: Iterable[StrategyRun]) -> StrategyRun:
    """Reassemble partial runs over disjoint block ranges into one run.

    Trials are concatenated in block order and ``n_generations`` summed,
    so merging every partition of a trace reproduces the serial run
    bit-for-bit (each partial counts only the generations the serial
    loop would have performed inside its scored range).

    Empty partials are skipped rather than merged: a partition whose
    scored range held only warm-up blocks contributes no trials, and its
    ``nan`` aggregate averages must not poison the merged aggregates.
    Merging runs of *different* strategies raises ``ValueError`` — a
    mixed merge is always a caller bug, and silently concatenating would
    produce a run no strategy ever executed.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("merge_runs needs at least one run")
    names = {run.strategy_name for run in runs}
    if len(names) > 1:
        raise ValueError(
            f"cannot merge runs of different strategies: {sorted(names)}"
        )
    name = runs[0].strategy_name
    partials = sorted(
        (run for run in runs if run.n_trials),
        key=lambda run: run.trials[0].block_index,
    )
    if not partials:
        return StrategyRun(name, (), n_generations=0)
    trials: list[TrialResult] = []
    for partial in partials:
        trials.extend(partial.trials)
    indices = [t.block_index for t in trials]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(
            "partial runs overlap or repeat block indices; partitions "
            "must cover disjoint block ranges"
        )
    return StrategyRun(
        name,
        tuple(trials),
        n_generations=sum(partial.n_generations for partial in partials),
    )
