"""Process-pool experiment engine.

Fans figure runners, ablation sweep points and multi-seed trials out
across ``ProcessPoolExecutor`` workers, and removes the re-mining a
sweep repeats: strategies and sweep points re-run GENERATE-RULESET on
blocks already mined with identical parameters, so each worker carries
a process-wide content-addressed
:class:`~repro.parallel.cache.RulesetCache` and ships its hit/miss
counters back with every task result.

Traces need no engine support: every runner takes its blocks from
:func:`repro.trace.cache.trace_blocks`, so workers open the same
on-disk store the serial path uses and the OS page cache shares it
between them — nothing is generated ahead of the tasks and nothing is
shipped to them.

Mining, testing and trace generation are all deterministic, so engine
runs produce bit-identical :class:`~repro.experiments.results.ExperimentResult`
payloads to the serial path — ``workers <= 1`` runs in-process (no pool)
with the same cache installed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Sequence

from repro.experiments.config import DEFAULT_SEED
from repro.experiments.results import ExperimentResult
from repro.parallel.cache import (
    DEFAULT_CACHE_SIZE,
    configure_ruleset_cache,
    get_ruleset_cache,
    ruleset_cache,
)

__all__ = [
    "ExperimentTask",
    "TaskOutcome",
    "EngineRun",
    "ParallelExperimentEngine",
    "run_experiments",
]

#: settings a worker must see as the parent does *now*: a pool started
#: by a fork server inherits the environment of whenever that server
#: was launched, not the parent's current one.
_WORKER_ENV = ("REPRO_FULL_SCALE", "REPRO_TRACE_CACHE_DIR")


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of engine work: a registered experiment id + kwargs."""

    experiment_id: str
    kwargs: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.kwargs.get("seed", DEFAULT_SEED))


@dataclass
class TaskOutcome:
    """What one worker task returned."""

    experiment_id: str
    result: ExperimentResult
    seconds: float
    pid: int
    cache_stats: dict | None


@dataclass
class EngineRun:
    """All outcomes of one engine invocation plus engine-level telemetry."""

    outcomes: list[TaskOutcome]
    workers: int
    seconds: float
    cache: dict[str, float]

    @property
    def results(self) -> list[ExperimentResult]:
        return [o.result for o in self.outcomes]


def _run_one(task: ExperimentTask) -> TaskOutcome:
    from repro.experiments.registry import run_experiment

    t0 = perf_counter()
    result = run_experiment(task.experiment_id, **task.kwargs)
    cache = get_ruleset_cache()
    return TaskOutcome(
        experiment_id=task.experiment_id,
        result=result,
        seconds=perf_counter() - t0,
        pid=os.getpid(),
        cache_stats=cache.stats() if cache is not None else None,
    )


def _worker_init(cache_size: int, env: dict[str, str | None]) -> None:
    """Pool initializer: the parent's settings, a per-process cache."""
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    configure_ruleset_cache(cache_size)


def _aggregate_cache(outcomes: Sequence[TaskOutcome]) -> dict[str, float]:
    """Sum each worker process's final cache snapshot.

    Cache counters are cumulative per process; tasks on one worker run
    sequentially, so the last snapshot per pid carries that worker's
    totals.
    """
    latest: dict[int, dict] = {}
    for outcome in outcomes:
        if outcome.cache_stats is not None:
            latest[outcome.pid] = outcome.cache_stats
    totals = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
    for stats in latest.values():
        for key in totals:
            totals[key] += stats.get(key, 0)
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


class ParallelExperimentEngine:
    """Runs experiment tasks with cached mining.

    ``workers <= 1`` keeps everything in-process (cache, no pool);
    ``workers > 1`` fans tasks out over a ``ProcessPoolExecutor``.
    """

    def __init__(self, workers: int = 0, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers)
        self.cache_size = int(cache_size)

    def run_ids(
        self, experiment_ids: Sequence[str], *, seed: int | None = None, **kwargs: Any
    ) -> EngineRun:
        common = dict(kwargs)
        if seed is not None:
            common["seed"] = seed
        return self.run(
            [ExperimentTask(experiment_id, dict(common)) for experiment_id in experiment_ids]
        )

    def run(self, tasks: Sequence[ExperimentTask]) -> EngineRun:
        tasks = list(tasks)
        t0 = perf_counter()
        if self.workers <= 1:
            with ruleset_cache(self.cache_size):
                outcomes = [_run_one(task) for task in tasks]
        else:
            env = {name: os.environ.get(name) for name in _WORKER_ENV}
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.cache_size, env),
            ) as pool:
                futures = [pool.submit(_run_one, task) for task in tasks]
                outcomes = [future.result() for future in futures]
        return EngineRun(
            outcomes=outcomes,
            workers=max(self.workers, 1),
            seconds=perf_counter() - t0,
            cache=_aggregate_cache(outcomes),
        )


def run_experiments(
    experiment_ids: Sequence[str],
    *,
    workers: int = 0,
    seed: int | None = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
) -> EngineRun:
    """One-call convenience wrapper used by the CLI and benchmarks."""
    engine = ParallelExperimentEngine(workers, cache_size=cache_size)
    return engine.run_ids(experiment_ids, seed=seed)
