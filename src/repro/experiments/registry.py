"""The experiment table and the one way through it.

:data:`EXPERIMENTS` maps each id to its title and a function of a
:class:`~repro.experiments.context.RunContext`;
:func:`run_experiments` is the executor every caller goes through — the
CLI's ``run`` / ``all``, seed sweeps, the benches: a plain loop at
``workers <= 1``, the same function mapped over a process pool above
that.  Trace generation, mining, testing and the overlay simulators are
all seeded and deterministic, so both give bit-identical
:meth:`~repro.experiments.results.ExperimentResult.payload`\\ s; workers
open the same on-disk trace store the loop uses
(:func:`repro.trace.cache.trace_blocks`), so nothing is shipped to them
but the context.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator

from repro.experiments import (
    ablations,
    adoption,
    extensions,
    figures,
    hier,
    latency,
    traffic,
)
from repro.experiments.config import DEFAULT_SEED, ExperimentScale, current_scale
from repro.experiments.context import RunContext
from repro.experiments.results import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "ExperimentRun",
    "get_experiment",
    "run_experiment",
    "run_experiments",
]

#: experiment id -> (title, function of a RunContext), in report order
EXPERIMENTS: dict[str, tuple[str, Callable[[RunContext], ExperimentResult]]] = {
    "static": ("Static Ruleset over time (paper §V-A)", figures.run_static),
    "fig1": (
        "Sliding Window coverage & success over time (paper Fig. 1)",
        figures.run_fig1_sliding,
    ),
    "fig2": (
        "Sliding Window coverage vs block size (paper Fig. 2)",
        figures.run_fig2_block_sizes,
    ),
    "fig3": (
        "Lazy Sliding Window over time, regen every 10 blocks (paper Fig. 3)",
        figures.run_fig3_lazy,
    ),
    "fig4": (
        "Adaptive Sliding Window over time, history N=10 (paper Fig. 4)",
        figures.run_fig4_adaptive,
    ),
    "adaptive-history": (
        "Adaptive thresholds: history N=10 vs N=50 (paper §V-D)",
        figures.run_adaptive_history,
    ),
    "streaming": (
        "Streaming rule maintenance (paper §VI future work)",
        figures.run_streaming,
    ),
    "traffic": (
        "Online traffic reduction across routing strategies (paper §I/§VI claim)",
        traffic.run_traffic_comparison,
    ),
    "prune-ablation": (
        "Support-prune threshold ablation (paper §III-B.1, §V-B)",
        figures.run_prune_ablation,
    ),
    "confidence-ablation": (
        "Confidence-based pruning extension (paper §VI)",
        figures.run_confidence_ablation,
    ),
    "category-rules": (
        "Query-string (category) dimension in rule antecedents (paper §VI)",
        extensions.run_category_rules,
    ),
    "topology-adaptation": (
        "Rule-driven overlay rewiring (paper §VI)",
        extensions.run_topology_adaptation,
    ),
    "hybrid": (
        "Interest shortcuts + association rules hybrid (paper §VI)",
        extensions.run_hybrid,
    ),
    "superpeer": (
        "Super-peer two-tier baseline (paper §II, ref [14])",
        extensions.run_superpeer,
    ),
    "hier": (
        "Two-tier super-peer rule routing vs flooding (ISSUE 10)",
        hier.run_hier,
    ),
    "topk-ablation": (
        "Top-k consequent forwarding ablation (paper §III-B.1)",
        ablations.run_topk_ablation,
    ),
    "churn-sensitivity": (
        "Association routing under churn (robustness ablation)",
        ablations.run_churn_sensitivity,
    ),
    "adoption": (
        "Incremental deployment sweep (paper §III-B)",
        adoption.run_adoption_sweep,
    ),
    "latency": (
        "Latency under load: flooding vs association routing (paper §VI)",
        latency.run_latency_under_load,
    ),
}


def get_experiment(experiment_id: str) -> Callable[[RunContext], ExperimentResult]:
    """Look up an experiment's function by id (KeyError names the known ids)."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return EXPERIMENTS[experiment_id][1]


def _contexts(
    experiment_ids: Iterable[str],
    seeds: list[int],
    scale: ExperimentScale | None,
) -> Iterator[RunContext]:
    """One context per ``(id, seed)``, ids outermost, all at one scale.

    Ids and scale are settled here; the contexts are made as they are
    asked for, so the loop drops a finished run's blocks with its context.
    """
    experiment_ids = list(experiment_ids)
    for experiment_id in experiment_ids:
        get_experiment(experiment_id)  # refuses an unknown id now, not at its turn
    scale = scale or current_scale()
    return (
        RunContext(experiment_id, EXPERIMENTS[experiment_id][0], scale, int(seed))
        for experiment_id in experiment_ids
        for seed in seeds
    )


def run_experiment(
    experiment_id: str,
    *,
    seed: int = DEFAULT_SEED,
    scale: ExperimentScale | None = None,
) -> ExperimentResult:
    """Run one registered experiment in this process.

    ``scale`` defaults to :func:`~repro.experiments.config.current_scale`.
    """
    (ctx,) = _contexts([experiment_id], [seed], scale)
    return get_experiment(experiment_id)(ctx)


@dataclass(frozen=True)
class ExperimentRun:
    """One executed ``(experiment id, seed)`` task."""

    seed: int
    result: ExperimentResult
    seconds: float
    pid: int


def _execute(ctx: RunContext) -> ExperimentRun:
    t0 = perf_counter()
    result = get_experiment(ctx.experiment_id)(ctx)
    return ExperimentRun(ctx.seed, result, perf_counter() - t0, os.getpid())


def _worker_init(trace_cache_dir: str | None) -> None:
    """A worker sees the trace cache where the parent does *now*: a pool
    started by a fork server inherits the environment of whenever that
    server was launched."""
    if trace_cache_dir is None:
        os.environ.pop("REPRO_TRACE_CACHE_DIR", None)
    else:
        os.environ["REPRO_TRACE_CACHE_DIR"] = trace_cache_dir


def _runs(contexts: Iterator[RunContext], workers: int) -> Iterator[ExperimentRun]:
    if workers <= 1:
        yield from map(_execute, contexts)
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(os.environ.get("REPRO_TRACE_CACHE_DIR"),),
    ) as pool:
        yield from pool.map(_execute, contexts)


def run_experiments(
    experiment_ids: Iterable[str],
    *,
    seeds: Iterable[int] = (DEFAULT_SEED,),
    workers: int = 0,
    scale: ExperimentScale | None = None,
) -> Iterator[ExperimentRun]:
    """Run every ``(id, seed)`` task, ids outermost, and yield the runs in
    that order as they finish.

    ``workers <= 1`` is a loop in this process; above that the same
    function is mapped over a ``ProcessPoolExecutor``, and a task's
    exception surfaces when its turn comes.  Unknown ids, an empty seed
    list and a negative worker count are refused here, before anything
    runs; the scale is resolved here too (``None``:
    :func:`~repro.experiments.config.current_scale`) and travels with
    each task.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return _runs(_contexts(experiment_ids, seeds, scale), workers)
