"""Infrastructure micro-benchmarks: mining and rule-engine throughput.

Not a paper artifact — these benches guard the performance of the hot
paths (the guides' "no optimization without measuring"): Apriori vs
FP-Growth on market-basket data, the vectorized vs reference
GENERATE-RULESET, the vectorized RULESET-TEST, and raw trace generation.

Run directly (``python -m benchmarks.bench_mining --workers 4``) this
module is the serial-vs-parallel replay gate: it times the trace-driven
experiment suite serially, replays it through
:class:`repro.parallel.engine.ParallelExperimentEngine`, asserts the
results are bit-identical, and fails unless the engine is at least
``--min-speedup`` (default 2x) faster.  Timings land in
``BENCH_mining_gate.json`` (see ``docs/performance.md``).
"""

import argparse
from time import perf_counter

import numpy as np
import pytest

from repro.core.evaluation import ruleset_test
from repro.core.generation import generate_ruleset
from repro.mining.apriori import apriori
from repro.mining.fpgrowth import fpgrowth
from repro.mining.transactions import TransactionDataset
from repro.trace.blocks import PairBlock
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.core.reference_rules import (
    reference_generate_ruleset,
    reference_ruleset_test,
)


@pytest.fixture(scope="module")
def basket_dataset():
    rng = np.random.default_rng(0)
    transactions = [
        set(rng.choice(60, size=rng.integers(2, 8), replace=False).tolist())
        for _ in range(2000)
    ]
    return TransactionDataset(transactions)


@pytest.fixture(scope="module")
def trace_block():
    cfg = MonitorTraceConfig()
    gen = MonitorTraceGenerator(cfg, seed=5)
    arrays = gen.generate_pair_arrays(10_000)
    return PairBlock(sources=arrays.source, repliers=arrays.replier)


def test_apriori_throughput(benchmark, basket_dataset):
    result = benchmark(apriori, basket_dataset, min_support_count=40)
    assert result


def test_fpgrowth_throughput(benchmark, basket_dataset):
    result = benchmark(fpgrowth, basket_dataset, min_support_count=40)
    assert result


def test_generate_ruleset_numpy(benchmark, trace_block):
    benchmark.extra_info["pairs"] = len(trace_block)
    rs = benchmark(generate_ruleset, trace_block)
    assert len(rs) > 0


def test_generate_ruleset_python_reference(benchmark, trace_block):
    benchmark.extra_info["pairs"] = len(trace_block)
    rs = benchmark(reference_generate_ruleset, trace_block)
    assert len(rs) > 0


def test_ruleset_test_numpy(benchmark, trace_block):
    rs = generate_ruleset(trace_block)
    benchmark.extra_info["pairs"] = len(trace_block)
    result = benchmark(ruleset_test, rs, trace_block)
    assert result.n_total == len(trace_block)


def test_ruleset_test_python_reference(benchmark, trace_block):
    rs = generate_ruleset(trace_block)
    benchmark.extra_info["pairs"] = len(trace_block)
    result = benchmark(reference_ruleset_test, rs, trace_block)
    assert result.n_total == len(trace_block)


def test_trace_generation_throughput(benchmark):
    def generate():
        gen = MonitorTraceGenerator(MonitorTraceConfig(), seed=6)
        return gen.generate_pair_arrays(20_000)

    benchmark.extra_info["pairs"] = 20_000
    arrays = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(arrays) == 20_000


def test_ruleset_cache_hit_throughput(benchmark, trace_block):
    """A cache hit must be orders of magnitude cheaper than mining."""
    from repro.parallel.cache import cached_generate_ruleset, ruleset_cache

    with ruleset_cache() as cache:
        cached_generate_ruleset(trace_block)  # populate
        benchmark.extra_info["pairs"] = len(trace_block)
        rs = benchmark(cached_generate_ruleset, trace_block)
        assert len(rs) > 0
        assert cache.hits > 0
        benchmark.extra_info["cache_hit_rate"] = f"{cache.hit_rate:.3f}"


# --------------------------------------------------------------------------
# Serial-vs-parallel replay gate (``python -m benchmarks.bench_mining``)
# --------------------------------------------------------------------------

# Every registered experiment that replays the cached monitor trace —
# the suite the engine's pool and ruleset cache accelerate.
_GATE_IDS = (
    "static",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "adaptive-history",
    "streaming",
    "prune-ablation",
    "confidence-ablation",
    "topk-ablation",
)
_QUICK_IDS = ("fig1", "fig3", "topk-ablation")


def _serial_baseline(ids, seed):
    """Plain run_experiment loop: no pool, no ruleset cache."""
    from repro.experiments import run_experiment

    results = {}
    t0 = perf_counter()
    for experiment_id in ids:
        results[experiment_id] = run_experiment(experiment_id, seed=seed)
    return results, perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_mining",
        description="serial-vs-parallel experiment replay gate",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="engine pool size (default: 4)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail below this serial/parallel ratio (default: 2.0)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"gate on {list(_QUICK_IDS)} only (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    from benchmarks._emit import emit_bench_json
    from repro.experiments.config import DEFAULT_SEED
    from repro.parallel.engine import run_experiments

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    ids = list(_QUICK_IDS if args.quick else _GATE_IDS)

    print(f"serial baseline: {len(ids)} experiments, seed {seed} ...")
    serial, serial_seconds = _serial_baseline(ids, seed)
    print(f"  {serial_seconds:.2f}s")

    print(f"engine replay: --workers {args.workers} ...")
    t0 = perf_counter()
    run = run_experiments(ids, workers=args.workers, seed=seed)
    parallel_seconds = perf_counter() - t0
    print(
        f"  {parallel_seconds:.2f}s "
        f"(cache hit rate {run.cache.get('hit_rate', 0.0):.1%})"
    )

    mismatches = [
        o.experiment_id
        for o in run.outcomes
        if o.result.payload() != serial[o.experiment_id].payload()
    ]
    speedup = (
        serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    )

    # Per-ablation cache demonstration: the top-k ablation's random-subset
    # replay re-mines blocks its own sweep already mined, so a lone
    # in-process engine run must land cache hits.
    ablation_cache = run_experiments(["topk-ablation"], workers=1, seed=seed).cache

    path = emit_bench_json(
        "mining_gate",
        {
            "experiments": ids,
            "seed": seed,
            "workers": args.workers,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "min_speedup": args.min_speedup,
            "payloads_identical": not mismatches,
            "mismatched_experiments": mismatches,
            "ruleset_cache": run.cache,
            "topk_ablation_cache": ablation_cache,
        },
    )

    print(f"speedup: {speedup:.2f}x (gate: >= {args.min_speedup:.2f}x)")
    print(
        "payloads: identical"
        if not mismatches
        else f"payloads: MISMATCH in {', '.join(mismatches)}"
    )
    print(
        f"topk-ablation standalone cache: {ablation_cache.get('hits', 0):.0f} "
        f"hits / {ablation_cache.get('misses', 0):.0f} misses "
        f"(hit rate {ablation_cache.get('hit_rate', 0.0):.1%})"
    )
    print(f"bench json written: {path}")

    ok = (
        not mismatches
        and speedup >= args.min_speedup
        and ablation_cache.get("hits", 0) > 0
    )
    if not ok:
        print("GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
