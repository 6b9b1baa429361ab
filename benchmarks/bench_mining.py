"""Infrastructure micro-benchmarks: rule-engine throughput.

Not a paper artifact — these benches guard the performance of the hot
paths (the guides' "no optimization without measuring"): the vectorized
vs reference GENERATE-RULESET, the vectorized RULESET-TEST, and raw
trace generation.

Run directly (``python -m benchmarks.bench_mining --workers 4``) this
module is the loop-vs-pool replay gate: it runs the trace-driven
experiment suite through
:func:`repro.experiments.registry.run_experiments` as a loop and again
over a process pool, asserts the payloads are bit-identical (the hard
check), and fails unless the pool is at least
``--min-speedup`` faster (see ``docs/performance.md``, "Running
experiments", for where the defaults come from; ``--quick``'s three
experiments cannot pay for a pool start-up, so it gates on equality
alone).  Timings land in ``BENCH_mining_gate.json``.
"""

import argparse
from time import perf_counter

import pytest

from repro.core.evaluation import ruleset_test
from repro.core.generation import generate_ruleset
from repro.trace.blocks import PairBlock
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.core.reference_rules import (
    reference_generate_ruleset,
    reference_ruleset_test,
)


@pytest.fixture(scope="module")
def trace_block():
    cfg = MonitorTraceConfig()
    gen = MonitorTraceGenerator(cfg, seed=5)
    arrays = gen.generate_pair_arrays(10_000)
    return PairBlock(sources=arrays.source, repliers=arrays.replier)


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
    """One call long enough to time: the generator is built untimed."""
    n_pairs = 500_000

    def fresh_generator():
        return (MonitorTraceGenerator(MonitorTraceConfig(), seed=6), n_pairs), {}

    benchmark.extra_info["pairs"] = n_pairs
    arrays = benchmark.pedantic(
        MonitorTraceGenerator.generate_pair_arrays, setup=fresh_generator, rounds=3
    )
    assert len(arrays) == n_pairs


# --------------------------------------------------------------------------
# Loop-vs-pool replay gate (``python -m benchmarks.bench_mining``)
# --------------------------------------------------------------------------

# Every registered experiment that replays the cached monitor trace.
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


def _replay(ids, seed, workers):
    """One executor call: ({id: payload}, wall seconds)."""
    from repro.experiments.registry import run_experiments

    t0 = perf_counter()
    runs = list(run_experiments(ids, seeds=[seed], workers=workers))
    seconds = perf_counter() - t0
    return {run.result.experiment_id: run.result.payload() for run in runs}, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_mining",
        description="loop-vs-pool experiment replay gate",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool size (default: 4)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this loop/pool ratio (default: 1.3; with --quick: "
        "none, payload equality is the gate)",
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

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    ids = list(_QUICK_IDS if args.quick else _GATE_IDS)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 0.0 if args.quick else 1.3

    print(f"loop: {len(ids)} experiments, seed {seed} ...")
    serial, serial_seconds = _replay(ids, seed, workers=0)
    print(f"  {serial_seconds:.2f}s")

    print(f"pool: --workers {args.workers} ...")
    parallel, parallel_seconds = _replay(ids, seed, workers=args.workers)
    print(f"  {parallel_seconds:.2f}s")

    mismatches = [i for i in ids if parallel[i] != serial[i]]
    speedup = (
        serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    )

    path = emit_bench_json(
        "mining_gate",
        {
            "experiments": ids,
            "seed": seed,
            "workers": args.workers,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "min_speedup": min_speedup,
            "payloads_identical": not mismatches,
            "mismatched_experiments": mismatches,
        },
    )

    print(f"speedup: {speedup:.2f}x (gate: >= {min_speedup:.2f}x)")
    print(
        "payloads: identical"
        if not mismatches
        else f"payloads: MISMATCH in {', '.join(mismatches)}"
    )
    print(f"bench json written: {path}")

    ok = not mismatches and speedup >= min_speedup
    if not ok:
        print("GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
