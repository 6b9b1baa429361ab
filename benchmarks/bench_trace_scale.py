"""Out-of-core trace store scale gate (``python -m benchmarks.bench_trace_scale``).

Proves the claims behind :mod:`repro.trace.store` and
:mod:`repro.parallel.partition` (the paper's full regime is 10.5M
query–reply pairs — far past what the in-memory path should be asked to
hold twice):

* **Write throughput** — the append-only chunked writer streams generator
  output to disk without holding the trace; the generator's and the
  writer's pairs/sec are timed and recorded separately.
* **Bit-identical evaluation** — a strategy run streaming blocks off the
  store equals the same run over in-memory ``blocks_from_arrays`` blocks,
  trial for trial.
* **O(blocks) memory** — evaluation peak RSS is measured in fresh spawn
  subprocesses (so each measurement owns its high-water mark) for a base
  store and one ``--growth`` times larger; the gate *asserts* the RSS
  delta stays within a block-sized allowance instead of eyeballing it.
* **Partitioned speedup** — a 4-worker partitioned evaluation of the base
  store must merge bit-identical to the serial run, and (full runs only —
  CI smoke hosts may have 2 cores) deliver >= 2x serial pairs/sec.
* **Block round-trip** — the base store re-written block by block
  through ``append_block`` must be byte-identical to the original.

Results land in ``BENCH_trace_scale.json`` (including
``partitioned_pairs_per_sec``); a failed gate
exits non-zero.  ``--quick`` (CI smoke) scales the base trace down to
100k pairs and gates identity but not the speedup ratio.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import tempfile
from time import perf_counter

#: evaluation strategies exercised by the bit-identity check.
_IDENTITY_STRATEGIES = ("static", "sliding", "lazy", "adaptive")

#: RSS allowance floor for the growth gate (interpreter noise, pools).
_RSS_FLOOR_BYTES = 48 * 1024 * 1024

#: workers for the partitioned gate (the ISSUE's acceptance shape).
_PARTITION_WORKERS = 4

#: required partitioned/serial throughput ratio on full (non-quick) runs.
_PARTITION_SPEEDUP = 2.0


def _make_strategy(name: str):
    from repro.core.strategies import (
        AdaptiveSlidingWindow,
        LazySlidingWindow,
        SlidingWindow,
        StaticRuleset,
    )

    return {
        "static": StaticRuleset,
        "sliding": SlidingWindow,
        "lazy": LazySlidingWindow,
        "adaptive": AdaptiveSlidingWindow,
    }[name]()


def _write_stores(
    small_path: str,
    large_path: str,
    *,
    base_pairs: int,
    growth: int,
    block_size: int,
    chunk_size: int,
    seed: int,
) -> dict:
    """One generator pass, two stores: base trace and its 10x continuation.

    Streaming both writers from the same chunk sequence means the large
    store's first ``base_pairs`` pairs are byte-identical to the small
    store, and the parent never holds more than ``chunk_size`` pairs of
    generated trace.

    ``generate_*`` is the time inside ``generate_pair_arrays``; ``write_*``
    is the rest of the pass — the two writers' open, appends and close —
    over the pairs they appended.  Artifacts from before PR 12 folded the
    generator, most of the pass, into ``write_*``.
    """
    from repro.trace.store import TraceStoreWriter
    from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

    gen = MonitorTraceGenerator(MonitorTraceConfig(block_size=block_size), seed=seed)
    total_pairs = base_pairs * growth
    written = 0
    generate_seconds = 0.0
    t0 = perf_counter()
    with TraceStoreWriter(small_path, block_size=block_size) as small:
        with TraceStoreWriter(large_path, block_size=block_size) as large:
            while written < total_pairs:
                n = min(chunk_size, total_pairs - written)
                g0 = perf_counter()
                arrays = gen.generate_pair_arrays(n)
                generate_seconds += perf_counter() - g0
                large.append(arrays.source, arrays.replier)
                if written < base_pairs:
                    take = min(n, base_pairs - written)
                    small.append(arrays.source[:take], arrays.replier[:take])
                written += n
    write_seconds = perf_counter() - t0 - generate_seconds
    return {
        "base_pairs": base_pairs,
        "total_pairs": total_pairs,
        "generate_seconds": generate_seconds,
        "generate_pairs_per_sec": (
            total_pairs / generate_seconds if generate_seconds else float("inf")
        ),
        "write_seconds": write_seconds,
        "write_pairs_per_sec": (
            (total_pairs + base_pairs) / write_seconds
            if write_seconds
            else float("inf")
        ),
        "small_bytes": os.path.getsize(small_path),
        "large_bytes": os.path.getsize(large_path),
    }


def _check_bit_identity(store_path: str) -> dict:
    """Strategy runs off the store must equal runs off in-memory blocks."""
    import numpy as np

    from repro.trace.blocks import blocks_from_arrays
    from repro.trace.store import TraceStoreReader

    with TraceStoreReader(store_path) as reader:
        sources = np.concatenate([b.sources for b in reader.iter_blocks()])
        repliers = np.concatenate([b.repliers for b in reader.iter_blocks()])
        block_size = reader.block_size
    in_memory = blocks_from_arrays(sources, repliers, block_size=block_size)

    mismatches = []
    for name in _IDENTITY_STRATEGIES:
        memory_run = _make_strategy(name).run(in_memory)
        with TraceStoreReader(store_path) as reader:
            store_run = _make_strategy(name).run(reader.iter_blocks())
        if memory_run != store_run:
            mismatches.append(name)
    return {
        "strategies": list(_IDENTITY_STRATEGIES),
        "identical": not mismatches,
        "mismatched_strategies": mismatches,
    }


def _check_partitioned(store_path: str, *, quick: bool) -> dict:
    """4-worker partitioned evaluation: merged-run identity + speedup.

    The serial reference is timed in-process right next to the
    partitioned run so the ratio compares like with like (same host
    state, same page cache).  Identity is gated always; the >= 2x
    speedup only on full runs on hosts with >= ``_PARTITION_WORKERS``
    CPUs — partitioning does not shed work, so a 1–2 core CI smoke host
    cannot honestly promise 2x.
    """
    from repro.parallel.partition import evaluate_store, evaluate_store_partitioned

    strategy = _make_strategy("sliding")
    t0 = perf_counter()
    serial_run = evaluate_store(store_path, strategy)
    serial_seconds = perf_counter() - t0

    from repro.trace.store import TraceStoreReader

    with TraceStoreReader(store_path) as reader:
        n_pairs = reader.n_pairs

    t0 = perf_counter()
    partitioned_run = evaluate_store_partitioned(
        store_path, strategy, workers=_PARTITION_WORKERS
    )
    partitioned_seconds = perf_counter() - t0

    serial_rate = n_pairs / serial_seconds if serial_seconds else float("inf")
    partitioned_rate = (
        n_pairs / partitioned_seconds if partitioned_seconds else float("inf")
    )
    speedup = serial_seconds / partitioned_seconds if partitioned_seconds else float("inf")
    identical = partitioned_run == serial_run
    cpus = os.cpu_count() or 1
    gate_speedup = not quick and cpus >= _PARTITION_WORKERS
    speedup_ok = not gate_speedup or speedup >= _PARTITION_SPEEDUP
    return {
        "workers": _PARTITION_WORKERS,
        "strategy": "sliding",
        "host_cpus": cpus,
        "serial_seconds": serial_seconds,
        "serial_pairs_per_sec": serial_rate,
        "partitioned_seconds": partitioned_seconds,
        "partitioned_pairs_per_sec": partitioned_rate,
        "speedup": speedup,
        "speedup_required": _PARTITION_SPEEDUP if gate_speedup else None,
        "identical": identical,
        "ok": identical and speedup_ok,
    }


def _check_rewrite(store_path: str, copy_path: str) -> dict:
    """The store re-written block by block through ``append_block``: every
    store has one layout, so the copy must be byte-identical."""
    from repro.trace.store import TraceStoreReader, TraceStoreWriter

    t0 = perf_counter()
    with TraceStoreReader(store_path) as reader:
        with TraceStoreWriter(copy_path, block_size=reader.block_size) as writer:
            for block in reader.iter_blocks():
                writer.append_block(block)
    rewrite_seconds = perf_counter() - t0
    with open(store_path, "rb") as original, open(copy_path, "rb") as copy:
        identical = original.read() == copy.read()
    return {
        "bytes": os.path.getsize(store_path),
        "rewrite_seconds": rewrite_seconds,
        "identical": identical,
    }


def _eval_store_child(store_path: str, conn) -> None:
    """Spawn target: stream-evaluate one store, report own peak RSS."""
    from benchmarks._emit import peak_rss
    from repro.trace.store import TraceStoreReader

    reader = TraceStoreReader(store_path)
    strategy = _make_strategy("sliding")
    t0 = perf_counter()
    run = strategy.run(reader.iter_blocks())
    seconds = perf_counter() - t0
    conn.send(
        {
            "n_pairs": reader.n_pairs,
            "n_blocks": reader.n_blocks,
            "n_trials": run.n_trials,
            "avg_coverage": run.average_coverage,
            "avg_success": run.average_success,
            "eval_seconds": seconds,
            "eval_pairs_per_sec": reader.n_pairs / seconds if seconds else float("inf"),
            "peak_rss_bytes": peak_rss(),
        }
    )
    conn.close()


def _eval_in_subprocess(store_path: str) -> dict:
    """Run the streaming evaluation in a fresh spawn process.

    A fresh process owns its RSS high-water mark — measuring in the
    parent would report whatever earlier phase (trace generation, the
    identity check) peaked at.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_eval_store_child, args=(store_path, child_conn))
    proc.start()
    child_conn.close()
    try:
        payload = parent_conn.recv()
    finally:
        proc.join()
        parent_conn.close()
    if proc.exitcode != 0:
        raise RuntimeError(f"evaluation subprocess exited {proc.exitcode}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_trace_scale",
        description="out-of-core trace store scale gate",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=1_000_000,
        help="base trace size in pairs (default: 1,000,000)",
    )
    parser.add_argument(
        "--growth",
        type=int,
        default=10,
        help="large store is this many times the base (default: 10)",
    )
    parser.add_argument(
        "--block-size", type=int, default=10_000, help="pairs per block"
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=50_000,
        help="pairs generated per writer append (default: 50,000)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="100k-pair base trace (CI smoke)",
    )
    args = parser.parse_args(argv)

    from benchmarks._emit import emit_bench_json, peak_rss

    base_pairs = 100_000 if args.quick else args.pairs
    if args.growth < 2:
        parser.error("--growth must be >= 2")

    with tempfile.TemporaryDirectory(prefix="trace_scale_") as tmp:
        small_path = os.path.join(tmp, "base.rptrace")
        large_path = os.path.join(tmp, "grown.rptrace")

        print(
            f"writing stores: base {base_pairs:,} pairs, "
            f"grown {base_pairs * args.growth:,} pairs ..."
        )
        write = _write_stores(
            small_path,
            large_path,
            base_pairs=base_pairs,
            growth=args.growth,
            block_size=args.block_size,
            chunk_size=args.chunk_size,
            seed=args.seed,
        )
        print(
            f"  generate {write['generate_seconds']:.2f}s "
            f"({write['generate_pairs_per_sec']:,.0f} pairs/sec), "
            f"write {write['write_seconds']:.2f}s "
            f"({write['write_pairs_per_sec']:,.0f} pairs/sec, "
            f"{write['large_bytes'] / 1e6:.1f} MB on disk)"
        )

        print("bit-identity: store-streamed vs in-memory strategy runs ...")
        identity = _check_bit_identity(small_path)
        print(
            "  identical"
            if identity["identical"]
            else f"  MISMATCH in {', '.join(identity['mismatched_strategies'])}"
        )

        print(
            f"partitioned evaluation ({_PARTITION_WORKERS} workers, "
            "merged vs serial) ..."
        )
        partitioned = _check_partitioned(small_path, quick=args.quick)
        print(
            f"  serial {partitioned['serial_pairs_per_sec']:,.0f} pairs/sec, "
            f"partitioned {partitioned['partitioned_pairs_per_sec']:,.0f} pairs/sec "
            f"({partitioned['speedup']:.2f}x), "
            + (
                "merged run bit-identical"
                if partitioned["identical"]
                else "MISMATCH vs serial"
            )
        )
        if not partitioned["ok"]:
            print(
                "  FAILED — "
                + (
                    "merged run differs from serial"
                    if not partitioned["identical"]
                    else f"speedup below {_PARTITION_SPEEDUP:.1f}x"
                )
            )

        print("store re-written block by block ...")
        rewrite = _check_rewrite(small_path, os.path.join(tmp, "base-copy.rptrace"))
        print(
            f"  {rewrite['bytes'] / 1e6:.1f} MB in {rewrite['rewrite_seconds']:.2f}s, "
            + ("byte-identical" if rewrite["identical"] else "MISMATCH")
        )

        print("streaming evaluation RSS (spawn subprocesses) ...")
        eval_small = _eval_in_subprocess(small_path)
        eval_large = _eval_in_subprocess(large_path)
        block_bytes = 3 * args.block_size * 8  # sources + repliers + packed
        rss_allowance = max(_RSS_FLOOR_BYTES, 64 * block_bytes)
        rss_delta = eval_large["peak_rss_bytes"] - eval_small["peak_rss_bytes"]
        rss_ok = rss_delta <= rss_allowance
        print(
            f"  base:  {eval_small['peak_rss_bytes'] / 1e6:.1f} MB peak RSS, "
            f"{eval_small['eval_pairs_per_sec']:,.0f} pairs/sec mined+tested"
        )
        print(
            f"  grown: {eval_large['peak_rss_bytes'] / 1e6:.1f} MB peak RSS, "
            f"{eval_large['eval_pairs_per_sec']:,.0f} pairs/sec mined+tested"
        )
        print(
            f"  delta {rss_delta / 1e6:+.1f} MB over a {args.growth}x trace "
            f"(allowance {rss_allowance / 1e6:.0f} MB): "
            + ("OK" if rss_ok else "FAILED — evaluation memory scales with trace")
        )

        payload = {
            "quick": args.quick,
            "seed": args.seed,
            "block_size": args.block_size,
            "chunk_size": args.chunk_size,
            "growth": args.growth,
            "write": write,
            "bit_identity": identity,
            "partitioned": partitioned,
            "partitioned_pairs_per_sec": partitioned["partitioned_pairs_per_sec"],
            "rewrite": rewrite,
            "eval_base": eval_small,
            "eval_grown": eval_large,
            "rss_delta_bytes": rss_delta,
            "rss_allowance_bytes": rss_allowance,
            "rss_bounded": rss_ok,
            "parent_peak_rss_bytes": peak_rss(),
        }
        path = emit_bench_json("trace_scale", payload)
        print(f"bench json written: {path}")

    ok = (
        identity["identical"]
        and rss_ok
        and partitioned["ok"]
        and rewrite["identical"]
    )
    if not ok:
        print("GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
