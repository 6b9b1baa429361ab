"""Durability micro-benchmarks: WAL append, checkpoint, and recovery.

Not a paper artifact — these benches size the cost of making rule state
durable (``docs/persistence.md``): how fast pairs journal at each fsync
policy, how long a checkpoint (snapshot + rotate + compact) takes, and
how long a crashed servent spends in recovery before serving again.

Run directly (``python -m benchmarks.bench_persist``) this module times
checkpoint and recovery latency across state sizes and emits
``BENCH_persist.json`` via :func:`benchmarks._emit.emit_bench_json`.
"""

import argparse
import os
import shutil
import tempfile
from time import perf_counter

import pytest

from repro.core.streaming import StreamingRules
from repro.persist.state import PersistentState
from repro.persist.wal import WalWriter, read_wal

from benchmarks._emit import emit_bench_json


def make_pairs(n: int) -> list[tuple[int, int]]:
    # 40 sources x 8 repliers: dense enough that rules actually form.
    return [(i % 40, (i * 7) % 8) for i in range(n)]


def populated_state(root: str, pairs, *, fsync: str = "never"):
    state = PersistentState(os.path.join(root, "node"), fsync=fsync)
    counts, _ = state.recover(StreamingRules(min_support_count=2, window_pairs=4096))
    for source, replier in pairs:
        counts.observe(source, replier)
        state.record_pair(source, replier)
    return state, counts


# -- pytest-benchmark entry points ----------------------------------------


@pytest.fixture()
def state_dir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("fsync", ["never", "interval"])
def test_wal_append_throughput(benchmark, state_dir, fsync):
    writer = WalWriter(os.path.join(state_dir, f"{fsync}.wal"), fsync=fsync)
    pairs = make_pairs(2000)

    def append_all():
        for source, replier in pairs:
            writer.append(source, replier)

    benchmark.extra_info["pairs"] = len(pairs)
    benchmark(append_all)
    writer.close()
    assert writer.records >= len(pairs)


def test_checkpoint_latency(benchmark, state_dir):
    state, counts = populated_state(state_dir, make_pairs(10_000))
    benchmark.extra_info["pairs"] = 10_000
    header = benchmark(state.checkpoint, counts)
    state.close()
    assert header["n_rules"] > 0


def test_recovery_latency(benchmark, state_dir):
    state, counts = populated_state(state_dir, make_pairs(10_000))
    state.checkpoint(counts)
    state.close()
    rules = StreamingRules(min_support_count=2, window_pairs=4096)

    def recover():
        twin = PersistentState(state.state_dir, fsync="never")
        counts2, info = twin.recover(rules)
        twin.close()
        return info

    info = benchmark(recover)
    assert info.restored and info.n_rules == counts.n_rules()


# -- direct gate: python -m benchmarks.bench_persist ----------------------


def _time_scale(n_pairs: int, fsync: str) -> dict:
    root = tempfile.mkdtemp(prefix="bench-persist-")
    try:
        pairs = make_pairs(n_pairs)
        t0 = perf_counter()
        state, counts = populated_state(root, pairs, fsync=fsync)
        journal_seconds = perf_counter() - t0

        t0 = perf_counter()
        state.checkpoint(counts)
        checkpoint_seconds = perf_counter() - t0

        # leave a WAL tail so recovery exercises both paths
        tail = make_pairs(n_pairs // 10)
        for source, replier in tail:
            counts.observe(source, replier)
            state.record_pair(source, replier)
        state.close()

        t0 = perf_counter()
        twin = PersistentState(state.state_dir, fsync="never")
        _counts, info = twin.recover(
            StreamingRules(min_support_count=2, window_pairs=4096)
        )
        twin.close()
        recovery_seconds = perf_counter() - t0

        segment = read_wal(
            os.path.join(state.state_dir, sorted(
                f for f in os.listdir(state.state_dir) if f.endswith(".wal")
            )[0])
        )
        return {
            "pairs": n_pairs,
            "fsync": fsync,
            "journal_seconds": journal_seconds,
            "journal_pairs_per_second": n_pairs / journal_seconds,
            "checkpoint_seconds": checkpoint_seconds,
            "recovery_seconds": recovery_seconds,
            "recovered_rules": info.n_rules,
            "wal_tail_records": len(segment.pairs),
            "records_replayed": info.records_replayed,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time checkpoint + recovery latency; emit BENCH_persist.json"
    )
    parser.add_argument(
        "--sizes",
        default="1000,10000,50000",
        help="comma-separated journal sizes in pairs",
    )
    parser.add_argument(
        "--fsync",
        default="never",
        choices=["always", "interval", "never"],
        help="fsync policy while journaling (default: never, pure CPU cost)",
    )
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]

    results = [_time_scale(n, args.fsync) for n in sizes]
    print(f"{'pairs':>8} {'journal/s':>12} {'checkpoint':>11} {'recovery':>10} {'rules':>6}")
    for row in results:
        print(
            f"{row['pairs']:>8} {row['journal_pairs_per_second']:>12.0f}"
            f" {row['checkpoint_seconds'] * 1e3:>9.2f}ms"
            f" {row['recovery_seconds'] * 1e3:>8.2f}ms"
            f" {row['recovered_rules']:>6}"
        )
    path = emit_bench_json("persist", {"fsync": args.fsync, "scales": results})
    print(f"wrote {path}")
    # sanity gates, not perf assertions: every run must recover state
    for row in results:
        if row["recovered_rules"] <= 0 or row["records_replayed"] <= 0:
            print("FAIL: a scale recovered no state")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
