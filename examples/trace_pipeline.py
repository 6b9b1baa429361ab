#!/usr/bin/env python
"""The paper's full data pipeline, end to end.

Replays §IV of the paper at small scale: capture query/reply records at a
monitor node (with unreplied queries and buggy duplicate GUIDs), hold
them as column logs, deduplicate by GUID keeping the first
record, join queries with replies into query–reply pairs, partition into
blocks, and drive the Sliding Window simulator — printing the counts the
paper reports at each stage (their trace: 10,514,090 queries, 3,254,274
replies, 3,254,274 pairs).

Run:  python examples/trace_pipeline.py [n_pairs]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.core.strategies import SlidingWindow
from repro.trace.blocks import partition_pairs
from repro.trace.capture import (
    QueryLog,
    ReplyLog,
    dedup_queries,
    dedup_replies,
    join_pairs,
)
from repro.trace.io import read_queries, write_queries
from repro.trace.records import render_ip
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator


def main() -> None:
    n_pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    config = MonitorTraceConfig(
        block_size=2_000,
        n_neighbors=60,
        duplicate_guid_rate=0.005,
    )
    generator = MonitorTraceGenerator(config, seed=1)

    print(f"1. capturing trace at the monitor node ({n_pairs:,} replied queries)...")
    t0 = time.time()
    events = list(generator.iter_events(n_pairs))
    queries = QueryLog.from_records(query for query, _ in events)
    replies = ReplyLog.from_records(
        reply for _, reply in events if reply is not None
    )
    print(
        f"   captured {len(queries):,} query and {len(replies):,} reply "
        f"records in {time.time() - t0:.1f}s"
    )
    sample = events[0][0]
    print(
        f"   sample query: t={sample.time:.2f}s guid={sample.guid:x} "
        f"from {render_ip(sample.source)} \"{sample.query_string}\""
    )

    print("\n2. persisting and re-reading the raw query trace (I/O roundtrip)...")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.tsv"
        write_queries(path, queries.records())
        reread = read_queries(path)
        assert len(reread) == len(queries)
        print(f"   {path.stat().st_size / 1e6:.1f} MB on disk, {len(reread):,} rows back")

    print("\n3. removing duplicate GUIDs (keep first, as the paper did)...")
    clean_queries = dedup_queries(queries)
    clean_replies = dedup_replies(replies)
    dupes = len(queries) - len(clean_queries)
    print(f"   dropped {dupes} duplicate-GUID query records (buggy clients)")

    print("\n4. joining queries with replies on GUID...")
    t0 = time.time()
    pairs = join_pairs(clean_queries, clean_replies)
    print(f"   {len(pairs):,} query-reply pairs in {time.time() - t0:.1f}s")

    print(f"\n5. partitioning into blocks of {config.block_size:,} pairs...")
    blocks = partition_pairs(pairs, block_size=config.block_size)
    print(f"   {len(blocks)} full blocks")

    print("\n6. running the Sliding Window rule simulator...")
    run = SlidingWindow(min_support_count=5).run(blocks)
    print(f"   {'trial':>5} {'coverage':>9} {'success':>9} {'rules':>7}")
    for trial in run.trials:
        print(
            f"   {trial.block_index:>5} {trial.coverage:>9.3f} "
            f"{trial.success:>9.3f} {trial.ruleset_size:>7}"
        )
    print(
        f"\n   averages: coverage={run.average_coverage:.3f} "
        f"success={run.average_success:.3f}"
    )


if __name__ == "__main__":
    main()
