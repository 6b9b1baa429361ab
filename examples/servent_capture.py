#!/usr/bin/env python
"""Wire-level trace capture: the paper's "modified node", end to end.

Builds a tiny Gnutella network of byte-talking servents with one
:class:`MonitorServent` in the middle (the paper's §IV capture node),
drives keyword queries through it, and feeds the captured records into
the exact §IV pipeline: column logs → GUID dedup → query/reply join →
query-reply pairs → association rules.

The captured records are saved as a pair of TSV trace files and read
back before mining — the same "import the trace into a database, then run
the simulator against it" split the paper describes.

Run:  python examples/servent_capture.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.generation import generate_ruleset
from repro.network.servent import MonitorServent, Servent, SharedFile
from repro.trace.blocks import partition_pairs
from repro.trace.capture import dedup_queries, dedup_replies, join_pairs
from repro.trace.io import read_queries, read_replies, write_queries, write_replies

TOPICS = {
    "jazz": ["classic jazz session.mp3", "late night jazz.mp3"],
    "tundra": ["tundra field recording.ogg"],
    "mesa": ["mesa live set.flac", "mesa studio takes.flac"],
}


def pump(servents, frames, sender):
    queue = [(sender, conn, frame) for conn, frame in frames]
    delivered = 0
    while queue:
        src, dst, frame = queue.pop(0)
        delivered += 1
        for conn, out in servents[dst].handle_frame(src, frame):
            queue.append((dst, conn, out))
    return delivered


def main() -> None:
    rng = np.random.default_rng(5)
    # Star around the monitor: leaf servents 0,2,3,4 each hold one topic.
    topic_names = list(TOPICS)
    servents = {}
    monitor = MonitorServent(9000)
    servents[1] = monitor
    leaf_ids = [0, 2, 3, 4]
    for idx, leaf in enumerate(leaf_ids):
        topic = topic_names[idx % len(topic_names)]
        library = [
            SharedFile(i, name, 1 << 20)
            for i, name in enumerate(TOPICS[topic])
        ]
        servents[leaf] = Servent(9000 + leaf + 1, library=library)
        servents[leaf].connect(1)
        monitor.connect(leaf)

    print("network: 4 leaf servents around 1 monitor servent (wire protocol)\n")
    total_frames = 0
    n_queries = 120
    for q in range(n_queries):
        origin = leaf_ids[int(rng.integers(0, len(leaf_ids)))]
        topic = topic_names[int(rng.integers(0, len(topic_names)))]
        monitor.clock.advance_by(1.0)
        _guid, frames = servents[origin].issue_query(topic)
        total_frames += pump(servents, frames, origin)

    print(f"{n_queries} queries issued; {total_frames} wire frames exchanged")
    print(
        f"monitor captured {len(monitor.query_log)} query records and "
        f"{len(monitor.reply_log)} reply records\n"
    )

    # Persist the capture and mine from the re-imported copy, like the
    # paper's trace-to-database import step.
    with tempfile.TemporaryDirectory(prefix="capture-") as tmp:
        query_path, reply_path = Path(tmp) / "queries.tsv", Path(tmp) / "replies.tsv"
        rows = write_queries(query_path, monitor.query_log)
        rows += write_replies(reply_path, monitor.reply_log)
        queries, replies = read_queries(query_path), read_replies(reply_path)
        print(f"saved capture trace files ({rows} rows) to {tmp} and re-imported them")

    pairs = join_pairs(dedup_queries(queries), dedup_replies(replies))
    print(f"pipeline: {len(pairs)} query-reply pairs after dedup + join")

    blocks = partition_pairs(pairs, block_size=len(pairs), drop_partial=False)
    ruleset = generate_ruleset(blocks[0], min_support_count=3)
    print(f"mined {len(ruleset)} routing rules from the capture:")
    for rule in ruleset:
        print(f"  queries from connection {rule.antecedent} -> forward to "
              f"connection {rule.consequent} (support {rule.count})")


if __name__ == "__main__":
    main()
