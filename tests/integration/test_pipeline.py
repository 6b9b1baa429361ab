"""End-to-end test of the paper's import pipeline.

trace generator (full-fidelity events) -> column logs -> GUID dedup ->
query/reply join -> block partitioning -> strategy evaluation.
"""

import numpy as np
import pytest

from repro.core.strategies import SlidingWindow
from repro.trace.blocks import partition_pairs
from repro.trace.capture import (
    QueryLog,
    ReplyLog,
    dedup_queries,
    dedup_replies,
    join_pairs,
)
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator


@pytest.fixture(scope="module")
def pipeline_logs():
    cfg = MonitorTraceConfig(
        block_size=400,
        n_neighbors=20,
        median_session_blocks=10.0,
        n_categories=24,
        duplicate_guid_rate=0.01,
    )
    gen = MonitorTraceGenerator(cfg, seed=99)
    n_pairs = 2400
    events = list(gen.iter_events(n_pairs))
    queries = QueryLog.from_records(query for query, _ in events)
    replies = ReplyLog.from_records(reply for _, reply in events if reply is not None)
    return cfg, queries, replies, gen


class TestPipeline:
    def test_raw_tables_populated(self, pipeline_logs):
        _cfg, queries, replies, _gen = pipeline_logs
        assert len(queries) > len(replies)
        assert len(replies) == 2400

    def test_dedup_removes_buggy_guids(self, pipeline_logs):
        _cfg, queries, _replies, gen = pipeline_logs
        deduped = dedup_queries(queries)
        assert len(deduped) < len(queries)
        assert len(deduped) == len({q.guid for q in queries.records()})
        assert gen.guid_allocator.duplicate_count > 0

    def test_join_produces_pairs(self, pipeline_logs):
        _cfg, queries, replies, _gen = pipeline_logs
        queries = dedup_queries(queries)
        replies = dedup_replies(replies)
        pairs = join_pairs(queries, replies)
        # Every reply whose (deduped) GUID has a surviving query forms a pair.
        assert 0 < len(pairs) <= len(replies)
        # Pair integrity: reply times trail query times.
        assert np.all(pairs.reply_time >= pairs.query_time)

    def test_blocks_and_strategy(self, pipeline_logs):
        cfg, queries, replies, _gen = pipeline_logs
        pairs = join_pairs(dedup_queries(queries), dedup_replies(replies))
        blocks = partition_pairs(pairs, block_size=cfg.block_size)
        assert len(blocks) >= 4
        run = SlidingWindow(min_support_count=3).run(blocks)
        assert 0.0 <= run.average_coverage <= 1.0
        assert 0.0 <= run.average_success <= 1.0
        # With a live generator trace, some rule routing must work.
        assert run.average_coverage > 0.2
