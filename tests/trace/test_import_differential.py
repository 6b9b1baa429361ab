"""The array import against the relational import, pair for pair.

``reference_import`` is the paper's MySQL method over
``tests.store.relational`` (row tables, first-GUID copy, ``HashIndex``
equi-join); ``repro.trace.capture`` + ``partition_pairs`` are the three
array passes that replaced it under ``src/``.  Every test below feeds both
the same records and requires the same pairs in every column and the same
fingerprint for every block.

Mutation check (each mutant was applied to ``capture.py`` and this file
run; the tests named are the ones that failed, ``[..]`` a listed case):

* keep the last row per GUID instead of the first (``np.unique`` over the
  reversed column) — ``test_dedup_alone``, ``test_generated_capture`` at
  0.01 and 0.3, ``test_random_logs``, and with dedup ``[every row one
  guid]``, ``[many to many]``, ``[guids differ only in the high word]``;
* drop the high GUID word (dedup and join on ``guid["lo"]``) — ``[guids
  differ only in the high word]`` and ``[no guid in common]`` both ways,
  ``test_dedup_alone``, ``test_many_replies_per_guid_keep_arrival_order``,
  ``test_random_logs``;
* an unstable sort in the join (``np.argsort`` without ``kind="stable"``)
  — ``test_many_replies_per_guid_keep_arrival_order``,
  ``test_generated_capture`` at 0.01 and 0.3, ``test_random_logs``;
* the reply side driving the join (pairs re-sorted into reply-arrival
  order) — ``[reply before its query]``, ``[many to many]`` and ``[guids
  differ only in the high word]`` both ways, ``[every row one guid]``
  without dedup, ``test_generated_capture`` at 0.01 and 0.3,
  ``test_many_replies_per_guid_keep_arrival_order``, ``test_random_logs``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.blocks import partition_pairs
from repro.trace.capture import (
    QueryLog,
    ReplyLog,
    dedup_queries,
    dedup_replies,
    join_pairs,
)
from repro.trace.records import QueryRecord, ReplyRecord
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

from . import reference_import as reference

H = 1 << 64
TOP = 1 << 127
#: ids that collide in the low word, in the high word, or in neither.
IDS = [0, 1, 5, H, H + 5, 2 * H + 5, TOP, TOP + 5, (1 << 128) - 1]


def array_import(queries, replies, *, dedup=True):
    queries = QueryLog.from_records(queries)
    replies = ReplyLog.from_records(replies)
    if dedup:
        queries, replies = dedup_queries(queries), dedup_replies(replies)
    return join_pairs(queries, replies)


def assert_same_import(queries, replies, *, dedup=True, block_sizes=(1, 3)):
    expected = reference.reference_import(queries, replies, dedup=dedup)
    pairs = array_import(queries, replies, dedup=dedup)
    assert pairs.records() == expected
    for block_size in (*block_sizes, len(expected) + 1):
        for drop_partial in (True, False):
            got = partition_pairs(
                pairs, block_size=block_size, drop_partial=drop_partial
            )
            want = reference.reference_blocks(
                expected, block_size=block_size, drop_partial=drop_partial
            )
            assert [(b.index, len(b), b.fingerprint()) for b in got] == [
                (b.index, len(b), b.fingerprint()) for b in want
            ]
    return expected


def Q(time, guid, source=0, text="q"):
    return QueryRecord(float(time), guid, source, text)


def R(time, guid, replier=0, host=0, name="f"):
    return ReplyRecord(float(time), guid, replier, host, name)


LISTED = {
    "both logs empty": ([], []),
    "queries with no replies": ([Q(1, 5, 1), Q(2, 6, 2)], []),
    "replies with no query": ([], [R(1, 5, 1), R(2, 6, 2)]),
    "no guid in common": ([Q(1, 5), Q(2, H + 5)], [R(1, TOP + 5), R(2, 6)]),
    "every row one guid": (
        [Q(i, 7, i, f"q{i}") for i in range(6)],
        [R(i, 7, 10 + i, 100 + i, f"f{i}") for i in range(5)],
    ),
    "reply before its query": (
        [Q(5, 1, 1, "late"), Q(6, 2, 2, "later")],
        [R(0.5, 2, 12, 102), R(1, 1, 11, 101)],
    ),
    "many to many": (
        [Q(1, 1, 1, "a"), Q(2, 2, 2, "b"), Q(3, 1, 3, "a again"), Q(4, 9, 4, "none")],
        [
            R(1.5, 2, 20, 200),
            R(1.6, 1, 10, 100),
            R(1.7, 8, 80, 800),
            R(1.8, 1, 11, 101),
            R(1.9, 2, 21, 201),
            R(2.0, 1, 12, 102),
        ],
    ),
    "guids differ only in the high word": (
        [Q(1, 5, 1, "low"), Q(2, H + 5, 2, "hi"), Q(3, TOP + 5, 3, "top"), Q(4, 5, 4)],
        [R(1, TOP + 5, 13), R(2, H + 5, 12), R(3, 5, 11), R(4, 2 * H + 5, 14)],
    ),
    "hosts differ only in the high word": (
        [Q(1, 1, 1), Q(2, 2, 2), Q(3, 3, 3)],
        [R(1, 1, 11, 5), R(2, 2, 12, H + 5), R(3, 3, 13, TOP + 5)],
    ),
}


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "raw"])
@pytest.mark.parametrize("case", LISTED, ids=list(LISTED))
def test_listed_case(case, dedup):
    queries, replies = LISTED[case]
    assert_same_import(queries, replies, dedup=dedup)


def test_listed_cases_are_not_vacuous():
    """The named shapes produce the pair counts their names promise."""
    counts = {
        case: (
            len(reference.reference_import(*logs)),
            len(reference.reference_import(*logs, dedup=False)),
        )
        for case, logs in LISTED.items()
    }
    assert counts == {
        "both logs empty": (0, 0),
        "queries with no replies": (0, 0),
        "replies with no query": (0, 0),
        "no guid in common": (0, 0),
        "every row one guid": (1, 30),
        "reply before its query": (2, 2),
        "many to many": (2, 8),
        "guids differ only in the high word": (3, 4),
        "hosts differ only in the high word": (3, 3),
    }
    pairs = reference.reference_import(*LISTED["hosts differ only in the high word"])
    assert [p.host for p in pairs] == [5, H + 5, TOP + 5]


@pytest.mark.parametrize("rate", [0.0, 0.01, 0.3])
def test_generated_capture(rate):
    cfg = MonitorTraceConfig(
        block_size=100, n_neighbors=12, n_categories=12, duplicate_guid_rate=rate
    )
    gen = MonitorTraceGenerator(cfg, seed=int(rate * 100) + 3)
    events = list(gen.iter_events(700))
    queries = [query for query, _ in events]
    replies = [reply for _, reply in events if reply is not None]
    assert (gen.guid_allocator.duplicate_count > 0) == (rate > 0)
    pairs = assert_same_import(queries, replies, block_sizes=(1, cfg.block_size))
    assert 0 < len(pairs) <= 700
    assert_same_import(queries, replies, dedup=False, block_sizes=(cfg.block_size,))


def test_dedup_alone():
    """The kept rows themselves, not only the ones that later find a pair."""
    queries = [Q(i, IDS[i % 4], i, f"q{i}") for i in range(11)]
    replies = [R(i, IDS[(3 * i) % 5], i, IDS[i % 9], f"f{i}") for i in range(13)]
    got = dedup_queries(QueryLog.from_records(queries)).records()
    want = reference.dedup_queries(reference.query_table(queries))
    assert [rec.as_row() for rec in got] == list(want.iter_rows())
    got = dedup_replies(ReplyLog.from_records(replies)).records()
    want = reference.dedup_replies(reference.reply_table(replies))
    assert [rec.as_row() for rec in got] == list(want.iter_rows())


def test_many_replies_per_guid_keep_arrival_order():
    """Enough replies per GUID that an unstable sort would reorder them."""
    rng = np.random.default_rng(0)
    queries = [Q(i, IDS[i % 5], i, f"q{i}") for i in range(10)]
    replies = [
        R(i, IDS[int(g)], 100 + i, IDS[int(g)], f"f{i}")
        for i, g in enumerate(rng.integers(0, 6, size=3000))
    ]
    assert_same_import(queries, replies, dedup=False, block_sizes=(1000,))


ids = st.sampled_from(IDS)
small = st.integers(0, 3)
query_logs = st.lists(
    st.builds(Q, small, ids, small, st.sampled_from("ab")), max_size=9
)
reply_logs = st.lists(
    st.builds(R, small, ids, small, ids, st.sampled_from("xy")), max_size=9
)


@settings(max_examples=150, deadline=None)
@given(query_logs, reply_logs, st.booleans())
def test_random_logs(queries, replies, dedup):
    assert_same_import(queries, replies, dedup=dedup, block_sizes=(1, 2))
