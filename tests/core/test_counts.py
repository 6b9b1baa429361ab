"""Conformance suite for repro.core.counts: both backends, one method set.

Every read of :class:`WindowCounts` and :class:`SketchCounts` is kept
current inside ``observe`` (totals, qualified counts, ``n_rules``) or
memoised per antecedent (``consequents``).  The oracle here keeps nothing:
it holds the event history and recounts it from scratch for every
question — the last ``window`` events for the window, a flat-dict
Manku–Motwani replay for the sketch — so any figure that drifts from the
events it summarises shows up as a mismatch.
"""

import gc
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counts import SketchCounts, WindowCounts
from repro.core.streaming import StreamingRules
from repro.trace.blocks import blocks_from_arrays
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

ANTECEDENTS = range(3)
CONSEQUENTS = range(3)


class WindowOracle:
    """Pair counts of the last ``window`` events, recounted on demand."""

    def __init__(self, window, floor):
        self.window, self.floor = window, floor
        self.history = []

    def make(self):
        return WindowCounts(self.window, self.floor)

    def table(self, history=None):
        history = self.history if history is None else history
        counts = {}
        for pair in history[-self.window :]:
            counts[pair] = counts.get(pair, 0) + 1
        return counts


class SketchOracle:
    """Lossy counting over one flat ``pair -> (count, delta)`` dict,
    replayed from the first event on demand."""

    def __init__(self, epsilon, floor):
        self.epsilon, self.floor = epsilon, floor
        self.width = math.ceil(1.0 / epsilon)
        self.history = []

    def make(self):
        return SketchCounts(self.epsilon, self.floor)

    def table(self, history=None):
        history = self.history if history is None else history
        entries = {}
        bucket = 1
        for n_seen, pair in enumerate(history, start=1):
            count, delta = entries.get(pair, (0, bucket - 1))
            entries[pair] = (count + 1, delta)
            if n_seen % self.width == 0:
                entries = {
                    p: (n, d) for p, (n, d) in entries.items() if n + d > bucket
                }
                bucket += 1
        return {pair: count for pair, (count, _delta) in entries.items()}


def expected_observe(oracle, pair):
    """True when the event lifts the pair's count onto the floor.  For the
    window that is judged before the oldest event slides out; for the
    sketch after the compression the event may have triggered."""
    before = oracle.table().get(pair, 0)
    if isinstance(oracle, WindowOracle):
        return before + 1 == oracle.floor
    after = oracle.table(oracle.history + [pair]).get(pair, 0)
    return before < oracle.floor <= after


def check_every_read(counts, oracle):
    table = oracle.table()
    floor = oracle.floor
    rules = {pair: n for pair, n in table.items() if n >= floor}
    assert counts.n_rules() == len(rules)
    assert sorted(counts.antecedents()) == sorted({a for a, _c in rules})
    for a in ANTECEDENTS:
        ranked = [
            c for _n, c in sorted((-n, c) for (x, c), n in rules.items() if x == a)
        ]
        assert counts.covers(a) == bool(ranked)
        assert counts.consequents(a) == ranked
        for k in (1, 2, 5):
            assert counts.consequents(a, k) == ranked[:k]
        counts.consequents(a).append(-1)  # the caller's list, not the table's
        total = sum(n for (x, _c), n in table.items() if x == a)
        for c in CONSEQUENTS:
            support = table.get((a, c), 0)
            assert counts.matches(a, c) == (support >= floor)
            confidence = support / total if support else 0.0
            assert counts.rule_stats(a, c) == (support, confidence)


oracles = st.one_of(
    st.builds(WindowOracle, st.integers(1, 8), st.integers(1, 3)),
    # bucket widths 2-10: a 100-event stream compresses 10-50 times
    st.builds(SketchOracle, st.sampled_from([0.5, 0.34, 0.2, 0.1]), st.integers(1, 3)),
)
observes = st.tuples(
    st.just("observe"),
    st.sampled_from(ANTECEDENTS),
    st.sampled_from(CONSEQUENTS),
    st.booleans(),  # read everything back afterwards (which fills the memos)?
)
# one antecedent's batch of consequents, as a flood's repliers fold in:
# up to 12 pairs, past a bucket edge of every width drawn
batches = st.tuples(
    st.just("observe_all"),
    st.sampled_from(ANTECEDENTS),
    st.lists(st.sampled_from(CONSEQUENTS), max_size=12),
    st.booleans(),
)
# eight observes to one op that forgets something: the history has to grow
# long enough to slide, compress and leave a memo stale
others = st.sampled_from(["roundtrip", "roundtrip", "clear"]).map(lambda op: (op,))
ops = st.lists(st.one_of(*[observes] * 8, *[batches] * 2, others), max_size=100)


@settings(max_examples=500, deadline=None)
@given(oracles, ops)
def test_every_read_equals_a_recount_of_the_history(oracle, ops):
    counts = oracle.make()
    # fed pair by pair whatever ``counts`` is fed in a batch
    paired = oracle.make()
    for op, *args in ops:
        if op == "observe":
            *pair, look = args
            pair = tuple(pair)
            assert counts.observe(*pair) is expected_observe(oracle, pair)
            paired.observe(*pair)
            oracle.history.append(pair)
            if look:
                check_every_read(counts, oracle)
        elif op == "observe_all":
            a, cs, look = args
            assert counts.observe_all(a, iter(cs)) is None
            for c in cs:
                paired.observe(a, c)
                oracle.history.append((a, c))
            if look:
                check_every_read(counts, oracle)
        elif op == "clear":
            counts.clear()
            paired.clear()
            oracle.history.clear()
        else:
            state = counts.state()
            # plain data: it survives JSON, and the copy carries on alone
            counts = type(counts).from_state(json.loads(json.dumps(state)))
            assert counts.state() == state
        if isinstance(oracle, WindowOracle):
            # the window the state carries is the history's tail, pair by
            # pair and in order (kills a state that swaps a pair's halves
            # and an eviction that pops one object of its pair)
            window = oracle.history[-oracle.window :]
            assert counts.state()["window"] == window
        assert counts.state() == paired.state()
        assert counts.n_rules() == paired.n_rules()
    check_every_read(counts, oracle)


def test_a_batch_refolds_a_row_a_mid_batch_compression_dropped():
    """Width 2, floor 1: the second pair of ``observe_all(0, [1, 2, 3,
    1])`` ends bucket 1, whose compression drops both of row 0's pairs
    and the row itself; the third must start a new row, not count into
    the dropped one."""
    batched, paired = SketchCounts(0.5, 1), SketchCounts(0.5, 1)
    dropped = []
    compress = batched._compress

    def watching():
        row = batched.rows.get(0)
        compress()
        dropped.append(row is not None and 0 not in batched.rows)

    batched._compress = watching
    batched.observe_all(0, [1, 2, 3, 1])
    for c in [1, 2, 3, 1]:
        paired.observe(0, c)
    assert dropped == [True, True]
    assert batched.state() == paired.state()
    assert batched.n_rules() == paired.n_rules() == 0
    batched.observe_all(0, [3, 3, 3])
    for c in [3, 3, 3]:
        paired.observe(0, c)
    assert batched.state() == paired.state()
    assert batched.consequents(0) == paired.consequents(0) == [3]


def test_a_steady_state_observe_makes_no_tracked_object():
    """Rows in place and the window full: an observe moves counts and the
    window, and makes nothing the cyclic collector tracks.  A tuple per
    event would be one, pinned for a whole window."""
    counts = WindowCounts(4, 1)
    pairs = [(1, 10), (1, 11), (2, 10), (2, 11)]
    for a, c in pairs * 2:
        counts.observe(a, c)
    stream = pairs * 3
    gc.disable()
    try:
        # holding every tracked object keeps each one's id taken, so any
        # object the observes make has an id not seen here
        before = gc.get_objects()
        seen = set(map(id, before))
        for a, c in stream:
            counts.observe(a, c)
        after = gc.get_objects()
    finally:
        gc.enable()
    made = [o for o in after if id(o) not in seen and o is not before and o is not seen]
    assert made == []
    assert counts.state()["window"] == pairs


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["window", "sketch"]),
    st.integers(1, 40),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=150),
)
def test_a_kept_ranking_is_what_a_rank_would_give(backend, size, floor, events):
    """``observe`` keeps a row's ranking when the count it moves cannot
    reorder it.  Every row is ranked after every event, so each keep is
    checked against a fresh ranking at the next one."""
    if backend == "window":
        counts = WindowCounts(size, floor)
    else:
        counts = SketchCounts(1 / (size + 1), floor)
    for a, c in events:
        counts.observe(a, c)
        for row in counts.rows.values():
            kept = row.ranked
            fresh = counts.rank(row)
            assert kept is None or kept == fresh


def window_table(min_support_count):
    return WindowCounts(8, min_support_count)


def sketch_table(min_support_count):
    return SketchCounts(0.1, min_support_count)


@pytest.mark.parametrize("make", [window_table, sketch_table])
class TestContract:
    def test_k_below_one_raises(self, make):
        counts = make(1)
        counts.observe(1, 10)
        for k in (0, -1):
            with pytest.raises(ValueError):
                counts.consequents(1, k)
            with pytest.raises(ValueError):
                counts.consequents(99, k)  # even where there is nothing to cut

    def test_support_floor_is_validated(self, make):
        with pytest.raises(ValueError):
            make(0)

    def test_unknown_antecedent_is_empty_not_an_error(self, make):
        counts = make(2)
        assert counts.consequents(99) == []
        assert not counts.covers(99)
        assert not counts.matches(99, 1)
        assert counts.rule_stats(99, 1) == (0, 0.0)


def test_window_and_epsilon_are_validated():
    with pytest.raises(ValueError):
        WindowCounts(0, 2)
    for epsilon in (0.0, 1.0):
        with pytest.raises(ValueError):
            SketchCounts(epsilon, 2)


def test_a_rule_dropped_by_its_own_compression_is_not_announced():
    """Bucket width 2: the second event compresses.  (1, 10) reaches the
    floor of 1 on that event but count + delta = 1 <= bucket 1 drops it."""
    counts = SketchCounts(0.5, min_support_count=1)
    assert counts.observe(0, 0) is True
    assert counts.observe(1, 10) is False
    assert counts.n_rules() == 0 and len(counts) == 0


def test_compression_refreshes_the_ranking_of_a_row_it_only_thins():
    """Bucket width 5: the fifth event (on another antecedent) drops
    (0, 1) but keeps (0, 0), whose row had its ranking memoised."""
    counts = SketchCounts(0.2, min_support_count=1)
    for c in (0, 0, 0, 1):
        counts.observe(0, c)
    assert counts.consequents(0) == [0, 1]
    counts.observe(1, 1)
    assert counts.consequents(0) == [0]
    assert counts.rule_stats(0, 0) == (3, 1.0)


class TestStreamingGolden:
    """``StreamingRules.run`` on a default-config 300k-pair trace.  First
    digested at the commit before ``repro.core.counts`` replaced the two
    count classes it used to own, and re-recorded once, unchanged code
    on a new trace, when every pair's uniforms became one fixed record
    (``tracegen.TRACE_LAYOUT`` 2)."""

    DIGESTS = {
        "exact": "daff430e952f218b87b59afbdd9e1f56",
        "lossy": "b11cec0c5b7de3f00f93ae42ab2a0d02",
    }

    @pytest.fixture(scope="class")
    def blocks(self):
        arrays = MonitorTraceGenerator(
            MonitorTraceConfig(), seed=11
        ).generate_pair_arrays(300_000)
        return blocks_from_arrays(arrays.source, arrays.replier, block_size=10_000)

    @pytest.mark.parametrize("backend", ["exact", "lossy"])
    def test_trial_results_are_the_parents(self, blocks, backend):
        run = StreamingRules(backend=backend).run(blocks)
        digest = hashlib.blake2b(digest_size=16)
        for trial in run.trials:
            result = trial.result
            digest.update(
                repr(
                    (
                        trial.block_index,
                        result.n_total,
                        result.n_covered,
                        result.n_successful,
                        trial.fresh_ruleset,
                        trial.ruleset_size,
                    )
                ).encode()
            )
        assert len(run.trials) == 29
        assert digest.hexdigest() == self.DIGESTS[backend]
