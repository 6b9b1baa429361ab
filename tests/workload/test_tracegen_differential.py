"""``generate_pair_arrays`` against the per-pair loop it replaced.

The array code must emit the oracle's bytes and leave the generator where
the oracle leaves it — the paper figures, the trace cache and every number
in EXPERIMENTS.md hang off these traces.  A golden digest pins the bytes
themselves, so that a change to oracle *and* array code cannot move the
reproduction unnoticed.

The oracle runs its own copies of the event helpers, so the twin tests
see a change to the generator's.  Three mutants of the generator were
run against them in a scratch copy, and each fails the twin tests, not
only the digests:

* "front": a departure's splice puts the newcomer's row first, not last
  (``test_identical_columns_and_state``, ``test_any_config_any_split``);
* "left": the anchor search takes ``side="left"``, so a draw that equals
  a running probability takes that row, not the one after it
  (``test_an_anchor_draw_on_a_step_of_the_cdf``);
* "no re-check": the due walk reassigns every pair that was due at the
  segment's start, not only those still due after the assignments before
  them (``test_identical_columns_and_state``,
  ``test_any_config_any_split``).

Every pair takes one fixed record of uniforms — [ephemeral test,]
source, category[, noise test, alternate index] — and three mutants of
``_pair_draws`` were run against it the same way.  Each fails the twin
tests (``test_identical_columns_and_state``,
``test_any_config_any_split``), not only the digests:

* "hit only": the alternate index is drawn only when the noise test hits,
  the layout before the record was fixed (also
  ``test_a_call_takes_one_record_per_pair``);
* "swapped": the noise-test and alternate-index columns trade places
  (``noise-1`` among the configs that fail);
* "short": the stride is one draw short (also
  ``test_a_call_takes_one_record_per_pair``, every config).
"""

import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import tracegen
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.workload.reference_tracegen import (
    PerPairLoop,
    reference_generate_pair_arrays,
)
from tests.workload.test_tracegen import SMALL

COLUMNS = ("time", "source", "replier", "category", "host")

CONFIGS = {
    "defaults": MonitorTraceConfig(),
    "small": SMALL,
    "noise-0": replace(SMALL, path_noise=0.0),
    "noise-1": replace(SMALL, path_noise=1.0),
    "ephemeral-0": replace(SMALL, ephemeral_rate=0.0),
    "ephemeral-1": replace(SMALL, ephemeral_rate=1.0),
    "two-neighbors-one-category": MonitorTraceConfig(
        n_neighbors=2, n_categories=1, interests_per_neighbor=1
    ),
    "fast-churn": MonitorTraceConfig(
        block_size=100, median_session_blocks=0.5, path_lifetime_blocks=0.3
    ),
    # nobody departs, so a sub-chunk is one segment, and the one category
    # comes due every ~20 pairs inside it
    "path-due-twice-in-a-segment": MonitorTraceConfig(
        block_size=1000,
        n_neighbors=4,
        permanent_fraction=1.0,
        n_categories=1,
        interests_per_neighbor=1,
        path_lifetime_blocks=0.02,
    ),
}

#: empty and one-pair calls, then sizes on both sides of the sub-chunk; in
#: total enough pairs (33k, at >= 3 draws each) to pass the uniform
#: buffer's 65,536-draw refill inside a call.
CALLS = (0, 1, tracegen._SUB_CHUNK - 1, 2, tracegen._SUB_CHUNK + 1, 17_000)


def assert_twins_agree(config, seed, calls):
    """Run ``calls`` through the oracle and the array code, side by side."""
    oracle = MonitorTraceGenerator(config, seed=seed)
    fast = MonitorTraceGenerator(config, seed=seed)
    for n in calls:
        want = reference_generate_pair_arrays(oracle, n)
        got = fast.generate_pair_arrays(n)
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(got, column), getattr(want, column), err_msg=column
            )
        assert fast.now == oracle.now
        assert fast.active_neighbor_ids == oracle.active_neighbor_ids
        assert fast._next_node_id == oracle._next_node_id
    # Both random streams and the path table stand where the oracle's do:
    # the full-fidelity path continues identically from here.
    assert list(fast.iter_events(50)) == list(oracle.iter_events(50))


class TestAgainstThePerPairLoop:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_identical_columns_and_state(self, name, seed):
        assert_twins_agree(CONFIGS[name], seed, CALLS)

    def test_a_category_comes_due_twice_in_one_segment(self, monkeypatch):
        """The premise of "path-due-twice-in-a-segment": one settle call
        reassigns one category more than once."""
        generator = MonitorTraceGenerator(CONFIGS["path-due-twice-in-a-segment"], seed=1)
        per_segment = []
        settle, assign = generator._settle_segment, generator._assign_path

        def count_settle(*args):
            per_segment.append([])
            settle(*args)

        def count_assign(category):
            per_segment[-1].append(category)
            return assign(category)

        monkeypatch.setattr(generator, "_settle_segment", count_settle)
        monkeypatch.setattr(generator, "_assign_path", count_assign)
        generator.generate_pair_arrays(2_000)
        assert len(per_segment) == 1
        assert per_segment[0].count(0) > 2

    def test_an_anchor_draw_on_a_step_of_the_cdf(self):
        """Catches "left": where the anchor draw equals a running
        probability, ``Generator.choice`` takes the row after that step.
        The draw is planted in both twins' streams, since a uniform double
        lands on a step by chance about once in 2**53 draws."""
        oracle = MonitorTraceGenerator(SMALL, seed=4)
        fast = MonitorTraceGenerator(SMALL, seed=4)
        reference_generate_pair_arrays(oracle, 3_000)
        fast.generate_pair_arrays(3_000)
        loop = PerPairLoop(oracle)
        planted = 0
        for category in range(SMALL.n_categories):
            cdf = loop.anchor_probabilities(category).cumsum()
            cdf /= cdf[-1]
            # in [0.5, 1) a double is a multiple of 2**-53, so random() can return it
            steps = cdf[:-1][(cdf[:-1] >= 0.5) & (cdf[:-1] < cdf[1:])]
            if not len(steps):
                continue
            for twin in (oracle, fast):
                next_random_is(twin._rng, float(steps[0]))
            assert fast._assign_path(category) == loop.assign_path(category).node_id
            planted += 1
        assert planted > SMALL.n_categories // 2
        np.testing.assert_array_equal(fast._path_anchor, oracle._path_anchor)
        np.testing.assert_array_equal(fast._path_expires, oracle._path_expires)

    def test_uniform_refill_is_crossed(self):
        """The premise of CALLS: even the leanest config above passes the
        65,536-draw refill."""
        leanest = min(record_length(cfg) for cfg in CONFIGS.values())
        assert sum(CALLS) * leanest > 65_536

    @pytest.mark.parametrize("name", CONFIGS)
    def test_a_call_takes_one_record_per_pair(self, name):
        """A call of ``n`` pairs advances the uniform stream by exactly
        ``n`` records: a twin that has only peeked shows the draw that
        must come next."""
        config = CONFIGS[name]
        stride = record_length(config)
        generator = MonitorTraceGenerator(config, seed=6)
        twin = MonitorTraceGenerator(config, seed=6)
        taken = 0
        for n in CALLS:
            generator.generate_pair_arrays(n)
            taken += n * stride
            expected = twin._uniforms.peek(taken + 1)[-1]
            assert generator._uniforms.peek(1)[0] == expected, n

    @given(
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.integers(0, 700), min_size=1, max_size=4),
        sub_chunk=st.sampled_from([1, 7, 64, 500]),
        path_noise=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        ephemeral_rate=st.sampled_from([0.0, 0.13, 0.9, 1.0]),
        anchor_age_exponent=st.sampled_from([0.5, 1.0, 2.0]),
        median_session_blocks=st.sampled_from([0.2, 8.0]),
        path_lifetime_blocks=st.sampled_from([0.1, 13.5]),
        interests_per_neighbor=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_config_any_split(self, seed, calls, sub_chunk, **knobs):
        """Whatever the knobs, the split into calls and the sub-chunk size
        (a memory bound, never a parameter of the trace)."""
        config = MonitorTraceConfig(
            block_size=200, n_neighbors=8, n_categories=12, **knobs
        )
        with mock.patch.object(tracegen, "_SUB_CHUNK", sub_chunk):
            assert_twins_agree(config, seed, calls)


def record_length(config) -> int:
    """Uniforms per pair: [ephemeral test,] source, category[, noise test,
    alternate index]."""
    return (config.ephemeral_rate > 0) + 2 + 2 * (config.path_noise > 0)


#: PCG64's multiplier, for planting a draw in a stream
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def next_random_is(rng: np.random.Generator, value: float) -> None:
    """Set ``rng``'s PCG64 state so that its next ``random()`` is ``value``.

    ``random()`` is the next 64-bit output shifted right by 11, times
    2**-53, and the output is the stepped state's high and low words,
    xored and rotated by its top six bits.  A stepped state of
    ``value * 2**64`` (high word zero) therefore outputs that; the state
    before it is found by undoing the step.
    """
    word = int(value * 2**53)
    if word / 2**53 != value:
        raise ValueError(f"{value!r} is not a multiple of 2**-53")
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = ((word << 11) - inc) * inverse % (1 << 128)
    rng.bit_generator.state = state


def _digest(config, seed, calls) -> str:
    generator = MonitorTraceGenerator(config, seed=seed)
    h = hashlib.blake2b(digest_size=16)
    for n in calls:
        arrays = generator.generate_pair_arrays(n)
        for column in COLUMNS:
            h.update(getattr(arrays, column).tobytes())
    return h.hexdigest()


def _events_digest(config, seed, n_pairs, n_events) -> str:
    """``iter_events(n_events)`` after ``generate_pair_arrays(n_pairs)``."""
    generator = MonitorTraceGenerator(config, seed=seed)
    generator.generate_pair_arrays(n_pairs)
    h = hashlib.blake2b(digest_size=16)
    for pair in generator.iter_events(n_events):
        h.update(repr(pair).encode())
    return h.hexdigest()


class TestGoldenDigests:
    """Recorded from the per-pair loop with numpy 2.4.6.  Should a numpy
    release ever change ``Generator`` streams, the differential tests above
    still hold and this is re-recorded from the oracle in its own
    commit.

    The oracle and the full-fidelity path share ``_add_neighbor``,
    ``_make_ephemeral_source`` and ``_host_behind`` with the array code,
    so a change to those moves both twins; these digests see it.  Every
    config with ``0 < path_noise < 1`` was recorded once a pair's record
    became fixed (layout 2 of ``tracegen.TRACE_LAYOUT``).  ``noise-0`` and
    ``noise-1`` were recorded at layout 1, whose records were already
    fixed for them, and pass unedited: the layout moved only the traces
    it meant to."""

    def test_calibrated_config(self):
        assert (
            _digest(MonitorTraceConfig(), 20060814, (50_000, 30_000))
            == "f72eed8705c0584bf0afc8a046d5c5e2"
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("noise-0", "ad22fa716ce7c93e1b177bcb177386c8"),
            ("noise-1", "d3ab956779318d6e60b6cacf5070e432"),
            ("ephemeral-1", "1a5a8a5094f5b039cfb2dd456a9122cb"),
            ("fast-churn", "e9f92ead137283c697681e6c339e0aab"),
            ("two-neighbors-one-category", "92fdaedf169dbb7cfe189a4d3021dbc9"),
        ],
    )
    def test_degenerate_config(self, name, digest):
        assert _digest(CONFIGS[name], 7, (20_000, 13_000)) == digest

    def test_events_after_an_array_call(self):
        assert (
            _events_digest(MonitorTraceConfig(), 20060814, 20_000, 200)
            == "705042d09fb496d3c72e3611d95b58d1"
        )


class TestPathTable:
    def test_a_departed_anchor_leaves_its_paths_due(self):
        """Catches "invalidation", the departure-time expiry dropped from
        ``_process_departures``: each category anchored at a departed
        neighbor must be reassigned at its next lookup."""
        generator = MonitorTraceGenerator(CONFIGS["fast-churn"], seed=3)
        departed = 0
        for _ in range(40):
            anchors = generator._path_anchor.copy()
            before = set(generator.active_neighbor_ids)
            generator.generate_pair_arrays(25)
            gone = before - set(generator.active_neighbor_ids)
            orphaned = np.isin(anchors, list(gone)) & (
                generator._path_anchor == anchors
            )
            departed += int(orphaned.sum())
            assert (generator._path_expires[orphaned] == -np.inf).all()
        assert departed > 0


class TestConstantDegree:
    @pytest.mark.parametrize("name", ["fast-churn", "two-neighbors-one-category"])
    def test_the_table_keeps_n_neighbors_rows(self, name):
        """Every departure adds exactly one neighbor, so after every call
        the id table, the id map and the departure heap hold
        ``n_neighbors`` entries each, ids ascending in join order."""
        config = CONFIGS[name]
        generator = MonitorTraceGenerator(config, seed=5)
        departed = 0
        for n in CALLS:
            before = set(generator.active_neighbor_ids)
            generator.generate_pair_arrays(n)
            ids = generator.active_neighbor_ids
            assert len(generator._ids) == config.n_neighbors
            assert len(generator._by_id) == len(generator._departures) == config.n_neighbors
            assert ids == sorted(generator._by_id)
            departed += len(before - set(ids))
        assert departed > 0
