"""``generate_pair_arrays`` against the per-pair loop it replaced.

The array code must emit the oracle's bytes and leave the generator where
the oracle leaves it — the paper figures, the trace cache and every number
in EXPERIMENTS.md hang off these traces.  A golden digest pins the bytes
themselves, so that a change to oracle *and* array code cannot move the
reproduction unnoticed.
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
from tests.workload.reference_tracegen import reference_generate_pair_arrays
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

    def test_uniform_refill_is_crossed(self):
        """The premise of CALLS: even the leanest config above passes the
        65,536-draw refill."""
        leanest = min(
            (cfg.ephemeral_rate > 0) + 2 + (cfg.path_noise > 0)
            for cfg in CONFIGS.values()
        )
        assert sum(CALLS) * leanest > 65_536

    @given(
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.integers(0, 700), min_size=1, max_size=4),
        sub_chunk=st.sampled_from([1, 7, 64, 500]),
        path_noise=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        ephemeral_rate=st.sampled_from([0.0, 0.13, 0.9, 1.0]),
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


def _digest(config, seed, calls) -> str:
    generator = MonitorTraceGenerator(config, seed=seed)
    h = hashlib.blake2b(digest_size=16)
    for n in calls:
        arrays = generator.generate_pair_arrays(n)
        for column in COLUMNS:
            h.update(getattr(arrays, column).tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    """Recorded from the per-pair loop with numpy 2.4.6.  Should a numpy
    release ever change ``Generator`` streams, the differential tests above
    still hold and this is re-recorded from the oracle in its own
    commit."""

    def test_calibrated_config(self):
        assert (
            _digest(MonitorTraceConfig(), 20060814, (50_000, 30_000))
            == "ef50b11abeb312dad3beb7aae09d98b7"
        )
