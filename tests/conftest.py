"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.blocks import PairBlock


@pytest.fixture(autouse=True, scope="session")
def _session_trace_cache(tmp_path_factory):
    """Keep the suite's generated traces in a directory of its own.

    The cache stamp covers config, seed and length but not the
    generator's code, so ``~/.cache/repro/traces`` could silently serve
    a file another checkout left there.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path_factory.mktemp("traces")))
    yield
    patch.undo()


@pytest.fixture
def cold_trace_cache():
    """Make this process look new to the trace cache, now and on call.

    Yields ``forget()``, which empties the registry of open readers the
    way a fresh process finds it.  The readers are parked until the
    test is over, not closed: closing one unmaps the views inside
    blocks the test may still hold.
    """
    import repro.trace.cache as cache

    before = dict(cache._READERS)
    parked = []

    def forget():
        parked.extend(cache._READERS.values())
        cache._READERS.clear()

    forget()
    yield forget
    cache._READERS.clear()
    cache._READERS.update(before)


@pytest.fixture
def generate_calls(monkeypatch):
    """Spy on the trace generator: the ``n_pairs`` of every call made."""
    from repro.workload.tracegen import MonitorTraceGenerator

    calls = []
    real = MonitorTraceGenerator.generate_pair_arrays

    def spy(self, n_pairs):
        calls.append(n_pairs)
        return real(self, n_pairs)

    monkeypatch.setattr(MonitorTraceGenerator, "generate_pair_arrays", spy)
    return calls


@pytest.fixture
def rng():
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_block():
    """A hand-checkable block: sources 1/2, repliers 10/11/12.

    Pair counts: (1,10) x4, (1,11) x2, (2,12) x3, (2,10) x1.
    """
    sources = np.array([1, 1, 1, 1, 1, 1, 2, 2, 2, 2], dtype=np.int64)
    repliers = np.array([10, 10, 10, 10, 11, 11, 12, 12, 12, 10], dtype=np.int64)
    return PairBlock(sources=sources, repliers=repliers, index=0)


def make_block(pairs, index=0) -> PairBlock:
    """Build a PairBlock from a list of (source, replier) tuples."""
    if pairs:
        sources, repliers = zip(*pairs)
    else:
        sources, repliers = (), ()
    return PairBlock(
        sources=np.asarray(sources, dtype=np.int64),
        repliers=np.asarray(repliers, dtype=np.int64),
        index=index,
    )


@pytest.fixture
def block_factory():
    return make_block


def trace_cache_path(directory, config, seed, n_pairs):
    """Where ``repro.trace.cache`` keeps this spec under ``directory``."""
    from pathlib import Path

    from repro.trace.cache import trace_fingerprint

    stamp = trace_fingerprint(config, seed, n_pairs)
    return Path(directory) / f"trace-{stamp:016x}.rptrace"


def assert_same_blocks(got, want):
    """Two block lists agree on columns and on every memoized view."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        np.testing.assert_array_equal(a.sources, b.sources)
        np.testing.assert_array_equal(a.repliers, b.repliers)
        np.testing.assert_array_equal(a.packed_keys(), b.packed_keys())
        assert a.fingerprint() == b.fingerprint()
