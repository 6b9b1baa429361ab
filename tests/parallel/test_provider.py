"""Which trace a spec names, and that it is generated at most once.

The ids in this module are kept from the trace-provider registry
(``CachingTraceProvider`` / ``SharedMemoryTraceProvider`` /
``install_trace_provider``) that :func:`repro.trace.cache.trace_blocks`
replaced: the "key" is the cache fingerprint, the "memo" the one open
reader per file, and there is no process-wide switch left to install.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import repro.parallel
import repro.trace.cache as cache_module
from repro.trace.blocks import blocks_from_arrays
from repro.trace.cache import trace_blocks, trace_fingerprint
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.conftest import assert_same_blocks, trace_cache_path

CFG = MonitorTraceConfig()
SMALL = dataclasses.replace(CFG, block_size=250)


# Every test starts with no cache reader open; one that takes the
# fixture can call it to go cold again mid-test.
pytestmark = pytest.mark.usefixtures("cold_trace_cache")


class TestTraceKey:
    def test_same_spec_same_key(self):
        assert trace_fingerprint(CFG, 1, 1000) == trace_fingerprint(
            MonitorTraceConfig(), 1, 1000
        )
        assert trace_fingerprint(CFG, 1, 1000) == trace_fingerprint(None, 1, 1000)

    def test_differs_by_each_component(self, tmp_path):
        """A different seed, length or config field is a different file."""
        other_cfg = dataclasses.replace(SMALL, n_neighbors=SMALL.n_neighbors + 1)
        specs = [(SMALL, 1, 1000), (SMALL, 2, 1000), (SMALL, 1, 2000), (other_cfg, 1, 1000)]
        assert len({trace_fingerprint(*spec) for spec in specs}) == 4
        for config, seed, n_pairs in specs:
            trace_blocks(n_pairs, config=config, seed=seed, cache_dir=tmp_path)
        assert sorted(tmp_path.iterdir()) == sorted(
            trace_cache_path(tmp_path, *spec) for spec in specs
        )

    def test_longer_trace_is_not_a_superset(self):
        """The reason n_pairs is part of the key: the generator pre-draws
        its gap sequence, so a longer trace diverges from a shorter one
        rather than extending it."""
        short = MonitorTraceGenerator(CFG, seed=1).generate_pair_arrays(1000)
        long = MonitorTraceGenerator(CFG, seed=1).generate_pair_arrays(2000)
        assert not np.array_equal(long.source[:1000], short.source)


class TestCachingTraceProvider:
    """In one process: one reader per file, one generation per spec."""

    def test_memoizes_by_spec(self, tmp_path, generate_calls):
        first = trace_blocks(1000, config=SMALL, seed=1, cache_dir=tmp_path)
        (reader,) = cache_module._READERS.values()
        second = trace_blocks(1000, config=SMALL, seed=1, cache_dir=tmp_path)
        assert list(cache_module._READERS.values()) == [reader]
        assert generate_calls == [1000]
        # Served from the same reader: the file, not a second generation.
        assert second[0]._reader is first[0]._reader is reader
        np.testing.assert_array_equal(second[0].sources, first[0].sources)
        trace_blocks(1000, config=SMALL, seed=2, cache_dir=tmp_path)
        assert generate_calls == [1000, 1000]
        assert len(cache_module._READERS) == 2

    def test_columns_match_direct_generation(self, tmp_path):
        blocks = trace_blocks(1500, config=SMALL, seed=3, cache_dir=tmp_path)
        arrays = MonitorTraceGenerator(SMALL, seed=3).generate_pair_arrays(1500)
        np.testing.assert_array_equal(
            np.concatenate([b.sources for b in blocks]), arrays.source
        )
        np.testing.assert_array_equal(
            np.concatenate([b.repliers for b in blocks]), arrays.replier
        )

    def test_warm_prefills(self, tmp_path, monkeypatch, cold_trace_cache):
        """Once any process has asked for a spec, no later one reaches
        the generator for it."""
        warm = trace_blocks(1000, config=SMALL, seed=1, cache_dir=tmp_path)
        cold_trace_cache()
        monkeypatch.setattr(
            MonitorTraceGenerator,
            "generate_pair_arrays",
            lambda self, n_pairs: pytest.fail("a warm cache reached the generator"),
        )
        served = trace_blocks(1000, config=SMALL, seed=1, cache_dir=tmp_path)
        assert [b.fingerprint() for b in served] == [b.fingerprint() for b in warm]


class TestSharedMemoryTraceProvider:
    def test_serves_shared_then_falls_back(self, tmp_path, generate_calls):
        """From the shared file while the directory is usable; from
        memory, with a warning and the same blocks, once it is not."""
        shared = trace_blocks(1000, config=SMALL, seed=1, cache_dir=tmp_path)
        (reader,) = cache_module._READERS.values()
        assert shared[0]._reader is reader
        blocker = tmp_path / "occupied"
        blocker.write_text("")
        with pytest.warns(UserWarning, match="trace-store cache unusable"):
            local = trace_blocks(1000, config=SMALL, seed=1, cache_dir=blocker / "x")
        assert "_reader" not in local[0].__dict__
        assert generate_calls == [1000, 1000]
        assert [b.fingerprint() for b in local] == [b.fingerprint() for b in shared]


class TestProcessWideProvider:
    def test_none_by_default(self):
        """There is no provider to install, clear or ask for any more."""
        gone = {
            "AttachedTraceStore",
            "CachingTraceProvider",
            "SharedMemoryTraceProvider",
            "SharedTraceStore",
            "TraceHandle",
            "provide_pair_columns",
            "trace_key",
        }
        assert not gone & set(repro.parallel.__all__)
        for name in gone:
            with pytest.raises(AttributeError):
                getattr(repro.parallel, name)
        for module in ("repro.parallel.shm", "repro.parallel.provider"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in repro.parallel.__all__:
            assert getattr(repro.parallel, name) is not None

    def test_provided_columns_bit_identical_to_direct(self, tmp_path):
        n_pairs = 1200  # four whole blocks of 250 and a tail that is dropped
        served = trace_blocks(n_pairs, config=SMALL, seed=5, cache_dir=tmp_path)
        arrays = MonitorTraceGenerator(SMALL, seed=5).generate_pair_arrays(n_pairs)
        direct = blocks_from_arrays(arrays.source, arrays.replier, block_size=250)
        assert len(direct) == 4
        assert_same_blocks(served, direct)
