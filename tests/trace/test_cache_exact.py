"""The cache holds the exact single-shot trace, and the runners use it.

(``exact`` was once a mode of the cache, next to a chunk-written one;
it is the only behaviour now and the class names below are kept from
then.)
"""

import numpy as np
import pytest

import repro.trace.cache as cache_module
from repro.trace.blocks import blocks_from_arrays
from repro.trace.cache import default_trace_cache_dir, trace_blocks, trace_fingerprint
from repro.trace.store import TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.conftest import assert_same_blocks, trace_cache_path

CFG = MonitorTraceConfig(block_size=500)


def cache_path(directory, n, seed, config=CFG):
    return trace_cache_path(directory, config, seed, n)


def stored_sources(path):
    with TraceStoreReader(path) as reader:
        return np.concatenate([reader.columns(i)[0] for i in range(reader.n_blocks)])


# Every test starts with no cache reader open; one that takes the
# fixture can call it to go cold again mid-test.
pytestmark = pytest.mark.usefixtures("cold_trace_cache")


class TestExactFingerprint:
    def test_length_mixed_stamp_differs(self):
        stamps = {trace_fingerprint(CFG, 3, n) for n in (0, 1000, 1001, 1500)}
        assert len(stamps) == 4

    def test_deterministic(self):
        assert trace_fingerprint(CFG, 3, 10) == trace_fingerprint(
            MonitorTraceConfig(block_size=500), 3, 10
        )


class TestExactMode:
    def test_single_shot_identity(self, tmp_path):
        """The file holds the bit-identical single-shot trace, all of it."""
        n = 1600
        trace_blocks(n, config=CFG, seed=9, cache_dir=tmp_path)
        with TraceStoreReader(cache_path(tmp_path, n, 9)) as reader:
            assert reader.n_pairs == n
        arrays = MonitorTraceGenerator(CFG, seed=9).generate_pair_arrays(n)
        np.testing.assert_array_equal(
            stored_sources(cache_path(tmp_path, n, 9)), arrays.source
        )

    def test_exact_hit(self, tmp_path, cold_trace_cache):
        path = cache_path(tmp_path, 1000, 1)
        trace_blocks(1000, config=CFG, seed=1, cache_dir=tmp_path)
        with TraceStoreReader(path) as reader:
            assert reader.meta_fingerprint == trace_fingerprint(CFG, 1, 1000)
        mtime = path.stat().st_mtime_ns
        cold_trace_cache()
        trace_blocks(1000, config=CFG, seed=1, cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == mtime  # served, not rewritten

    def test_longer_store_is_a_miss(self, tmp_path, generate_calls):
        """A longer single-shot trace is not a superset of a shorter
        one, so the shorter request generates its own file."""
        trace_blocks(2000, config=CFG, seed=1, cache_dir=tmp_path)
        trace_blocks(1000, config=CFG, seed=1, cache_dir=tmp_path)
        assert generate_calls == [2000, 1000]
        arrays = MonitorTraceGenerator(CFG, seed=1).generate_pair_arrays(1000)
        np.testing.assert_array_equal(
            stored_sources(cache_path(tmp_path, 1000, 1)), arrays.source
        )
        assert len(stored_sources(cache_path(tmp_path, 2000, 1))) == 2000

    def test_chunked_cache_never_hits_exact(self, tmp_path):
        """A chunk-written store of the same config, seed and length —
        what the cache's other mode used to leave behind, stamped
        without the length — differs bit-wise and is never served."""
        chunked = MonitorTraceGenerator(CFG, seed=1)
        path = cache_path(tmp_path, 1000, 1)
        with TraceStoreWriter(
            path, block_size=CFG.block_size, meta_fingerprint=0xC0FFEE
        ) as writer:
            for _ in range(2):
                arrays = chunked.generate_pair_arrays(500)
                writer.append(arrays.source, arrays.replier)
        left_behind = stored_sources(path)
        blocks = trace_blocks(1000, config=CFG, seed=1, cache_dir=tmp_path)
        single_shot = MonitorTraceGenerator(CFG, seed=1).generate_pair_arrays(1000)
        assert not np.array_equal(left_behind, single_shot.source)
        np.testing.assert_array_equal(
            np.concatenate([b.sources for b in blocks]), single_shot.source
        )


class TestStoreBackedBlocks:
    def test_matches_in_memory_blocks(self, tmp_path):
        n_blocks = 3
        n_pairs = n_blocks * CFG.block_size + 17  # the partial tail is dropped
        blocks = trace_blocks(n_pairs, config=CFG, seed=4, cache_dir=tmp_path)
        arrays = MonitorTraceGenerator(CFG, seed=4).generate_pair_arrays(n_pairs)
        reference = blocks_from_arrays(
            arrays.source, arrays.replier, block_size=CFG.block_size
        )
        assert len(reference) == n_blocks
        assert_same_blocks(blocks, reference)

    def test_reader_reused_across_calls(self, tmp_path):
        n_pairs = 2 * CFG.block_size
        first = trace_blocks(n_pairs, config=CFG, seed=5, cache_dir=tmp_path)
        before = dict(cache_module._READERS)
        assert len(before) == 1
        again = trace_blocks(n_pairs, config=CFG, seed=5, cache_dir=tmp_path)
        assert dict(cache_module._READERS) == before
        assert len(again) == 2
        # Both calls hand out blocks of the one reader, holding one handle.
        (reader,) = before.values()
        assert again[0]._reader is first[1]._reader is reader
        assert [b.fingerprint() for b in again] == [b.fingerprint() for b in first]

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            trace_blocks(-1, config=CFG, seed=0, cache_dir=tmp_path)

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "custom"))
        assert default_trace_cache_dir() == str(tmp_path / "custom")
        trace_blocks(CFG.block_size, config=CFG, seed=6)  # no cache_dir=
        assert [p.suffix for p in (tmp_path / "custom").iterdir()] == [".rptrace"]
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR")
        assert default_trace_cache_dir().endswith("repro/traces")


class TestFigureWiring:
    def test_generate_trace_blocks_uses_store_cache(
        self, tmp_path, monkeypatch, generate_calls, cold_trace_cache
    ):
        """A figure runner's trace comes from the cache directory."""
        from repro.experiments import run_experiment
        from repro.experiments.figures import BLOCK_SIZE
        from tests.experiments.test_runners import TINY

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        cold = run_experiment("fig1", seed=33, scale=TINY)
        path = cache_path(tmp_path, TINY.n_blocks * BLOCK_SIZE, 33, MonitorTraceConfig())
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        cold_trace_cache()
        warm = run_experiment("fig1", seed=33, scale=TINY)
        assert generate_calls == [TINY.n_blocks * BLOCK_SIZE]
        assert warm.payload() == cold.payload()

    def test_unusable_cache_dir_falls_back_with_warning(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(blocker / "child"))
        with pytest.warns(UserWarning, match="trace-store cache unusable"):
            blocks = trace_blocks(2 * CFG.block_size + 5, config=CFG, seed=35)
        arrays = MonitorTraceGenerator(CFG, seed=35).generate_pair_arrays(
            2 * CFG.block_size + 5
        )
        assert len(blocks) == 2
        np.testing.assert_array_equal(blocks[1].sources, arrays.source[500:1000])
        np.testing.assert_array_equal(blocks[1].repliers, arrays.replier[500:1000])
        assert blocker.read_text() == "occupied"
