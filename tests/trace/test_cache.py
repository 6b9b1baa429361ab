"""Tests for repro.trace.cache: one spec, one file, one way to the blocks.

Several test ids here date from the npz pair cache (``cached_pairs`` /
``save_pairs`` / ``load_pairs``) and the path-addressed
``cached_trace_store`` that :func:`trace_blocks` replaced; each keeps
its name and checks the same guarantee on the one cache there is now.
"""

import dataclasses
import hashlib
import json
import os
import struct

import numpy as np
import pytest

import repro.trace.cache as cache_module
from repro.trace.blocks import blocks_from_arrays
from repro.trace.cache import trace_blocks, trace_fingerprint
from repro.trace.store import TraceStoreError, TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.conftest import assert_same_blocks, trace_cache_path
from tests.trace.test_sorted_keys import DATA, stored_lengths

CFG = MonitorTraceConfig(block_size=300, n_neighbors=15, n_categories=12)


def generate(n=600, seed=1, config=CFG):
    return MonitorTraceGenerator(config, seed=seed).generate_pair_arrays(n)


def cache_path(directory, n, seed, config=CFG):
    return trace_cache_path(directory, config, seed, n)


def columns(blocks):
    return (
        np.concatenate([b.sources for b in blocks]),
        np.concatenate([b.repliers for b in blocks]),
    )


def assert_serves(blocks, n, seed, config=CFG, block_size=None):
    """``blocks`` are exactly the whole blocks of the single-shot trace."""
    arrays = generate(n, seed, config)
    reference = blocks_from_arrays(
        arrays.source, arrays.replier, block_size=block_size or config.block_size
    )
    assert_same_blocks(blocks, reference)


def stores(directory):
    return sorted(p.name for p in directory.iterdir())


# Every test starts with no cache reader open; one that takes the
# fixture can call it to go cold again mid-test.
pytestmark = pytest.mark.usefixtures("cold_trace_cache")


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, cold_trace_cache):
        """What is written is what a new process reads back, tail included."""
        n = 700  # two whole blocks and a partial one
        first = trace_blocks(n, config=CFG, seed=1, cache_dir=tmp_path)
        assert stores(tmp_path) == [cache_path(tmp_path, n, 1).name]
        cold_trace_cache()
        again = trace_blocks(n, config=CFG, seed=1, cache_dir=tmp_path)
        for blocks in (first, again):
            assert_serves(blocks, n, 1)
        arrays = generate(n)
        with TraceStoreReader(cache_path(tmp_path, n, 1)) as reader:
            assert reader.n_pairs == n and not reader.recovered
            assert reader.meta_fingerprint == trace_fingerprint(CFG, 1, n)
            sources, repliers = columns(reader.blocks())
            np.testing.assert_array_equal(sources, arrays.source)
            np.testing.assert_array_equal(repliers, arrays.replier)

    def test_reject_foreign_npz(self, tmp_path):
        """Some other format's bytes at the cache path are rebuilt."""
        path = cache_path(tmp_path, 600, 1)
        with open(path, "wb") as fh:
            np.savez(fh, foo=np.arange(3))
        assert_serves(trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path), 600, 1)
        with TraceStoreReader(path) as reader:
            assert reader.n_pairs == 600


class TestCachedPairs:
    def test_generates_and_caches(self, tmp_path, generate_calls, cold_trace_cache):
        trace_blocks(600, config=CFG, seed=2, cache_dir=tmp_path)
        assert generate_calls == [600]
        assert cache_path(tmp_path, 600, 2).exists()
        cold_trace_cache()
        second = trace_blocks(600, config=CFG, seed=2, cache_dir=tmp_path)
        assert generate_calls == [600]  # a hit: served from the file
        assert_serves(second, 600, 2)

    def test_prefix_slicing(self, tmp_path):
        """There is none: a shorter request is its own single-shot trace,
        never a prefix of a longer file (the generator pre-draws its
        gaps per call, so the two differ bit-wise)."""
        config = MonitorTraceConfig(block_size=500)
        long = trace_blocks(2000, config=config, seed=1, cache_dir=tmp_path)
        short = trace_blocks(1000, config=config, seed=1, cache_dir=tmp_path)
        assert_serves(short, 1000, 1, config)
        assert not np.array_equal(columns(short)[0], columns(long[:2])[0])
        assert len(stores(tmp_path)) == 2

    def test_regenerates_when_too_short(self, tmp_path, generate_calls):
        trace_blocks(300, config=CFG, seed=4, cache_dir=tmp_path)
        longer = trace_blocks(900, config=CFG, seed=4, cache_dir=tmp_path)
        assert generate_calls == [300, 900]
        assert_serves(longer, 900, 4)
        # Each length keeps its own file; neither overwrote the other.
        assert stores(tmp_path) == sorted(
            cache_path(tmp_path, n, 4).name for n in (300, 900)
        )

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            trace_blocks(-1, config=CFG, cache_dir=tmp_path)


class TestProvenanceFingerprint:
    def test_seed_mismatch_regenerates(self, tmp_path, generate_calls, cold_trace_cache):
        # Regression: the first cache returned whatever file sat at the
        # path as long as it was long enough — a different seed's trace.
        first = trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        other = trace_blocks(600, config=CFG, seed=2, cache_dir=tmp_path)
        assert not np.array_equal(columns(first)[0], columns(other)[0])
        assert len(stores(tmp_path)) == 2
        cold_trace_cache()
        again = trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        np.testing.assert_array_equal(columns(again)[0], columns(first)[0])
        assert generate_calls == [600, 600]  # seed 1 was still cached

    def test_config_mismatch_regenerates(self, tmp_path):
        first = trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        narrow = MonitorTraceConfig(block_size=300, n_neighbors=5, n_categories=12)
        other = trace_blocks(600, config=narrow, seed=1, cache_dir=tmp_path)
        assert not np.array_equal(columns(first)[0], columns(other)[0])
        assert len(stores(tmp_path)) == 2

    def test_equal_config_objects_hit(self, tmp_path, generate_calls, cold_trace_cache):
        first = trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        path = cache_path(tmp_path, 600, 1)
        mtime = path.stat().st_mtime_ns
        cold_trace_cache()
        clone = MonitorTraceConfig(block_size=300, n_neighbors=15, n_categories=12)
        second = trace_blocks(600, config=clone, seed=1, cache_dir=tmp_path)
        np.testing.assert_array_equal(columns(first)[0], columns(second)[0])
        assert path.stat().st_mtime_ns == mtime  # true hit, no rewrite
        assert generate_calls == [600]

    def test_legacy_file_without_stamp_warns_and_regenerates(
        self, tmp_path, recwarn, cold_trace_cache
    ):
        """An unstamped store — even one with the right columns — is not
        trusted.  (The old path-addressed cache warned about it; at a
        fingerprint-named path it is one more file to rebuild, quietly.)"""
        arrays = generate(600, seed=1)
        path = cache_path(tmp_path, 600, 1)
        with TraceStoreWriter(path, block_size=CFG.block_size) as writer:
            writer.append(arrays.source, arrays.replier)
        trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        with TraceStoreReader(path) as reader:
            assert reader.meta_fingerprint == trace_fingerprint(CFG, 1, 600)
        mtime = path.stat().st_mtime_ns
        cold_trace_cache()
        trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == mtime  # stamped now: a hit
        assert not recwarn.list

    def test_an_earlier_layouts_trace_is_not_served(
        self, tmp_path, generate_calls, cold_trace_cache
    ):
        """A complete store at the path and with the stamp that the
        fingerprint named before it covered the generator's layout —
        ``(config, seed, n_pairs)`` alone — is another layout's trace,
        so the spec is generated afresh rather than read from it."""
        payload = json.dumps(
            {"config": dataclasses.asdict(CFG), "seed": 1, "n_pairs": 600},
            sort_keys=True,
            default=repr,
        )
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
        stamp = int.from_bytes(digest, "little")
        planted = tmp_path / f"trace-{stamp:016x}.rptrace"
        earlier = generate(600, seed=2)  # any trace but this layout's
        with TraceStoreWriter(
            planted, block_size=CFG.block_size, meta_fingerprint=stamp
        ) as writer:
            writer.append(earlier.source, earlier.replier)
        generate_calls.clear()
        blocks = trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        assert generate_calls == [600]
        assert_serves(blocks, 600, 1)
        assert stores(tmp_path) == sorted([planted.name, cache_path(tmp_path, 600, 1).name])

    def test_fingerprint_deterministic(self):
        assert trace_fingerprint(CFG, 7, 100) == trace_fingerprint(CFG, 7, 100)
        assert trace_fingerprint(CFG, 7, 100) != trace_fingerprint(CFG, 8, 100)
        assert trace_fingerprint(CFG, 7, 100) != trace_fingerprint(None, 7, 100)
        assert trace_fingerprint(None, 7, 100) == trace_fingerprint(
            MonitorTraceConfig(), 7, 100
        )


class TestCachedTraceStore:
    def test_generates_then_hits(self, tmp_path, cold_trace_cache):
        first = trace_blocks(900, config=CFG, seed=1, cache_dir=tmp_path)
        path = cache_path(tmp_path, 900, 1)
        mtime = path.stat().st_mtime_ns
        cold_trace_cache()
        second = trace_blocks(900, config=CFG, seed=1, cache_dir=tmp_path)
        assert [b.fingerprint() for b in second] == [b.fingerprint() for b in first]
        assert path.stat().st_mtime_ns == mtime  # hit: not rewritten

    def test_seed_mismatch_rebuilds(self, tmp_path, cold_trace_cache):
        """Another spec's complete store copied to this spec's path."""
        trace_blocks(600, config=CFG, seed=2, cache_dir=tmp_path)
        path = cache_path(tmp_path, 600, 1)
        os.replace(cache_path(tmp_path, 600, 2), path)
        cold_trace_cache()
        assert_serves(trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path), 600, 1)
        with TraceStoreReader(path) as reader:
            assert reader.meta_fingerprint == trace_fingerprint(CFG, 1, 600)

    def test_matches_cached_pairs_columns(self, tmp_path):
        """The cached columns are the generator's, pair for pair."""
        arrays = generate(600, seed=3)
        sources, repliers = columns(
            trace_blocks(600, config=CFG, seed=3, cache_dir=tmp_path)
        )
        np.testing.assert_array_equal(sources, arrays.source)
        np.testing.assert_array_equal(repliers, arrays.replier)


class TestRebuild:
    """Anything at the path that is not this spec's complete store."""

    def damaged(self, tmp_path, how, cold_trace_cache):
        path = cache_path(tmp_path, 900, 5)
        if how == "garbage":
            path.write_bytes(os.urandom(4096))
        elif how == "empty":
            path.write_bytes(b"")
        elif how == "foreign magic":
            path.write_bytes(b"NOTTRACE" + bytes(4096))
        else:
            trace_blocks(900, config=CFG, seed=5, cache_dir=tmp_path)
            cold_trace_cache()
            whole = path.read_bytes()
            if how == "footer-less":
                path.write_bytes(whole[:-24])  # the trailer
            elif how == "torn mid-block":
                path.write_bytes(whole[: len(whole) // 2])
            elif how == "flipped stamp":
                path.write_bytes(whole[:24] + bytes(8) + whole[32:])
        return path

    @pytest.mark.parametrize(
        "how",
        ["garbage", "empty", "foreign magic", "footer-less", "torn mid-block", "flipped stamp"],
    )
    def test_rebuilt(self, tmp_path, how, generate_calls, recwarn, cold_trace_cache):
        path = self.damaged(tmp_path, how, cold_trace_cache)
        generate_calls.clear()
        blocks = trace_blocks(900, config=CFG, seed=5, cache_dir=tmp_path)
        assert generate_calls == [900]
        assert_serves(blocks, 900, 5)
        with TraceStoreReader(path) as reader:
            assert not reader.recovered and reader.n_pairs == 900
        assert stores(tmp_path) == [path.name]
        assert not recwarn.list

    @staticmethod
    def assert_rewritten_once(
        tmp_path, planted, form, generate_calls, recwarn, cold_trace_cache
    ):
        """``planted`` stamped for a spec and put at the spec's cache path
        is refused when it is opened (naming ``form``), so the first call
        rewrites it once in the one layout and the next one hits it — it
        is never served, nor generated in memory on every call."""
        config = MonitorTraceConfig(block_size=100, n_neighbors=15, n_categories=12)
        stamp = trace_fingerprint(config, 9, 300)
        path = cache_path(tmp_path, 300, 9, config)
        planted = bytearray(planted)
        struct.pack_into("<Q", planted, 24, stamp)  # the header's stamp
        path.write_bytes(bytes(planted))
        with pytest.raises(TraceStoreError, match=form):
            TraceStoreReader(path)
        generate_calls.clear()
        rewritten = trace_blocks(300, config=config, seed=9, cache_dir=tmp_path)
        assert generate_calls == [300]
        assert len(stored_lengths(path)) == 3
        cold_trace_cache()
        hit = trace_blocks(300, config=config, seed=9, cache_dir=tmp_path)
        assert generate_calls == [300]
        assert not [w for w in recwarn.list if "cache unusable" in str(w.message)]
        for blocks in (rewritten, hit):
            assert_serves(blocks, 300, 9, config)

    def test_a_version_1_cache_is_rewritten_once(
        self, tmp_path, generate_calls, recwarn, cold_trace_cache
    ):
        """A complete cache file of this spec written before every store
        held histogram rows — a version-1 store of raw sorted keys."""
        self.assert_rewritten_once(
            tmp_path,
            (DATA / "parent_v1_sorted.rptrace").read_bytes(),
            "store version 0x200000001",
            generate_calls,
            recwarn,
            cold_trace_cache,
        )

    def test_a_raw_column_cache_is_rewritten_once(
        self, tmp_path, generate_calls, recwarn, cold_trace_cache
    ):
        """A complete cache file of this spec whose columns are raw int64
        (codec 0, as every store before the row index held them, at 17.4
        B a pair) beside histogram rows."""
        self.assert_rewritten_once(
            tmp_path,
            (DATA / "parent_v2_raw.rptrace").read_bytes(),
            "store version 0x200000002",
            generate_calls,
            recwarn,
            cold_trace_cache,
        )

    def test_a_parent_layout_cache_is_rewritten_once(
        self, tmp_path, generate_calls, recwarn, cold_trace_cache
    ):
        """A complete cache file of this spec in the previous release's
        layout: version 2 with header flags, a codec word and an empty
        segment 1 in every block, and a footer index."""
        self.assert_rewritten_once(
            tmp_path,
            (DATA / "parent_v2_rows.rptrace").read_bytes(),
            "store version 0x200000002",
            generate_calls,
            recwarn,
            cold_trace_cache,
        )


class TestAtomicPublish:
    """Readers see no file or a complete one; nobody truncates."""

    def test_two_writers_and_a_reader_interleaved(self, tmp_path, monkeypatch, cold_trace_cache):
        """Writer A flushes half its blocks; writer B starts, finds no
        file, and publishes; a reader opens; A finishes and publishes
        over B.  Every open is a complete store of the right trace."""
        n = 8 * CFG.block_size
        path = cache_path(tmp_path, n, 6)
        seen = {}
        real_write = TraceStoreWriter._write_block

        def interleave(writer, block):
            real_write(writer, block)
            if writer.n_blocks == 4 and not seen:
                seen["mid-write"] = stores(tmp_path)
                assert not path.exists()  # A is still on its temp name
                seen["b"] = trace_blocks(n, config=CFG, seed=6, cache_dir=tmp_path)
                seen["inode"] = path.stat().st_ino
                cold_trace_cache()
                seen["reader"] = trace_blocks(n, config=CFG, seed=6, cache_dir=tmp_path)
                cold_trace_cache()

        monkeypatch.setattr(TraceStoreWriter, "_write_block", interleave)
        a = trace_blocks(n, config=CFG, seed=6, cache_dir=tmp_path)
        assert [name.endswith(".tmp") for name in seen["mid-write"]] == [True]
        assert path.stat().st_ino != seen["inode"]  # replaced, not rewritten
        for blocks in (a, seen["b"], seen["reader"]):
            assert_serves(blocks, n, 6)  # B's views outlive B's file
        assert stores(tmp_path) == [path.name]

    @pytest.mark.parametrize("failing", ["generate_pair_arrays", "append", "close"])
    def test_no_temp_file_survives_a_failure(self, tmp_path, monkeypatch, failing):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt  # not an Exception: cleanup must still run

        owner = (
            MonitorTraceGenerator if failing == "generate_pair_arrays" else TraceStoreWriter
        )
        with monkeypatch.context() as patch:
            patch.setattr(owner, failing, boom)
            with pytest.raises(KeyboardInterrupt):
                trace_blocks(900, config=CFG, seed=7, cache_dir=tmp_path)
        assert stores(tmp_path) == []
        assert not cache_module._READERS
        assert_serves(trace_blocks(900, config=CFG, seed=7, cache_dir=tmp_path), 900, 7)
        assert stores(tmp_path) == [cache_path(tmp_path, 900, 7).name]


class TestReblocking:
    def test_other_block_sizes_cut_the_same_cached_columns(self, tmp_path, generate_calls):
        """fig2's sweep: four block sizes, one generation, one file."""
        config = MonitorTraceConfig(block_size=1000)
        n = 10_500
        cut = {
            block_size: trace_blocks(
                n, config=config, seed=8, block_size=block_size, cache_dir=tmp_path
            )
            for block_size in (500, 1000, 2000, 5000)
        }
        assert generate_calls == [n]
        assert len(stores(tmp_path)) == 1
        for block_size, blocks in cut.items():
            assert len(blocks) == n // block_size
            assert_serves(blocks, n, 8, config, block_size=block_size)

    def test_fig2_runner_generates_its_trace_once(
        self, tmp_path, monkeypatch, generate_calls, cold_trace_cache
    ):
        from repro.experiments.registry import run_experiment
        from tests.experiments.test_runners import TINY

        def run_fig2():
            return run_experiment("fig2", seed=9, scale=TINY)

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        first = run_fig2()
        cold_trace_cache()
        second = run_fig2()
        assert generate_calls == [60_000]
        assert first.payload() == second.payload()
        arrays = generate(60_000, seed=9, config=MonitorTraceConfig())
        from repro.core.strategies import SlidingWindow

        for block_size, coverage in first.extras["coverages"].items():
            reference = blocks_from_arrays(
                arrays.source, arrays.replier, block_size=block_size
            )
            assert coverage == SlidingWindow().run(reference).average_coverage
