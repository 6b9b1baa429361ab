"""How one generated trace is shared between processes: it is a file.

The ids in this module are kept from the shared-memory transport
(``SharedTraceStore`` / ``AttachedTraceStore`` and their spill-to-disk
path) that the on-disk trace cache replaced.  Each now checks the
guarantee it stood for on the one share there is: the parent — or
whoever gets there first — publishes ``trace-<fingerprint>.rptrace``,
every other process maps it, and the OS page cache is the shared copy.
"""

import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.trace.cache as cache_module
from repro.trace.cache import trace_blocks, trace_fingerprint
from repro.trace.store import TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.conftest import trace_cache_path

CFG = MonitorTraceConfig(block_size=200)


def generate(n, seed):
    return MonitorTraceGenerator(CFG, seed=seed).generate_pair_arrays(n)


def cache_path(directory, n, seed):
    return trace_cache_path(directory, CFG, seed, n)


def sources_of(blocks):
    return np.concatenate([b.sources for b in blocks])


def in_fresh_process(fn, *args):
    """Run ``fn(*args)`` in a spawned interpreter and return its result."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def _attach(spec, cache_dir):
    """Child side: serve ``spec`` without being able to generate it."""

    def refuse(self, n_pairs):
        raise AssertionError("the attaching process generated the trace")

    MonitorTraceGenerator.generate_pair_arrays = refuse
    config, seed, n_pairs = pickle.loads(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = trace_blocks(n_pairs, config=config, seed=seed, cache_dir=cache_dir)
    return {
        "fingerprints": [b.fingerprint() for b in blocks],
        "sources": sources_of(blocks).tobytes(),
        "repliers": np.concatenate([b.repliers for b in blocks]).tobytes(),
        "memmap": all(isinstance(b.sources, np.memmap) for b in blocks),
        "mapped_file": blocks[0].sources.filename,
    }


# Every test starts with no cache reader open; one that takes the
# fixture can call it to go cold again mid-test.
pytestmark = pytest.mark.usefixtures("cold_trace_cache")


class TestSharedTraceStore:
    """The publishing side."""

    def test_round_trip(self, tmp_path):
        arrays = generate(1000, seed=0)
        blocks = trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        assert len(blocks) == 5
        np.testing.assert_array_equal(sources_of(blocks), arrays.source)
        np.testing.assert_array_equal(
            np.concatenate([b.repliers for b in blocks]), arrays.replier
        )

    def test_put_copies(self, tmp_path):
        """No consumer can change what the next one is served: the
        views are of a read-only mapping."""
        blocks = trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        for column in (blocks[0].sources, blocks[0].repliers, blocks[0].packed_keys()):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = -1

    def test_duplicate_put_is_idempotent(self, tmp_path, generate_calls, cold_trace_cache):
        trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        path = cache_path(tmp_path, 1000, 0)
        before = path.stat()
        cold_trace_cache()  # a second process would start so
        trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(tmp_path) == [path.name]
        assert generate_calls == [1000]

    def test_rejects_mismatched_columns(self, tmp_path, cold_trace_cache):
        """A complete, correctly stamped-looking store whose length or
        blocking is not the spec's is rebuilt, not served."""
        arrays = generate(1000, seed=0)
        path = cache_path(tmp_path, 1000, 0)
        stamp = trace_fingerprint(CFG, 0, 1000)
        for block_size, keep in ((CFG.block_size, 800), (250, 1000)):
            with TraceStoreWriter(
                path, block_size=block_size, meta_fingerprint=stamp
            ) as writer:
                writer.append(arrays.source[:keep], arrays.replier[:keep])
            cold_trace_cache()
            blocks = trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
            assert [len(b) for b in blocks] == [200] * 5
            np.testing.assert_array_equal(sources_of(blocks), arrays.source)

    def test_close_unlinks_segments(self, tmp_path, monkeypatch):
        """Nothing but finished cache files is left behind, whether a
        publish completes or dies half-way."""
        trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        assert os.listdir(tmp_path) == [cache_path(tmp_path, 1000, 0).name]
        real_write = TraceStoreWriter._write_block

        def die_on_third_block(writer, block):
            if writer.n_blocks == 2:
                raise OSError(28, "No space left on device")
            real_write(writer, block)

        monkeypatch.setattr(TraceStoreWriter, "_write_block", die_on_third_block)
        with pytest.warns(UserWarning, match="No space left"):
            blocks = trace_blocks(1000, config=CFG, seed=1, cache_dir=tmp_path)
        np.testing.assert_array_equal(sources_of(blocks), generate(1000, 1).source)
        assert os.listdir(tmp_path) == [cache_path(tmp_path, 1000, 0).name]

    def test_empty_trace(self, tmp_path):
        assert trace_blocks(0, config=CFG, seed=0, cache_dir=tmp_path) == []


class TestAttachedTraceStore:
    """The attaching side: another process, nothing handed to it but the spec."""

    def test_handles_are_picklable(self, tmp_path):
        """The spec is all a worker is sent, and it names the same file
        on the other side of a pickle."""
        spec = (CFG, 3, 1000)
        config, seed, n_pairs = pickle.loads(pickle.dumps(spec))
        assert trace_fingerprint(config, seed, n_pairs) == trace_fingerprint(*spec)
        assert len(pickle.dumps(spec)) < 2048

    def test_attached_arrays_match(self, tmp_path):
        """A spawned child serves bit-identical blocks from the file its
        parent published."""
        published = trace_blocks(1000, config=CFG, seed=3, cache_dir=tmp_path)
        before = cache_path(tmp_path, 1000, 3).stat()
        child = in_fresh_process(_attach, pickle.dumps((CFG, 3, 1000)), str(tmp_path))
        arrays = generate(1000, seed=3)
        assert child["sources"] == arrays.source.tobytes()
        assert child["repliers"] == arrays.replier.tobytes()
        assert child["fingerprints"] == [b.fingerprint() for b in published]
        after = cache_path(tmp_path, 1000, 3).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(tmp_path) == [cache_path(tmp_path, 1000, 3).name]


_LOW_FD_SCRIPT = """
import os, resource, sys, warnings
resource.setrlimit(resource.RLIMIT_NOFILE, (256, 256))
warnings.simplefilter("error")  # "cache unusable" must not be how it passes
import repro.trace.cache as cache
from repro.workload.tracegen import MonitorTraceConfig

config = MonitorTraceConfig(block_size=100)
held = []
for _ in range(2):
    blocks = cache.trace_blocks(400 * 100, config=config, seed=3, cache_dir=sys.argv[1])
    assert len(blocks) == 400
    held.append((blocks, cache._READERS.copy()))  # a dropped reader unmaps its views
    cache._READERS.clear()  # the second pass opens the published file
assert all(
    (a.sources == b.sources).all() and (a.packed_keys() == b.packed_keys()).all()
    for a, b in zip(held[0][0], held[1][0])
)
print(len(os.listdir("/proc/self/fd")))
"""


class TestSpillPath:
    """Traces of any size live on disk."""

    def test_large_trace_spills_to_disk(self, tmp_path):
        """Paper scale is 365 blocks; under a 256-descriptor limit a
        process holds two full sets of 400 (one mapping per file, not
        three per block) without ever falling back."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _LOW_FD_SCRIPT, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 32
        assert len(os.listdir(tmp_path)) == 1

    def test_no_spill_without_spill_dir(self, tmp_path):
        """With no usable directory nothing is written: a warning, and
        the same blocks from memory."""
        blocker = tmp_path / "a-file"
        blocker.write_text("occupied")
        with pytest.warns(UserWarning, match="trace-store cache unusable"):
            blocks = trace_blocks(1000, config=CFG, seed=0, cache_dir=blocker / "sub")
        np.testing.assert_array_equal(sources_of(blocks), generate(1000, 0).source)
        assert os.listdir(tmp_path) == ["a-file"]
        assert not cache_module._READERS

    def test_empty_trace_never_spills(self, tmp_path):
        assert trace_blocks(0, config=CFG, seed=0, cache_dir=tmp_path / "sub") == []
        assert os.listdir(tmp_path) == []

    def test_attached_store_reads_spilled_trace(self, tmp_path):
        """The child's arrays are memmaps of the very file the parent
        wrote — shared through the page cache, not copied."""
        trace_blocks(2000, config=CFG, seed=3, cache_dir=tmp_path)
        child = in_fresh_process(_attach, pickle.dumps((CFG, 3, 2000)), str(tmp_path))
        assert child["memmap"]
        assert child["mapped_file"] == str(cache_path(tmp_path, 2000, 3))
        assert child["sources"] == generate(2000, seed=3).source.tobytes()

    def test_spill_put_copies(self, tmp_path, cold_trace_cache):
        """Views handed out stay valid and unchanged whatever happens to
        the cache afterwards: other specs, a republish, a deleted file."""
        arrays = generate(1000, seed=0)
        held = trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        trace_blocks(600, config=CFG, seed=1, cache_dir=tmp_path)
        path = cache_path(tmp_path, 1000, 0)
        old_inode = path.stat().st_ino
        path.unlink()
        cold_trace_cache()
        fresh = trace_blocks(1000, config=CFG, seed=0, cache_dir=tmp_path)
        assert path.stat().st_ino != old_inode  # the held mapping pins the old one
        path.unlink()
        for blocks in (held, fresh):
            np.testing.assert_array_equal(sources_of(blocks), arrays.source)
            np.testing.assert_array_equal(
                blocks[-1].packed_keys(), (arrays.source[800:] << 32) | arrays.replier[800:]
            )

    def test_mixed_spill_and_shm_traces(self, tmp_path, cold_trace_cache):
        """A large and a small trace side by side: one file each, each
        served intact to a process that generated neither."""
        trace_blocks(4000, config=CFG, seed=1, cache_dir=tmp_path)
        trace_blocks(200, config=CFG, seed=2, cache_dir=tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted(
            cache_path(tmp_path, n, seed).name for n, seed in ((4000, 1), (200, 2))
        )
        cold_trace_cache()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                MonitorTraceGenerator, "generate_pair_arrays", lambda self, n: 1 / 0
            )
            big = trace_blocks(4000, config=CFG, seed=1, cache_dir=tmp_path)
            small = trace_blocks(200, config=CFG, seed=2, cache_dir=tmp_path)
        np.testing.assert_array_equal(sources_of(big), generate(4000, 1).source)
        np.testing.assert_array_equal(sources_of(small), generate(200, 2).source)
        assert len(cache_module._READERS) == 2
