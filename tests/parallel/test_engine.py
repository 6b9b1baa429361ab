"""Tests for the parallel experiment engine (repro.parallel.engine).

The expensive guarantees — bit-identical results versus the serial path,
in-process and pooled — are exercised on real registered experiments at
the default scale, so a few of these tests take seconds.  The
serial-vs-parallel gate (``python -m benchmarks.bench_mining``) covers
the full trace-driven suite; here a representative pair of experiments
keeps the suite fast.
"""

import pytest

import repro.trace.cache as cache_module
from repro.experiments.config import DEFAULT_SEED
from repro.experiments.registry import run_experiment
from repro.parallel.cache import ruleset_cache
from repro.parallel.engine import (
    ExperimentTask,
    ParallelExperimentEngine,
    TaskOutcome,
    _aggregate_cache,
    run_experiments,
)
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.experiments.test_runners import TINY


@pytest.fixture
def requested_specs(monkeypatch, tmp_path):
    """Run one task in-process at a tiny scale; returns the set of
    ``(config, seed, n_pairs)`` trace specs it asked the cache for."""
    monkeypatch.setattr("repro.experiments.config.DEFAULT_SCALE", TINY)
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
    seen = set()
    real = cache_module._reader

    def recording(n_pairs, config, seed, cache_dir):
        seen.add((config, seed, n_pairs))
        return real(n_pairs, config, seed, cache_dir)

    monkeypatch.setattr(cache_module, "_reader", recording)

    def run(experiment_id, **kwargs):
        seen.clear()
        ParallelExperimentEngine(1).run([ExperimentTask(experiment_id, kwargs)])
        return set(seen)

    return run


class TestTaskPlumbing:
    def test_task_seed_default(self):
        assert ExperimentTask("fig1").seed == DEFAULT_SEED
        assert ExperimentTask("fig1", {"seed": 7}).seed == 7

    def test_trace_specs(self, requested_specs):
        """No table says which experiment wants which trace: the runner
        asks the cache, here through the in-process engine."""
        cfg = MonitorTraceConfig()
        assert requested_specs("fig1") == {
            (cfg, DEFAULT_SEED, TINY.n_blocks * cfg.block_size)
        }
        assert requested_specs("topk-ablation") == requested_specs("fig1")
        # static consumes a longer trace, fig2 one given in pairs.
        assert requested_specs("static") == {
            (cfg, DEFAULT_SEED, TINY.n_blocks_static * cfg.block_size)
        }
        assert requested_specs("fig2") == {
            (cfg, DEFAULT_SEED, TINY.n_pairs_blocksweep)
        }
        # Overlay-driven experiments replay no monitor trace.
        assert requested_specs("churn-sensitivity") == set()

    def test_trace_specs_follow_task_seed(self, requested_specs):
        ((_, seed, _),) = requested_specs("fig1", seed=99)
        assert seed == 99

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelExperimentEngine(-1)


class TestAggregateCache:
    def _outcome(self, pid, stats):
        return TaskOutcome("x", None, 0.0, pid, stats)

    def test_sums_last_snapshot_per_pid(self):
        # Counters are cumulative per process: the second snapshot from
        # pid 1 supersedes the first rather than adding to it.
        outcomes = [
            self._outcome(1, {"hits": 2, "misses": 10, "evictions": 0}),
            self._outcome(1, {"hits": 5, "misses": 12, "evictions": 0}),
            self._outcome(2, {"hits": 3, "misses": 8, "evictions": 1}),
        ]
        totals = _aggregate_cache(outcomes)
        assert totals["hits"] == 8
        assert totals["misses"] == 20
        assert totals["evictions"] == 1
        assert totals["hit_rate"] == pytest.approx(8 / 28)

    def test_handles_missing_stats(self):
        totals = _aggregate_cache([self._outcome(1, None)])
        assert totals["hit_rate"] == 0.0


class TestStrategyCacheEquality:
    """All four strategies produce identical runs cached and uncached."""

    @pytest.fixture(scope="class")
    def blocks(self):
        from repro.trace.blocks import blocks_from_arrays

        arrays = MonitorTraceGenerator(
            MonitorTraceConfig(), seed=11
        ).generate_pair_arrays(6000)
        return blocks_from_arrays(arrays.source, arrays.replier, block_size=1000)

    @pytest.mark.parametrize(
        "strategy_name",
        ["StaticRuleset", "SlidingWindow", "LazySlidingWindow", "AdaptiveSlidingWindow"],
    )
    def test_cached_run_identical(self, blocks, strategy_name):
        import repro.core.strategies as strategies

        make = getattr(strategies, strategy_name)
        plain = make(min_support_count=3).run(blocks)
        with ruleset_cache() as cache:
            cached = make(min_support_count=3).run(blocks)
            # The sweep revisits nothing within one run except Adaptive's
            # regenerations, so hits are strategy-dependent — but every
            # block mined must have gone through the cache.
            assert cache.misses > 0
        assert cached.coverage_series == plain.coverage_series
        assert cached.success_series == plain.success_series
        assert cached.n_generations == plain.n_generations


def trace_files(directory):
    """{name: (inode, mtime_ns)} of everything in a cache directory."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in directory.iterdir()
    }


class TestEngineEquality:
    """Engine runs return bit-identical payloads to plain serial runs,
    off the one trace file the serial runs left."""

    IDS = ("fig1", "topk-ablation")  # both replay the same trace spec

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("engine-traces")
        patch = pytest.MonkeyPatch()
        patch.setenv("REPRO_TRACE_CACHE_DIR", str(directory))
        yield directory
        patch.undo()

    @pytest.fixture(scope="class")
    def serial(self, cache_dir):
        return {
            experiment_id: run_experiment(experiment_id)
            for experiment_id in self.IDS
        }

    @pytest.fixture
    def warm(self, serial, cache_dir, cold_trace_cache, monkeypatch):
        """The serial runs' cache directory, a process that has not
        opened it yet, and a generator that must not be reached (pool
        workers inherit the patch where they are forked)."""
        monkeypatch.setattr(
            MonitorTraceGenerator,
            "generate_pair_arrays",
            lambda self, n_pairs: pytest.fail("a warm run reached the generator"),
        )
        files = trace_files(cache_dir)
        assert len(files) == 1 and all(n.endswith(".rptrace") for n in files)
        return files

    def test_in_process_engine_matches_serial(self, serial, warm, cache_dir):
        run = run_experiments(list(self.IDS), workers=1)
        for outcome in run.outcomes:
            assert (
                outcome.result.payload() == serial[outcome.experiment_id].payload()
            )
        # Both experiments replayed the file already there, untouched.
        assert trace_files(cache_dir) == warm
        assert len(cache_module._READERS) == 1
        # topk-ablation's random-subset replay re-mines blocks its own
        # sweep already mined -> the content-addressed cache must hit.
        assert run.cache["hits"] > 0

    def test_pooled_engine_matches_serial(self, serial, warm, cache_dir):
        run = run_experiments(list(self.IDS), workers=2)
        assert run.workers == 2
        for outcome in run.outcomes:
            assert (
                outcome.result.payload() == serial[outcome.experiment_id].payload()
            )
        assert trace_files(cache_dir) == warm
        assert not cache_module._READERS  # nothing was opened on the workers' behalf
        assert run.cache["hits"] > 0

    def test_cold_pool_publishes_each_trace_whole(
        self, serial, tmp_path, monkeypatch, cold_trace_cache
    ):
        """Two workers start on one spec with nothing cached: whoever
        misses generates and publishes, and what is left is one
        complete file (the step-by-step interleaving is in
        tests/trace/test_cache.py::TestAtomicPublish)."""
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        run = run_experiments(["fig1", "fig1"], workers=2)
        for outcome in run.outcomes:
            assert outcome.result.payload() == serial["fig1"].payload()
        (name,) = trace_files(tmp_path)
        assert name.endswith(".rptrace")
        assert run_experiment("fig1").payload() == serial["fig1"].payload()
        assert list(trace_files(tmp_path)) == [name]


class TestSeedSweepWorkers:
    def test_sweep_identical_serial_and_engine(self):
        from repro.experiments.multi import run_seed_sweep

        seeds = (DEFAULT_SEED, DEFAULT_SEED + 1)
        plain = run_seed_sweep("topk-ablation", seeds=seeds)
        engine = run_seed_sweep("topk-ablation", seeds=seeds, workers=1)
        assert engine == plain
