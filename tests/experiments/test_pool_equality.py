"""The executor (``repro.experiments.registry.run_experiments``) where
the parallel engine's tests stood.

The engine and its ruleset cache are gone; each test that could keep
its subject was re-pointed at the one executor and keeps its old name
(``TestStrategyCacheEquality`` now holds every strategy to one direct
``generate_ruleset`` call per generation).  The golden-payload suite for the whole table is
``tests/experiments/test_executor.py``.

The expensive guarantee — payloads bit-identical to a plain
``run_experiment`` call, through the loop and through a pool — is
exercised on real registered experiments at the default scale, so a few
of these tests take seconds.
"""

import pytest

import repro.trace.cache as cache_module
from repro.experiments.config import DEFAULT_SEED
from repro.experiments.multi import aggregate_sweep
from repro.experiments.registry import run_experiment, run_experiments
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator
from tests.experiments.test_runners import TINY


@pytest.fixture
def requested_specs(monkeypatch, tmp_path):
    """Run one task through the loop at a tiny scale; returns the set of
    ``(config, seed, n_pairs)`` trace specs it asked the cache for."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
    seen = set()
    real = cache_module._reader

    def recording(n_pairs, config, seed, cache_dir):
        seen.add((config, seed, n_pairs))
        return real(n_pairs, config, seed, cache_dir)

    monkeypatch.setattr(cache_module, "_reader", recording)

    def run(experiment_id, **kwargs):
        seen.clear()
        list(run_experiments([experiment_id], workers=1, scale=TINY, **kwargs))
        return set(seen)

    return run


class TestTaskPlumbing:
    def test_task_seed_default(self):
        (default,) = run_experiments(["fig1"], scale=TINY)
        assert default.seed == DEFAULT_SEED
        (seven,) = run_experiments(["fig1"], seeds=[7], scale=TINY)
        assert seven.seed == 7
        assert seven.result.payload() != default.result.payload()

    def test_trace_specs(self, requested_specs):
        """No table says which experiment wants which trace: the
        experiment asks the cache, here through the executor's loop."""
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
        ((_, seed, _),) = requested_specs("fig1", seeds=[99])
        assert seed == 99

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            run_experiments(["fig1"], workers=-1)


class TestStrategyCacheEquality:
    """Nothing stands between a strategy and GENERATE-RULESET: every
    generation is one direct call with the strategy's parameters, and a
    second run over the same blocks mines again and gets the same run."""

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
    def test_cached_run_identical(self, blocks, strategy_name, monkeypatch):
        import repro.core.strategies as strategies

        mined = []

        def spy(block, **params):
            mined.append((block.index, params))
            return real(block, **params)

        real = strategies.generate_ruleset
        monkeypatch.setattr(strategies, "generate_ruleset", spy)
        make = getattr(strategies, strategy_name)
        first = make(min_support_count=3).run(blocks)
        n_first = len(mined)
        second = make(min_support_count=3).run(blocks)
        assert second == first
        assert n_first == first.n_generations > 0
        assert mined[n_first:] == mined[:n_first]
        assert all(
            params == {"min_support_count": 3, "top_k": None, "min_confidence": 0.0}
            for _, params in mined
        )


def trace_files(directory):
    """{name: (inode, mtime_ns)} of everything in a cache directory."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in directory.iterdir()
    }


class TestEngineEquality:
    """Executor runs return bit-identical payloads to plain
    ``run_experiment`` calls, off the one trace file those left."""

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
        for run in run_experiments(self.IDS, workers=1):
            assert run.result.payload() == serial[run.result.experiment_id].payload()
        # Both experiments replayed the file already there, untouched.
        assert trace_files(cache_dir) == warm
        assert len(cache_module._READERS) == 1

    def test_pooled_engine_matches_serial(self, serial, warm, cache_dir):
        import os

        runs = list(run_experiments(self.IDS, workers=2))
        assert os.getpid() not in {run.pid for run in runs}
        for run in runs:
            assert run.result.payload() == serial[run.result.experiment_id].payload()
        assert trace_files(cache_dir) == warm
        assert not cache_module._READERS  # nothing was opened on the workers' behalf

    def test_cold_pool_publishes_each_trace_whole(
        self, serial, tmp_path, monkeypatch, cold_trace_cache
    ):
        """Two workers start on one spec with nothing cached: whoever
        misses generates and publishes, and what is left is one
        complete file (the step-by-step interleaving is in
        tests/trace/test_cache.py::TestAtomicPublish)."""
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        for run in run_experiments(["fig1", "fig1"], workers=2):
            assert run.result.payload() == serial["fig1"].payload()
        (name,) = trace_files(tmp_path)
        assert name.endswith(".rptrace")
        assert run_experiment("fig1").payload() == serial["fig1"].payload()
        assert list(trace_files(tmp_path)) == [name]


class TestSeedSweepWorkers:
    def test_sweep_identical_serial_and_engine(self):
        seeds = (DEFAULT_SEED, DEFAULT_SEED + 1)

        def sweep(workers):
            return aggregate_sweep(
                run_experiments(
                    ["topk-ablation"], seeds=seeds, workers=workers, scale=TINY
                )
            )

        assert sweep(2) == sweep(0)
