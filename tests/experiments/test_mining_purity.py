"""What stands where the ruleset cache stood: nothing.

The content-addressed ``RulesetCache`` (``repro.parallel.cache``) is
gone — strategies and ``topk-ablation`` call ``generate_ruleset``
directly.  Each test keeps its old name and now checks the property its
cache test rested on, or the one the removal must leave true: mining is
a pure function of block content and parameters (what made caching
sound, and what still makes the loop and the pool agree), every visit
mines, no rule set outlives its use, and no process-wide switch is left.
"""

import gc
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
import weakref

import pytest

import repro.core.strategies as strategies
from repro.core.generation import generate_ruleset
from repro.core.strategies import SlidingWindow
from repro.experiments.registry import run_experiments
from repro.obs.registry import get_global_registry
from tests.conftest import make_block
from tests.experiments.test_runners import TINY


def block_a(index=0):
    # source 1 has two consequents over the default threshold, source 2's
    # pair sits between 5 and 10: each mining parameter changes the rules.
    return make_block(
        [(1, 10)] * 15 + [(1, 11)] * 12 + [(2, 20)] * 7 + [(3, 30)] * 11, index=index
    )


def block_b():
    return make_block([(4, 40)] * 15 + [(5, 50)] * 12, index=1)


def block_c():
    return make_block([(6, 60)] * 20, index=2)


def rules(ruleset):
    return [(r.antecedent, r.consequent, r.count) for r in ruleset]


@pytest.fixture
def mined(monkeypatch):
    """``(refs, alive_before)``: a weak reference to every rule set a
    strategy mines, in order, and how many of the earlier ones were
    still alive each time it mined."""
    refs, alive_before = [], []
    real = strategies.generate_ruleset

    def spy(block, **params):
        alive_before.append(sum(ref() is not None for ref in refs))
        ruleset = real(block, **params)
        refs.append(weakref.ref(ruleset))
        return ruleset

    monkeypatch.setattr(strategies, "generate_ruleset", spy)
    return refs, alive_before


class TestAccounting:
    def test_miss_then_hit(self):
        """A second visit mines again: equal rules, a new object."""
        block = block_a()
        first = generate_ruleset(block)
        second = generate_ruleset(block)
        assert second is not first
        assert rules(second) == rules(first) != []

    def test_identical_content_distinct_objects_hit(self):
        """Rules follow content, not object identity or block index."""
        one, other = block_a(index=0), block_a(index=7)
        assert one.fingerprint() == other.fingerprint()
        assert rules(generate_ruleset(one)) == rules(generate_ruleset(other))

    def test_content_change_misses(self):
        changed = make_block(
            [(1, 10)] * 15 + [(1, 11)] * 12 + [(2, 20)] * 7 + [(3, 31)] * 11
        )
        assert changed.fingerprint() != block_a().fingerprint()
        assert rules(generate_ruleset(changed)) != rules(generate_ruleset(block_a()))

    @pytest.mark.parametrize(
        "params",
        [
            {"min_support_count": 5},
            {"top_k": 1},
            {"min_confidence": 0.5},
        ],
    )
    def test_param_change_misses(self, params):
        """Each mining parameter reaches generation from a strategy."""
        block = block_a()
        default = SlidingWindow()._generate(block)
        assert rules(SlidingWindow(**params)._generate(block)) != rules(default)
        assert rules(SlidingWindow(**params)._generate(block)) == rules(
            generate_ruleset(block, **params)
        )

    def test_cached_result_equals_plain_generation(self):
        block = block_a()
        through_strategy = SlidingWindow(min_support_count=5, top_k=2)._generate(block)
        plain = generate_ruleset(block, min_support_count=5, top_k=2)
        assert rules(through_strategy) == rules(plain)

    def test_stats_snapshot_is_picklable(self):
        """What a pool worker ships back is the run itself, whole."""
        (run,) = run_experiments(["fig1"], scale=TINY)
        shipped = pickle.loads(pickle.dumps(run))
        assert shipped.result.payload() == run.result.payload()
        assert (shipped.seed, shipped.seconds, shipped.pid) == (
            run.seed, run.seconds, os.getpid()
        )

    def test_empty_cache_hit_rate(self):
        """A mined run registers no ruleset-cache series."""
        list(run_experiments(["fig1"], scale=TINY))
        registry = get_global_registry()
        assert registry.family("repro_offline_mine_seconds") is not None
        for name in ("hits_total", "misses_total", "evictions_total", "size"):
            assert registry.family(f"repro_ruleset_cache_{name}") is None


class TestLRU:
    BLOCKS = [block_a(), block_b(), block_c(), block_a(index=3), block_b()]

    def test_eviction_at_capacity(self, mined):
        """A sweep holds one rule set at a time: when a strategy mines
        its next, at most the one it is about to replace is alive."""
        refs, alive_before = mined
        run = SlidingWindow().run(self.BLOCKS)
        assert len(refs) == run.n_generations == len(self.BLOCKS) - 1
        assert max(alive_before) <= 1

    def test_hit_refreshes_recency(self):
        """What was mined in between carries nothing over to a revisit."""
        first = generate_ruleset(block_a())
        generate_ruleset(block_b())
        generate_ruleset(block_c())
        assert rules(generate_ruleset(block_a())) == rules(first)

    def test_clear(self, mined):
        """A finished run keeps its trials and none of its rule sets."""
        refs, _ = mined
        run = SlidingWindow().run(self.BLOCKS)
        gc.collect()
        assert run.n_trials == len(refs) > 0
        assert all(ref() is None for ref in refs)

    def test_rejects_bad_maxsize(self):
        """A bad mining parameter meets generation's own check."""
        with pytest.raises(ValueError, match="top_k"):
            SlidingWindow(top_k=0).run(self.BLOCKS)


class TestProcessWideInstallation:
    def test_disabled_by_default(self):
        """``repro.parallel`` is the partitioned evaluation and nothing
        else, and mining through a strategy never loads it."""
        import repro.parallel

        modules = pkgutil.iter_modules(repro.parallel.__path__)
        assert [module.name for module in modules] == ["partition"]
        probe = (
            "import sys; from repro.core.strategies import SlidingWindow; "
            "from tests.conftest import make_block; "
            "SlidingWindow()._generate(make_block([(1, 2)] * 12)); "
            "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"

    def test_configure_and_disable(self):
        for module in ("cache", "engine"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.parallel.{module}")

    def test_context_manager_restores_previous(self, monkeypatch):
        """The scale is an argument: it beats the environment, and a run
        leaves the environment and the default as it found them."""
        import repro.experiments.config as config

        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        before = (dict(os.environ), config.DEFAULT_SCALE)
        (run,) = run_experiments(["fig1"], scale=TINY)
        assert len(run.result.series["coverage"]) == TINY.n_blocks - 1
        assert (dict(os.environ), config.DEFAULT_SCALE) == before

    def test_context_manager_restores_none(self, monkeypatch):
        """Without one, each call reads the environment afresh."""
        import repro.experiments.registry as registry

        seen = []

        def probe(ctx):
            seen.append(ctx.scale.name)
            return ctx.result([])

        monkeypatch.setattr(registry, "EXPERIMENTS", {"probe": ("t", probe)})
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        list(run_experiments(["probe"]))
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        list(run_experiments(["probe", "probe"]))
        monkeypatch.delenv("REPRO_FULL_SCALE")
        list(run_experiments(["probe"]))
        assert seen == ["default", "full", "full", "default"]
