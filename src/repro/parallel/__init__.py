"""repro.parallel — parallel experiment engine, partitioned store
evaluation, and the content-addressed ruleset cache.

Layering note: :mod:`repro.core.strategies` consults
:mod:`repro.parallel.cache` on its mining path, while
:mod:`repro.parallel.engine` sits *above* the experiment registry.  This
package init therefore resolves its exports lazily so importing the
low-level cache never drags the engine (and with it the whole experiment
layer) into the import graph.
"""

from __future__ import annotations

__all__ = [
    "BlockShard",
    "EngineRun",
    "ExperimentTask",
    "ParallelExperimentEngine",
    "RulesetCache",
    "TaskOutcome",
    "cached_generate_ruleset",
    "configure_ruleset_cache",
    "disable_ruleset_cache",
    "evaluate_store",
    "evaluate_store_partitioned",
    "get_ruleset_cache",
    "plan_shards",
    "ruleset_cache",
    "run_experiments",
    "run_shard",
]

_CACHE_NAMES = {
    "RulesetCache",
    "cached_generate_ruleset",
    "configure_ruleset_cache",
    "disable_ruleset_cache",
    "get_ruleset_cache",
    "ruleset_cache",
}
_ENGINE_NAMES = {
    "EngineRun",
    "ExperimentTask",
    "ParallelExperimentEngine",
    "TaskOutcome",
    "run_experiments",
}
_PARTITION_NAMES = {
    "BlockShard",
    "evaluate_store",
    "evaluate_store_partitioned",
    "plan_shards",
    "run_shard",
}


def __getattr__(name: str):
    if name in _CACHE_NAMES:
        from repro.parallel import cache as module
    elif name in _ENGINE_NAMES:
        from repro.parallel import engine as module
    elif name in _PARTITION_NAMES:
        from repro.parallel import partition as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(__all__)
