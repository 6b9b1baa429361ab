"""repro — reproduction of "Adaptively Routing P2P Queries Using
Association Analysis" (Connelly, Bowron, Xiao, Tan & Wang, ICPP 2006).

The package implements the paper's association-rule query routing for
unstructured P2P networks plus every substrate its evaluation depends on:

* :mod:`repro.core` — rule sets, GENERATE-RULESET / RULESET-TEST, the
  four maintenance strategies (Static, Sliding, Lazy, Adaptive), the
  streaming extension, and the online pair counts (exact window or
  lossy sketch) under every live rule table;
* :mod:`repro.workload` — the calibrated synthetic monitor-node trace
  standing in for the paper's proprietary 7-day Gnutella capture;
* :mod:`repro.trace` — the paper's import pipeline (GUID dedup,
  query–reply join, blocks) as array passes over column logs, and the
  on-disk trace store;
* :mod:`repro.network` / :mod:`repro.routing` — an online overlay
  simulator with flooding, expanding ring, k-random walks, shortcuts,
  routing indices, and association routing;
* :mod:`repro.experiments` — one seeded runner per paper figure/result.

Quickstart::

    from repro.experiments.registry import run_experiment
    print(run_experiment("fig1").report())
"""

import importlib

__version__ = "1.0.0"

#: the top-level names, by the module each lives in; a module is imported
#: when one of its names is first asked for, so importing one module
#: (``repro.trace.store``, say) loads only what that module imports.
_EXPORTS = {
    "repro.core.evaluation": "ruleset_test",
    "repro.core.generation": "generate_ruleset",
    "repro.core.rules": "RuleSet",
    "repro.core.strategies": "AdaptiveSlidingWindow LazySlidingWindow "
    "SlidingWindow StaticRuleset",
    "repro.core.streaming": "StreamingRules",
    "repro.experiments.registry": "run_experiment",
    "repro.trace.blocks": "PairBlock blocks_from_arrays",
    "repro.workload.tracegen": "MonitorTraceConfig MonitorTraceGenerator",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(_HOMES[name]), name)
