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

    from repro.experiments import run_experiment
    print(run_experiment("fig1").report())
"""

from repro.core import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    RuleSet,
    SlidingWindow,
    StaticRuleset,
    StreamingRules,
    generate_ruleset,
    ruleset_test,
)
from repro.experiments import run_experiment
from repro.trace import PairBlock, blocks_from_arrays
from repro.workload import MonitorTraceConfig, MonitorTraceGenerator

__version__ = "1.0.0"

__all__ = [
    "AdaptiveSlidingWindow",
    "LazySlidingWindow",
    "MonitorTraceConfig",
    "MonitorTraceGenerator",
    "PairBlock",
    "RuleSet",
    "SlidingWindow",
    "StaticRuleset",
    "StreamingRules",
    "__version__",
    "blocks_from_arrays",
    "generate_ruleset",
    "run_experiment",
    "ruleset_test",
]
