"""The paper's contribution: association-rule query routing.

Rules here are the specialization described in §III-B.1 of the paper:
``{host1} -> {host2}`` where *host1* is a neighbor the monitor node receives
queries from and *host2* is the neighbor that was the next hop on a path
that previously produced hits for host1's queries.  Both sides are single
items, which makes generation (pair counting + support pruning) and testing
cheap enough to run per block.

* :mod:`~repro.core.rules` — :class:`Rule` and :class:`RuleSet`, the batch table;
* :mod:`~repro.core.generation` — GENERATE-RULESET, with optional top-k
  truncation and confidence pruning (the §VI extension);
* :mod:`~repro.core.evaluation` — RULESET-TEST computing the paper's
  coverage (alpha) and success (rho) measures;
* :mod:`~repro.core.thresholds` — rolling-mean thresholds for the adaptive
  strategy;
* :mod:`~repro.core.strategies` — STATIC-RULESET, SLIDING-WINDOW,
  LAZY-SLIDING-WINDOW, ADAPTIVE-SLIDING-WINDOW drivers;
* :mod:`~repro.core.counts` — the online pair-count table (exact window
  or lossy sketch) under every rule set that learns event by event;
* :mod:`~repro.core.streaming` — the future-work strategy that updates
  rules immediately as pairs arrive;
* :mod:`~repro.core.runner` — trace -> strategy -> :class:`StrategyRun`.
"""
