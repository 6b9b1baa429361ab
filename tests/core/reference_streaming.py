"""The per-pair §VI loop ``StreamingRules.run`` is defined by, kept as an
oracle.

``repro.core.streaming.StreamingRules.run`` folds a whole block into its
counts with array passes; this is the loop that used to be its body —
``covers``, ``matches`` and ``observe`` once per pair on the
``repro.core.counts`` table ``make_counts()`` hands out.  The loop body is
unchanged; the differential tests run both and compare.
"""

from repro.core.evaluation import RulesetTestResult
from repro.core.runner import StrategyRun, TrialResult


def reference_streaming_run(strategy, blocks) -> StrategyRun:
    """Prequential test-then-train, one pair at a time, on
    ``strategy.make_counts()``."""
    it = iter(blocks)
    warmup = next(it, None)
    if warmup is None:
        raise ValueError("streaming needs at least 2 blocks")
    counts = strategy.make_counts()
    for source, replier in zip(warmup.sources.tolist(), warmup.repliers.tolist()):
        counts.observe(source, replier)
    trials = []
    for block in it:
        n_covered = 0
        n_successful = 0
        for source, replier in zip(block.sources.tolist(), block.repliers.tolist()):
            if counts.covers(source):
                n_covered += 1
                if counts.matches(source, replier):
                    n_successful += 1
            counts.observe(source, replier)
        trials.append(
            TrialResult(
                block_index=block.index,
                result=RulesetTestResult(
                    n_total=len(block),
                    n_covered=n_covered,
                    n_successful=n_successful,
                ),
                fresh_ruleset=True,
                ruleset_size=counts.n_rules(),
            )
        )
    if not trials:
        raise ValueError("streaming needs at least 2 blocks")
    return StrategyRun(strategy.name, tuple(trials), n_generations=0)
