"""Traffic accounting for the online overlay simulator.

The motivation of the paper is reducing the number of query messages
flooded through the network while still finding content.  These counters
capture exactly that trade-off per routing strategy: messages sent,
duplicate deliveries, hit rate, and hop counts of first hits.

They also carry the paper's two rule-quality measures, generalized to
online routing so every network variant (flat association routing, the
seed super-peer flooding baseline, the two-tier rule tier) reports them
identically:

* coverage ``alpha`` — fraction of queries whose antecedent was covered
  by a rule at routing time (a flooding baseline covers nothing, so its
  alpha is 0 by construction — which is what makes it comparable);
* success ``rho`` — fraction of *covered* queries that the rule-routed
  attempt actually resolved (before any flooding fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.utils.stats import RunningStats

__all__ = ["QueryOutcome", "TrafficStats"]


class QueryOutcome(NamedTuple):
    """Result of one query issued in the overlay simulator (a named
    tuple: every simulated query makes one or two, so it costs no
    ``__init__``)."""

    query_id: int
    messages: int  # query messages transmitted on behalf of this query
    hits: int  # number of distinct providers found
    first_hit_hops: int | None  # hops to the first hit (None if no hit)
    duplicates: int  # deliveries suppressed as duplicates
    #: a rule covered this query's antecedent at routing time.
    rule_covered: bool = False
    #: the rule-routed attempt itself found a hit (no fallback needed).
    rule_succeeded: bool = False

    @property
    def succeeded(self) -> bool:
        return self.hits > 0

    def on_top_of(self, messages: int, duplicates: int = 0) -> "QueryOutcome":
        """This attempt charged on top of the earlier, failed attempts of
        the same query: their ``messages`` and ``duplicates`` are added,
        the hits, the hop count and the rule flags stay this attempt's
        (§III-B's honest fallback accounting)."""
        qid, sent, hits, hops, dups, covered, resolved = self
        return QueryOutcome._make(
            (qid, sent + messages, hits, hops, dups + duplicates, covered, resolved)
        )


@dataclass
class TrafficStats:
    """Aggregate traffic statistics over many queries."""

    n_queries: int = 0
    n_succeeded: int = 0
    total_messages: int = 0
    total_duplicates: int = 0
    total_hits: int = 0
    n_rule_covered: int = 0
    n_rule_succeeded: int = 0
    hop_stats: RunningStats = field(default_factory=RunningStats)
    message_stats: RunningStats = field(default_factory=RunningStats)

    def record(self, outcome: QueryOutcome) -> None:
        _query_id, messages, hits, hops, duplicates, covered, resolved = outcome
        self.n_queries += 1
        self.total_messages += messages
        self.total_duplicates += duplicates
        self.total_hits += hits
        self.message_stats.push(messages)
        if covered:
            self.n_rule_covered += 1
            if resolved:
                self.n_rule_succeeded += 1
        if hits > 0:
            self.n_succeeded += 1
            if hops is not None:
                self.hop_stats.push(hops)

    @property
    def success_rate(self) -> float:
        """Fraction of queries that found at least one provider."""
        return self.n_succeeded / self.n_queries if self.n_queries else 0.0

    @property
    def messages_per_query(self) -> float:
        return self.total_messages / self.n_queries if self.n_queries else 0.0

    @property
    def mean_first_hit_hops(self) -> float:
        return self.hop_stats.mean

    @property
    def coverage_alpha(self) -> float:
        """Paper's alpha: fraction of queries covered by a rule."""
        return self.n_rule_covered / self.n_queries if self.n_queries else 0.0

    @property
    def success_rho(self) -> float:
        """Paper's rho: fraction of covered queries the rules resolved."""
        return (
            self.n_rule_succeeded / self.n_rule_covered
            if self.n_rule_covered
            else 0.0
        )

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return (
            f"queries={self.n_queries} success={self.success_rate:.3f} "
            f"msgs/query={self.messages_per_query:.1f} "
            f"hops={self.mean_first_hit_hops:.2f}"
        )
