"""Cross-process tracing and the collector, live.

The acceptance path for the observability layer: a query issued through
the multi-process ``ClusterSupervisor`` must yield ONE merged trace via
``repro.obs.collect`` — issued, rule-routed/flooded with the matched
rule's antecedent/consequent/confidence, hit, delivered — and the
collector's live quality measures must agree with the servents' own
counters.
"""

import time

import pytest

from repro.network.servent import LOCAL
from repro.network.topology import Topology
from repro.obs.collect import format_cluster_rollup, format_trace_tree
from repro.scale.supervisor import ClusterSupervisor, partitioned_specs

VOCAB = ["alpha", "bravo", "charlie", "delta"]


def wait_until(predicate, *, timeout=20.0, interval=0.1, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"timed out waiting for {message}")


def traced_supervisor():
    specs = partitioned_specs(2, VOCAB, trace_sample=1)
    return ClusterSupervisor(specs, topology=Topology(2, [(0, 1)]))


@pytest.mark.live
class TestTracedCluster:
    def test_merged_cross_node_trace_with_explainability(self):
        with traced_supervisor() as sup:
            wait_until(
                lambda: all(
                    payload["connected_peers"]
                    for payload in sup.stats().values()
                ),
                message="peers to connect",
            )
            # "bravo" lives on node 1; issue from node 0 so every query
            # crosses the process boundary.  Sequential waits let rules
            # learn between queries: the first queries flood, and once
            # the (LOCAL -> peer) pair reaches min_support_count=2 the
            # later ones rule-route.
            for i in range(4):
                sup.issue_query(0, "bravo")
                wait_until(
                    lambda want=i + 1: (
                        sup.stats()[0]["counters"]["hits_received"] >= want
                    ),
                    message=f"hit {i + 1}",
                )

            collector = sup.collector()
            collector.poll()

            # one merged trace per query, spanning both processes.
            assert len(collector.traces) == 4
            answered = collector.answered_guids()
            assert answered
            trace = collector.traces[collector.best_guid()]
            kinds = trace.kinds()
            assert kinds[0] == "issued"
            assert "hit" in kinds and "delivered" in kinds
            assert {e.node for e in trace.events} == {0, 1}
            assert trace.answered

            # every forwarding decision carries its explanation.
            forwards = [
                e
                for t in collector.traces.values()
                for e in t.events
                if e.kind in ("rule_routed", "flooded")
            ]
            assert forwards
            assert all(
                e.reason == "no_covering_rule"
                for e in forwards
                if e.kind == "flooded"
            )
            rule_routed = [e for e in forwards if e.kind == "rule_routed"]
            assert rule_routed, "warmup queries never promoted a rule"
            origin_rules = [e for e in rule_routed if e.antecedent == LOCAL]
            assert origin_rules
            assert all(e.consequent is not None for e in rule_routed)
            assert all(
                e.support >= 2 and 0.0 < e.confidence <= 1.0
                for e in origin_rules
            )

            # the rendered artifacts exist and carry the story.
            tree = format_trace_tree(trace)
            assert "answered" in tree and "node 1" in tree
            rollup = format_cluster_rollup(collector)
            assert "**cluster**" in rollup

    def test_collector_quality_matches_servent_counters(self):
        with traced_supervisor() as sup:
            wait_until(
                lambda: all(
                    payload["connected_peers"]
                    for payload in sup.stats().values()
                ),
                message="peers to connect",
            )
            for i in range(3):
                sup.issue_query(0, "bravo")
                wait_until(
                    lambda want=i + 1: (
                        sup.stats()[0]["counters"]["hits_received"] >= want
                    ),
                    message=f"hit {i + 1}",
                )
            collector = sup.collector()
            collector.poll()
            totals = sup.totals()
            assert collector.cluster["issued"] == pytest.approx(
                totals["queries_issued"]
            )
            assert collector.cluster["hits"] == pytest.approx(
                totals["hits_received"]
            )
            assert collector.cluster["rule"] == pytest.approx(
                totals["queries_rule_routed"]
            )
            assert collector.cluster["flood"] == pytest.approx(
                totals["queries_flooded"]
            )
            quality = collector.live_quality()
            decisions = (
                totals["queries_rule_routed"] + totals["queries_flooded"]
            )
            assert quality["alpha"] == pytest.approx(
                totals["queries_rule_routed"] / decisions
            )
            assert quality["rho"] == pytest.approx(
                totals["hits_received"] / totals["queries_issued"]
            )
