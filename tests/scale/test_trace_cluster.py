"""Cross-node tracing and the collector, live.

The acceptance path for the observability layer: two servents, each with
its own registry, tracer and obs endpoint (two ``live-node
--metrics-port`` daemons in one process), and a query issued at one must
yield ONE merged trace via ``repro.obs.collect`` — issued,
rule-routed/flooded with the matched rule's
antecedent/consequent/confidence, hit, delivered — while the collector's
live quality measures agree with the servents' own counters.  The
servents and their HTTP servers share the test's event loop, so the
collector's blocking poll runs in a thread.
"""

import asyncio
import contextlib

import pytest

from repro.live.cluster import harness_config
from repro.live.node import LiveServent
from repro.live.stats import combine_stats
from repro.network.servent import LOCAL, SharedFile
from repro.obs.collect import (
    ClusterTraceCollector,
    format_cluster_rollup,
    format_trace_tree,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import QueryTracer

VOCAB = ["alpha", "bravo", "charlie", "delta"]


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def wait_until(predicate, *, timeout=20.0, message="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


@contextlib.asynccontextmanager
async def traced_pair():
    """Node ``i`` shares ``VOCAB[i::2]``; node 0 dials node 1."""
    nodes = [
        LiveServent(
            i,
            library=[
                SharedFile(index=j, name=f"{term} track{j}.mp3", size=1 << 20)
                for j, term in enumerate(VOCAB[i::2])
            ],
            rule_routed=True,
            config=harness_config(),
            registry=MetricsRegistry(),
            tracer=QueryTracer(sample=1),
            obs_port=0,
        )
        for i in range(2)
    ]
    try:
        for node in nodes:
            await node.start()
        nodes[0].add_peer(nodes[1].host, nodes[1].port, peer_id=1)
        await wait_until(
            lambda: all(node.connected_peers for node in nodes),
            message="peers to connect",
        )
        yield nodes
    finally:
        await asyncio.gather(*(node.close() for node in nodes))


async def query_bravo(nodes, n_queries):
    """"bravo" lives on node 1; issue from node 0 so every query crosses
    between the two.  Sequential waits let rules learn between queries:
    the first queries flood, and once the (LOCAL -> peer) pair reaches
    min_support_count=2 the later ones rule-route."""
    for i in range(n_queries):
        nodes[0].issue_query("bravo")
        await wait_until(
            lambda want=i + 1: nodes[0].stats.hits_received >= want,
            message=f"hit {i + 1}",
        )


async def polled_collector(nodes) -> ClusterTraceCollector:
    collector = ClusterTraceCollector(
        [(node.node_id, f"http://{node.host}:{node.obs_port}") for node in nodes]
    )
    await asyncio.to_thread(collector.poll)
    return collector


@pytest.mark.live
class TestTracedCluster:
    def test_merged_cross_node_trace_with_explainability(self):
        async def body():
            async with traced_pair() as nodes:
                await query_bravo(nodes, 4)
                return await polled_collector(nodes)

        collector = run(body())
        # one merged trace per query, spanning both nodes.
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
            e.reason == "no_covering_rule" for e in forwards if e.kind == "flooded"
        )
        rule_routed = [e for e in forwards if e.kind == "rule_routed"]
        assert rule_routed, "warmup queries never promoted a rule"
        origin_rules = [e for e in rule_routed if e.antecedent == LOCAL]
        assert origin_rules
        assert all(e.consequent is not None for e in rule_routed)
        assert all(
            e.support >= 2 and 0.0 < e.confidence <= 1.0 for e in origin_rules
        )

        # the rendered artifacts exist and carry the story.
        tree = format_trace_tree(trace)
        assert "answered" in tree and "node 1" in tree
        rollup = format_cluster_rollup(collector)
        assert "**cluster**" in rollup

    def test_collector_quality_matches_servent_counters(self):
        async def body():
            async with traced_pair() as nodes:
                await query_bravo(nodes, 3)
                collector = await polled_collector(nodes)
                totals = combine_stats({node.node_id: node.stats for node in nodes})
            return collector, totals

        collector, totals = run(body())
        for field in (
            "queries_issued",
            "hits_received",
            "queries_rule_routed",
            "queries_flooded",
        ):
            assert collector.cluster[field] == pytest.approx(totals[field])
        quality = collector.live_quality()
        decisions = totals["queries_rule_routed"] + totals["queries_flooded"]
        assert quality["alpha"] == pytest.approx(
            totals["queries_rule_routed"] / decisions
        )
        assert quality["rho"] == pytest.approx(
            totals["hits_received"] / totals["queries_issued"]
        )
