"""Live-stack observability: scrapes, traces and eager counters.

Boots real loopback clusters with ``observe=True`` and checks the
tentpole end to end: one shared registry renders per-node Prometheus
series for the whole cluster, and one shared tracer reconstructs a
query's hop-by-hop path across every node it crossed.
"""

import asyncio
import urllib.request

import numpy as np
import pytest

from repro.live.cluster import LiveCluster, harness_config, make_vocabulary
from repro.live.node import LiveServent
from repro.network.topology import Topology
from repro.obs.collect import format_trace_tree
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import QueryTracer


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def star(n: int) -> Topology:
    return Topology(n, [(0, i) for i in range(1, n)])


async def _warmed_cluster_body(check):
    """Star cluster, rule-routed, observed; repeat queries to grow rules."""
    vocab = make_vocabulary(8)
    async with LiveCluster(
        star(4),
        rule_routed=True,
        top_k=1,
        config=harness_config(),
        observe=True,
    ) as cluster:
        cluster.stock_partitioned_library(vocab)
        rng = np.random.default_rng(7)
        terms = [t for i, t in enumerate(vocab) if i % 4 != 1]
        for _ in range(30):
            await cluster.query(1, terms[int(rng.integers(0, len(terms)))])
        await check(cluster)


class TestClusterScrape:
    def test_metrics_cover_every_claimed_family(self):
        async def check(cluster):
            text = cluster.render_metrics()
            # α/ρ per node (the paper's self-measurement quantities).
            assert 'repro_routing_coverage{node="1"}' in text
            assert 'repro_routing_success{node="1"}' in text
            # traffic counters with direction labels.
            assert 'repro_frames_total{node="0",direction="in"}' in text
            assert 'repro_bytes_total{node="0",direction="out"}' in text
            # the decode-latency histogram recorded real observations.
            assert 'repro_decode_seconds_bucket{node="0",le="+Inf"}' in text
            count_line = next(
                line
                for line in text.splitlines()
                if line.startswith('repro_decode_seconds_count{node="0"}')
            )
            assert float(count_line.split()[-1]) > 0
            # routing decisions split rule vs flood.
            assert 'repro_routing_decisions_total{node="0",decision="rule"}' in text
            assert 'repro_rules_active{node="0"}' in text

        run(_warmed_cluster_body(check))

    def test_success_gauge_matches_stats(self):
        async def check(cluster):
            text = cluster.render_metrics()
            stats = cluster.nodes[1].stats
            expected = stats.hits_received / stats.queries_issued
            line = next(
                l
                for l in text.splitlines()
                if l.startswith('repro_routing_success{node="1"}')
            )
            assert float(line.split()[-1]) == pytest.approx(expected)

        run(_warmed_cluster_body(check))

    def test_unobserved_cluster_refuses_scrape(self):
        cluster = LiveCluster(star(2))
        with pytest.raises(RuntimeError):
            cluster.render_metrics()
        with pytest.raises(RuntimeError):
            cluster.trace(1)


class TestClusterTrace:
    def test_answered_query_has_full_path(self):
        async def check(cluster):
            answered = [
                (node_id, term, guid)
                for node_id, term, guid in cluster.issued
                if cluster.trace(guid) is not None
                and cluster.trace(guid).answered
            ]
            assert answered
            _node_id, term, guid = answered[-1]
            trace = cluster.trace(guid)
            kinds = trace.kinds()
            assert kinds[0] == "issued"
            assert "received" in kinds
            assert "hit" in kinds
            # sibling flood branches may still land events afterwards, so
            # "delivered" is present but not necessarily last.
            assert "delivered" in kinds
            assert trace.events[0].info == term
            text = format_trace_tree(trace)
            assert text.startswith(f"query {guid:#x} — answered,")
            assert f"node {_node_id} — issued[{term}]" in text

        run(_warmed_cluster_body(check))

    def test_unanswered_query_traces_timeout(self):
        async def body():
            vocab = make_vocabulary(4)
            async with LiveCluster(
                star(3), config=harness_config(), observe=True
            ) as cluster:
                cluster.stock_partitioned_library(vocab)
                hits = await cluster.query(1, "kwmissing")
                assert hits == 0
                _node, _term, guid = cluster.issued[-1]
                kinds = cluster.trace(guid).kinds()
                assert "timeout" in kinds
                assert "flooded" in kinds  # plain servents flood
                assert cluster.trace(0xDEAD) is None

        run(body())


class TestEagerStats:
    def test_rule_counters_current_mid_run_without_snapshot(self):
        async def check(cluster):
            # Satellite fix: StreamingRuleServent tallies into the node's
            # stats object as decisions happen — no back-fill at snapshot
            # time — so a mid-run reader sees live values.
            node = cluster.nodes[0]
            stats = node.stats
            assert stats.queries_rule_routed + stats.queries_flooded > 0
            assert node.servent.stats is stats
            assert node.snapshot()["queries_rule_routed"] == (
                stats.queries_rule_routed
            )

        run(_warmed_cluster_body(check))


class TestNodeEndpoint:
    def test_live_servent_serves_metrics_and_health_over_http(self):
        async def body():
            node = LiveServent(
                3,
                rule_routed=True,
                registry=MetricsRegistry(),
                tracer=QueryTracer(),
                obs_port=0,
            )
            await node.start()
            try:
                base = f"http://127.0.0.1:{node.obs_port}"
                metrics = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(f"{base}/metrics").read()
                )
                health = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(f"{base}/healthz").read()
                )
            finally:
                await node.close()
            assert b'repro_connected_peers{node="3"} 0' in metrics
            assert b'"status": "ok"' in health

        run(body())

    def test_obs_port_requires_registry(self):
        with pytest.raises(ValueError):
            LiveServent(1, obs_port=0)


class TestDisabledPath:
    def test_default_node_carries_no_instruments(self):
        node = LiveServent(0, rule_routed=True)
        assert node.instruments is None
        assert node.registry is None
        assert node.obs_port is None
        assert node.render_metrics() == ""
        assert node.servent.tracer is None
