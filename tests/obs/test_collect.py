"""Tests for cluster-wide trace collection and quality rollups."""

import json
import socket
import threading

import pytest

from repro.live.stats import NodeStats
from repro.obs.collect import (
    ClusterTraceCollector,
    format_cluster_rollup,
    format_trace_tree,
    merge_spans,
    parse_spans,
    quality_measures,
)


def _span(guid, ts, node, kind, **fields):
    return {"guid": guid, "ts": ts, "node": node, "kind": kind, **fields}


class TestMergeSpans:
    def test_cross_node_events_merge_by_guid_in_time_order(self):
        docs = [
            _span(8, 10.2, 1, "received", peer=0, ttl=6),
            _span(8, 10.0, 0, "issued", ttl=7),
            _span(9, 11.0, 1, "issued"),
            _span(8, 10.4, 1, "hit"),
        ]
        traces = merge_spans(docs)
        assert sorted(traces) == [8, 9]
        assert traces[8].kinds() == ["issued", "received", "hit"]
        assert traces[8].events[0].node == 0
        assert traces[8].hops == 2

    def test_parse_spans_skips_blank_lines(self):
        text = (
            json.dumps(_span(1, 0.0, 0, "issued")) + "\n\n"
            + json.dumps(_span(1, 0.1, 1, "received", peer=0)) + "\n"
        )
        assert len(parse_spans(text)) == 2
        assert parse_spans("") == []

    def test_stable_order_within_one_clock_tick(self):
        docs = [
            _span(5, 1.0, 0, "issued"),
            _span(5, 1.0, 0, "rule_routed", peer=1),
        ]
        assert merge_spans(docs)[5].kinds() == ["issued", "rule_routed"]


def _counters(rule, flood, issued, hits, frames_out):
    return {
        "queries_rule_routed": rule,
        "queries_flooded": flood,
        "queries_issued": issued,
        "hits_received": hits,
        "frames_out": frames_out,
    }


class TestQualityMeasures:
    def test_alpha_rho_traffic(self):
        measures = quality_measures(_counters(30.0, 10.0, 20.0, 15.0, 120.0))
        assert measures["alpha"] == pytest.approx(0.75)
        assert measures["rho"] == pytest.approx(0.75)
        assert measures["traffic_per_query"] == pytest.approx(6.0)

    def test_rho_counts_hits_not_answered_queries(self):
        """One issued query drawing three hits reads ρ 3.0: the live ρ is
        hits per issued query, not the paper's s/n."""
        assert quality_measures(_counters(0, 0, 1, 3, 0))["rho"] == 3.0
        stats = NodeStats(queries_issued=1, hits_received=3)
        assert quality_measures(stats.as_dict())["rho"] == 3.0

    def test_zero_denominators(self):
        measures = quality_measures(_counters(0.0, 0.0, 0.0, 0.0, 0.0))
        assert measures == {
            "alpha": 0.0, "rho": 0.0, "traffic_per_query": 0.0
        }


def _fake_cluster(metrics_by_node):
    """A fetch hook serving canned /trace + /metrics for two nodes."""
    spans = {
        "n0": (
            json.dumps(_span(4, 10.0, 0, "issued", info="jazz", ttl=7))
            + "\n"
            + json.dumps(
                _span(4, 10.1, 0, "rule_routed", peer=1, ttl=6,
                      antecedent=-1, consequent=1,
                      confidence=0.8, support=4)
            )
            + "\n"
            + json.dumps(_span(4, 10.5, 0, "delivered", peer=1))
            + "\n"
        ),
        "n1": (
            json.dumps(_span(4, 10.2, 1, "received", peer=0, ttl=6))
            + "\n"
            + json.dumps(_span(4, 10.3, 1, "hit", info="jazz"))
            + "\n"
        ),
    }

    def fetch(url):
        base, _, endpoint = url.rpartition("/")
        label = "n0" if "9000" in base else "n1"
        if endpoint == "trace":
            return spans[label]
        return metrics_by_node[label]

    return fetch


def _metrics(rule, flood, issued, hits, frames_out):
    return (
        f'repro_routing_decisions_total{{decision="rule"}} {rule}\n'
        f'repro_routing_decisions_total{{decision="flood"}} {flood}\n'
        f"repro_queries_issued_total {issued}\n"
        f"repro_hits_received_total {hits}\n"
        f'repro_frames_total{{direction="out"}} {frames_out}\n'
        f'repro_frames_total{{direction="in"}} {frames_out}\n'
    )


class TestCollector:
    ENDPOINTS = [(0, "http://127.0.0.1:9000"), (1, "http://127.0.0.1:9001")]

    def test_poll_merges_spans_and_counters(self):
        fetch = _fake_cluster(
            {"n0": _metrics(3, 1, 4, 2, 20), "n1": _metrics(1, 1, 0, 0, 10)}
        )
        collector = ClusterTraceCollector(self.ENDPOINTS, fetch=fetch)
        summary = collector.poll()
        assert summary["nodes"] == 2
        assert summary["traces"] == 1
        trace = collector.traces[4]
        assert trace.kinds() == [
            "issued", "rule_routed", "received", "hit", "delivered"
        ]
        assert trace.events[1].confidence == pytest.approx(0.8)
        assert trace.answered
        assert collector.cluster["queries_issued"] == 4.0
        assert collector.live_quality()["alpha"] == pytest.approx(4 / 6)
        assert collector.best_guid() == 4
        assert collector.answered_guids() == [4]

    def test_rolling_windows_are_poll_deltas(self):
        calls = {"n": 0}
        clock_value = {"now": 100.0}

        def fetch(url):
            if url.endswith("/trace"):
                return ""
            # second poll: counters advanced on node 0 only
            if calls["n"] >= 2 and "9000" in url:
                return _metrics(8, 2, 10, 9, 50)
            if "9000" in url:
                calls["n"] += 1
                return _metrics(3, 1, 4, 2, 20)
            calls["n"] += 1
            return _metrics(0, 0, 0, 0, 0)

        collector = ClusterTraceCollector(
            self.ENDPOINTS, fetch=fetch, clock=lambda: clock_value["now"]
        )
        collector.poll()
        assert not collector.windows  # first poll has no delta baseline
        clock_value["now"] = 110.0
        collector.poll()
        assert len(collector.windows) == 1
        window = collector.windows[0]
        assert window["seconds"] == pytest.approx(10.0)
        assert window["queries_issued"] == pytest.approx(6.0)
        assert window["queries_rule_routed"] == pytest.approx(5.0)
        assert window["alpha"] == pytest.approx(5 / 6)
        assert window["rho"] == pytest.approx(7 / 6)

    def test_dead_node_is_skipped_not_fatal(self):
        def fetch(url):
            if "9001" in url:
                raise OSError("connection refused")
            if url.endswith("/trace"):
                return ""
            return _metrics(1, 1, 2, 1, 8)

        collector = ClusterTraceCollector(self.ENDPOINTS, fetch=fetch)
        summary = collector.poll()
        assert summary["nodes"] == 1
        assert collector.errors == 2  # /trace and /metrics both failed
        assert 0 in collector.per_node and 1 not in collector.per_node

    def test_non_http_answer_is_an_unreachable_node(self):
        """An endpoint that answers non-HTTP bytes (a servent's Gnutella
        port, say) costs that node, not the sweep."""
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10.0)

        def answer_garbage():
            for _ in range(2):  # the /trace fetch, then the /metrics fetch
                conn, _addr = server.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(b"garbage not http\r\n\r\n")

        thread = threading.Thread(target=answer_garbage)
        thread.start()
        try:
            port = server.getsockname()[1]
            collector = ClusterTraceCollector([(0, f"http://127.0.0.1:{port}")])
            summary = collector.poll()
        finally:
            thread.join(timeout=10.0)
            server.close()
        assert not thread.is_alive()
        assert summary["nodes"] == 0
        assert collector.errors == 2
        assert collector.per_node == {}

    def test_malformed_metrics_body_costs_only_that_node(self):
        good = _metrics(1, 1, 2, 1, 8)
        truncated = good[: good.index('"flood"')]  # cut inside a label block

        def fetch(url):
            if url.endswith("/trace"):
                return ""
            return good if "9000" in url else truncated

        collector = ClusterTraceCollector(self.ENDPOINTS, fetch=fetch)
        summary = collector.poll()
        assert summary["nodes"] == 1
        assert collector.errors == 1
        assert collector.per_node == {0: _counters(1.0, 1.0, 2.0, 1.0, 8.0)}


class TestRendering:
    def test_trace_tree_shows_rule_edges_and_flood_leaves(self):
        traces = merge_spans(
            [
                _span(4, 10.0, 0, "issued", info="jazz", ttl=7),
                _span(
                    4, 10.1, 0, "rule_routed", peer=1, ttl=6,
                    antecedent=-1, consequent=1,
                    confidence=0.8, support=4,
                ),
                _span(4, 10.2, 1, "received", peer=0, ttl=6),
                _span(
                    4, 10.25, 1, "flooded", peer=2, ttl=5,
                    reason="no_covering_rule",
                ),
                _span(4, 10.3, 1, "hit", info="jazz"),
                _span(4, 10.5, 0, "delivered", peer=1),
            ]
        )
        text = format_trace_tree(traces[4])
        assert "query 0x4 — answered" in text
        assert "[rule -1=>1 conf=0.80 sup=4]→ node 1" in text
        assert "[flood no_covering_rule]→ node 2 — (no events)" in text
        assert "issued[jazz] ttl=7" in text
        assert "hit[jazz]" in text

    def test_duplicate_arrival_marked_dup(self):
        traces = merge_spans(
            [
                _span(2, 0.0, 0, "issued"),
                _span(2, 0.1, 0, "flooded", peer=1),
                _span(2, 0.2, 1, "received", peer=0),
                _span(2, 0.3, 1, "flooded", peer=0),
            ]
        )
        text = format_trace_tree(traces[2])
        assert "(dup)" in text

    def test_rollup_contains_per_node_cluster_and_windows(self):
        fetch = _fake_cluster(
            {"n0": _metrics(3, 1, 4, 2, 20), "n1": _metrics(1, 1, 0, 0, 10)}
        )
        clock_value = {"now": 50.0}
        collector = ClusterTraceCollector(
            TestCollector.ENDPOINTS,
            fetch=fetch,
            clock=lambda: clock_value["now"],
        )
        collector.poll()
        clock_value["now"] = 55.0
        collector.poll()
        text = format_cluster_rollup(collector)
        assert "| 0 | 0.750 |" in text  # node 0: alpha 3/4
        assert "**cluster**" in text
        assert "Rolling windows" in text
