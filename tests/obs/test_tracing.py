"""Tests for GUID-keyed query tracing."""

import json
import time

import pytest

from repro.obs.collect import format_trace_tree
from repro.obs.tracing import (
    TRACE_TTL,
    QueryTracer,
    TraceEvent,
    traced_guid,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRecording:
    def test_events_accumulate_in_order(self):
        tracer = QueryTracer(clock=FakeClock())
        tracer.record(0xAB, 0, "issued", info="kw1")
        tracer.record(0xAB, 0, "rule_routed", peer=1)
        tracer.record(0xAB, 1, "received", peer=0)
        trace = tracer.trace(0xAB)
        assert trace.kinds() == ["issued", "rule_routed", "received"]
        assert trace.events[0].info == "kw1"
        assert trace.events[1].peer == 1

    def test_unknown_guid(self):
        tracer = QueryTracer()
        assert tracer.trace(0x99) is None
        assert 0x99 not in tracer.guids()

    def test_answered_and_hops(self):
        tracer = QueryTracer()
        tracer.record(1, 0, "issued")
        tracer.record(1, 1, "received", peer=0)
        tracer.record(1, 1, "hit")
        assert not tracer.trace(1).answered
        assert tracer.trace(1).hops == 2
        tracer.record(1, 0, "delivered", peer=1)
        assert tracer.trace(1).answered
        assert tracer.answered_guids() == [1]

    def test_guids_oldest_first(self):
        tracer = QueryTracer()
        tracer.record(2, 0, "issued")
        tracer.record(1, 0, "issued")
        assert tracer.guids() == [2, 1]
        assert len(tracer) == 2


class TestRetention:
    def test_max_traces_evicts_oldest(self):
        tracer = QueryTracer(max_traces=2)
        for guid in (1, 2, 3):
            tracer.record(guid, 0, "issued")
        assert tracer.guids() == [2, 3]

    def test_ttl_expires_stale_traces(self):
        clock = FakeClock()
        tracer = QueryTracer(clock=clock)
        tracer.record(1, 0, "issued")
        clock.now = TRACE_TTL / 2
        tracer.record(2, 0, "issued")  # 1 is half a TTL stale: kept
        assert tracer.trace(1) is not None
        clock.now = TRACE_TTL + 4.0
        tracer.record(3, 0, "issued")  # 1 is past the TTL: expired; 2 is not
        assert tracer.trace(1) is None
        assert tracer.trace(2) is not None

    def test_activity_refreshes_ttl(self):
        clock = FakeClock()
        tracer = QueryTracer(clock=clock)
        tracer.record(1, 0, "issued")
        clock.now = 8.0
        tracer.record(1, 1, "received", peer=0)  # last_event := 8.0
        clock.now = TRACE_TTL + 5.0
        tracer.record(2, 0, "issued")
        assert tracer.trace(1) is not None

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            QueryTracer(max_traces=0)


class TestFormatting:
    def test_format_shows_path_and_outcome(self):
        clock = FakeClock()
        tracer = QueryTracer(clock=clock)
        tracer.record(0xFF, 3, "issued", info="kw2", ttl=7)
        tracer.record(0xFF, 3, "flooded", peer=0, ttl=7)
        clock.now = 0.25
        tracer.record(0xFF, 0, "received", peer=3, ttl=7)
        tracer.record(0xFF, 0, "hit", info="1 file(s)")
        clock.now = 0.5
        tracer.record(0xFF, 3, "delivered", peer=0)
        lines = format_trace_tree(tracer.trace(0xFF)).splitlines()
        assert lines == [
            "query 0xff — answered, 2 nodes, 5 events, 500.0ms",
            "node 3 — issued[kw2] ttl=7 +0.0ms, delivered +500.0ms",
            "└─[flood]→ node 0 — received ttl=7 +250.0ms, hit[1 file(s)] +250.0ms",
        ]

    def test_outbound_arrow_for_forwarding_kinds(self):
        tracer = QueryTracer()
        tracer.record(1, 0, "flooded", peer=4)
        text = format_trace_tree(tracer.trace(1))
        assert "└─[flood]→ node 4 — (no events)" in text
        assert "— unanswered," in text


class TestSampling:
    def test_traced_guid_picks_one_in_n(self):
        assert traced_guid(7, 1)
        assert traced_guid(7, 0)
        assert traced_guid(8, 4)
        assert not traced_guid(7, 4)
        kept = sum(1 for guid in range(100) if traced_guid(guid, 4))
        assert kept == 25

    def test_sampled_tracer_drops_unselected_guids(self):
        tracer = QueryTracer(sample=4, clock=FakeClock())
        tracer.record(8, 0, "issued")
        tracer.record(9, 0, "issued")
        assert tracer.wants(8) and not tracer.wants(9)
        assert tracer.guids() == [8]

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError):
            QueryTracer(sample=0)


class TestExplainability:
    def test_rule_fields_recorded_and_rendered(self):
        clock = FakeClock()
        tracer = QueryTracer(clock=clock)
        tracer.record(1, 0, "issued", ttl=7)
        tracer.record(
            1, 0, "rule_routed", peer=2,
            ttl=6, antecedent=5, consequent=2,
            confidence=0.75, support=12,
        )
        tracer.record(1, 0, "flooded", peer=3, reason="no_covering_rule")
        events = tracer.trace(1).events
        assert events[0].ttl == 7
        assert events[1].antecedent == 5 and events[1].consequent == 2
        assert events[1].confidence == 0.75 and events[1].support == 12
        text = format_trace_tree(tracer.trace(1))
        assert "├─[rule 5=>2 conf=0.75 sup=12]→ node 2" in text
        assert "issued ttl=7" in text
        assert "└─[flood no_covering_rule]→ node 3" in text

    def test_latency_is_node_local(self):
        clock = FakeClock()
        tracer = QueryTracer(clock=clock)
        tracer.record(1, 0, "issued")
        clock.now = 0.5
        tracer.record(1, 1, "received", peer=0)  # first sight of node 1
        clock.now = 0.7
        tracer.record(1, 1, "hit")
        events = tracer.trace(1).events
        assert events[0].latency == 0.0
        assert events[1].latency == 0.0
        assert events[2].latency == pytest.approx(0.2)

    def test_default_clock_is_wall_time(self):
        # Cross-process merge needs wall-clock timestamps; monotonic
        # clocks have per-process epochs.
        tracer = QueryTracer()
        before = time.time()
        tracer.record(1, 0, "issued")
        after = time.time()
        assert before <= tracer.trace(1).events[0].ts <= after


class TestExport:
    def test_event_dict_round_trip(self):
        event = TraceEvent(
            1.5, 3, "rule_routed", 4, "kw",
            ttl=6, antecedent=2, consequent=4,
            confidence=0.5, support=9, reason="", latency=0.25,
        )
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_unset_fields(self):
        doc = TraceEvent(0.0, 1, "issued").to_dict()
        assert doc == {"ts": 0.0, "node": 1, "kind": "issued"}

    def test_export_jsonl_one_event_per_line(self):
        tracer = QueryTracer(clock=FakeClock())
        tracer.record(5, 0, "issued", ttl=7)
        tracer.record(5, 1, "received", peer=0)
        tracer.record(6, 1, "issued")
        lines = tracer.export_jsonl().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["guid"] for d in docs] == [5, 5, 6]
        assert docs[0]["kind"] == "issued" and docs[0]["ttl"] == 7
        assert docs[1]["peer"] == 0
        assert QueryTracer().export_jsonl() == ""
