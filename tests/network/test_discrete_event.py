"""Tests for repro.network.discrete_event."""

import pytest

from repro.network.discrete_event import (
    LINK_LATENCY,
    SERVICE_TIME,
    DiscreteEventConfig,
    DiscreteEventNetwork,
    LatencyReport,
)
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.association import AssociationRoutingPolicy
from repro.routing.flooding import FloodingPolicy

SMALL = OverlayConfig(
    n_nodes=60, degree=4, n_categories=6, files_per_category=30, library_size=20
)


def build(policy="flooding", seed=1):
    overlay = Overlay(SMALL, seed=seed)
    if policy == "flooding":
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
    else:
        overlay.install_policies(
            lambda nid, ov: AssociationRoutingPolicy(nid, ov)
        )
    return overlay


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query_interarrival": 0.0},
            {"fallback_timeout": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DiscreteEventConfig(**kwargs)


class TestDiscreteEventNetwork:
    def test_runs_and_answers(self):
        net = DiscreteEventNetwork(build(), DiscreteEventConfig())
        report = net.run(50, seed=2)
        assert report.n_queries == 50
        assert report.answer_rate > 0.5
        assert report.total_messages > 0

    def test_latency_at_least_two_legs(self):
        """A non-local answer needs at least query out + hit back."""
        net = DiscreteEventNetwork(build(seed=3), DiscreteEventConfig())
        report = net.run(40, seed=4)
        # Minimum non-zero latency: 2 * (service + link).
        nonzero_floor = 2 * (SERVICE_TIME + LINK_LATENCY)
        assert report.first_result_latency.minimum >= 0.0
        assert report.p_high_latency >= nonzero_floor

    def test_deterministic(self):
        a = DiscreteEventNetwork(build(seed=5), DiscreteEventConfig()).run(30, seed=6)
        b = DiscreteEventNetwork(build(seed=5), DiscreteEventConfig()).run(30, seed=6)
        assert a.total_messages == b.total_messages
        assert a.n_answered == b.n_answered
        assert a.mean_latency == b.mean_latency

    def test_latency_grows_under_load(self):
        light = DiscreteEventNetwork(
            build(seed=7), DiscreteEventConfig(query_interarrival=1.0)
        ).run(80, seed=8)
        heavy = DiscreteEventNetwork(
            build(seed=7), DiscreteEventConfig(query_interarrival=0.002)
        ).run(80, seed=8)
        assert heavy.mean_latency > light.mean_latency
        assert heavy.peak_queue_length > light.peak_queue_length

    def test_fallback_raises_answer_rate_for_rule_routing(self):
        overlay_a = build("association", seed=9)
        overlay_a.run_workload(0, warmup=200)
        no_fb = DiscreteEventNetwork(
            overlay_a, DiscreteEventConfig(fallback_timeout=0.0)
        ).run(80, seed=10)
        overlay_b = build("association", seed=9)
        overlay_b.run_workload(0, warmup=200)
        with_fb = DiscreteEventNetwork(
            overlay_b, DiscreteEventConfig(fallback_timeout=1.0)
        ).run(80, seed=10)
        assert with_fb.answer_rate >= no_fb.answer_rate
        assert with_fb.total_messages >= no_fb.total_messages

    def test_negative_queries_rejected(self):
        net = DiscreteEventNetwork(build(), DiscreteEventConfig())
        with pytest.raises(ValueError):
            net.run(-1)

    def test_report_empty(self):
        report = LatencyReport()
        assert report.answer_rate == 0.0
