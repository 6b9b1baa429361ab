"""Tests for the simple routing policies (flooding, expanding ring, walks)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.expanding_ring import ExpandingRingPolicy
from repro.routing.flooding import FloodingPolicy
from repro.routing.random_walk import KRandomWalkPolicy

SMALL = OverlayConfig(
    n_nodes=80, degree=4, n_categories=6, files_per_category=40, library_size=25
)


def build(policy_factory, seed=1):
    overlay = Overlay(SMALL, seed=seed)
    overlay.install_policies(policy_factory)
    return overlay


class TestFloodingPolicy:
    def test_select_returns_all_neighbors(self):
        overlay = build(lambda nid, ov: FloodingPolicy(nid, ov))
        policy = overlay.node(0).policy
        q = overlay.make_query(origin=0)
        assert policy.select(0, None, q) == overlay.topology.neighbors(0)

    def test_workload_statistics(self):
        overlay = build(lambda nid, ov: FloodingPolicy(nid, ov))
        stats = overlay.run_workload(30)
        assert stats.success_rate > 0.5  # popular content is replicated
        assert stats.messages_per_query > 10


class TestExpandingRingPolicy:
    def test_cheaper_than_flooding_for_nearby_content(self):
        flood = build(lambda nid, ov: FloodingPolicy(nid, ov)).run_workload(40)
        ring = build(lambda nid, ov: ExpandingRingPolicy(nid, ov)).run_workload(40)
        assert ring.messages_per_query < flood.messages_per_query
        # Same workload and reach: success must match flooding.
        assert ring.success_rate == pytest.approx(flood.success_rate, abs=0.01)

    def test_single_attempt_on_immediate_hit(self):
        overlay = build(lambda nid, ov: ExpandingRingPolicy(nid, ov))
        # Find a query whose target sits adjacent to the origin.
        for _ in range(200):
            q = overlay.make_query()
            neighbors = overlay.topology.neighbors(q.origin)
            if any(overlay.node(v).shares(q.file_id) for v in neighbors) and not overlay.node(q.origin).shares(q.file_id):
                out = overlay.node(q.origin).policy.route_query(overlay.engine, q)
                assert out.hits >= 1
                assert out.messages <= len(neighbors)
                return
        pytest.skip("no adjacent-content query found")


class TestKRandomWalkPolicy:
    def test_bounded_messages(self):
        overlay = build(
            lambda nid, ov: KRandomWalkPolicy(nid, ov, k=4, ttl_factor=4, seed=nid)
        )
        stats = overlay.run_workload(30)
        assert stats.messages_per_query <= 4 * 4 * SMALL.ttl

    def test_validation(self):
        overlay = Overlay(SMALL, seed=2)
        with pytest.raises(ValueError):
            KRandomWalkPolicy(0, overlay, k=0)
        with pytest.raises(ValueError):
            KRandomWalkPolicy(0, overlay, ttl_factor=0)

    def test_walk_select_returns_single_neighbor(self):
        overlay = build(lambda nid, ov: KRandomWalkPolicy(nid, ov, seed=nid))
        q = overlay.make_query(origin=0)
        selected = overlay.node(0).policy.select(0, None, q)
        assert len(selected) == 1
        assert selected[0] in overlay.topology.neighbors(0)

    def test_a_walk_outlasts_a_byte_of_ttl(self):
        # 32 hops of flooding TTL times the default factor 8 is 256 steps:
        # a walk length, not a TTL a Query could carry
        config = OverlayConfig(
            n_nodes=80, degree=4, n_categories=6, files_per_category=40,
            library_size=2, ttl=32,
        )
        overlay = Overlay(config, seed=3)
        overlay.install_policies(
            lambda nid, ov: KRandomWalkPolicy(nid, ov, k=2, seed=nid)
        )
        stats = overlay.run_workload(20)
        assert stats.n_queries == 20
        assert 0 < stats.messages_per_query <= 2 * 32 * 8

    @pytest.mark.parametrize("ttl_factor", [1, 4, 8])
    def test_steps_walk_as_the_stretched_query_did(self, ttl_factor):
        # the walk draws the same stream it drew on a copy of the query
        # with its TTL stretched, and finds the same
        overlay = build(FloodingPolicy)
        for origin in range(0, 80, 9):
            q = overlay.make_query(origin=origin)
            stretched = replace(q, ttl=q.ttl * ttl_factor)
            old = overlay.engine.walk(
                stretched, n_walkers=3, rng=np.random.default_rng(origin)
            )
            new = overlay.engine.walk(
                q,
                n_walkers=3,
                rng=np.random.default_rng(origin),
                steps=q.ttl * ttl_factor,
            )
            assert new == old
