"""Tests for repro.network.overlay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.flooding import FloodingPolicy

SMALL = OverlayConfig(n_nodes=60, degree=4, n_categories=6, files_per_category=30, library_size=20)


class TestOverlayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 2},
            {"churn_rate": -0.1},
            {"degree": 1},
            {"ttl": 0},
            {"library_size": -1},
            {"churn_rate": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverlayConfig(**kwargs)

    @pytest.mark.parametrize("ttl", [0, 256, 300])
    def test_ttl_is_a_byte(self, ttl):
        # refused where it is set, not at the first query it would carry
        with pytest.raises(ValueError, match=f"ttl must be in 1..255, got {ttl}"):
            OverlayConfig(ttl=ttl)
        assert OverlayConfig(ttl=255).ttl == 255


class TestOverlayBuild:
    def test_nodes_populated(self):
        overlay = Overlay(SMALL, seed=1)
        assert overlay.n_nodes == 60
        peer = overlay.node(0)
        assert peer.library  # shares something
        assert peer.profile.categories

    def test_libraries_respect_interests(self):
        overlay = Overlay(SMALL, seed=2)
        for node_id in range(10):
            peer = overlay.node(node_id)
            for f in peer.library:
                assert overlay.catalog.category_of(f) in peer.profile.categories

    def test_deterministic(self):
        a = Overlay(SMALL, seed=3)
        b = Overlay(SMALL, seed=3)
        assert a.node(5).library == b.node(5).library
        assert a.topology.edges() == b.topology.edges()

    def test_odd_regular_rejected(self):
        cfg = OverlayConfig(n_nodes=61, degree=3)
        with pytest.raises(ValueError):
            Overlay(cfg, seed=1)


class TestQueries:
    def test_make_query_fields(self):
        overlay = Overlay(SMALL, seed=5)
        q = overlay.make_query()
        assert 0 <= q.origin < 60
        assert overlay.catalog.category_of(q.file_id) == q.category
        assert q.ttl == SMALL.ttl

    def test_query_category_from_profile(self):
        overlay = Overlay(SMALL, seed=6)
        q = overlay.make_query(origin=7)
        assert q.category in overlay.node(7).profile.categories

    @pytest.mark.parametrize("origin", [-1, -60, 60])
    def test_origin_outside_the_nodes_rejected(self, origin):
        overlay = Overlay(SMALL, seed=6)
        with pytest.raises(ValueError, match=r"range\(0, 60\)"):
            overlay.make_query(origin=origin)

    def test_guids_unique(self):
        overlay = Overlay(SMALL, seed=7)
        guids = {overlay.make_query().guid for _ in range(50)}
        assert len(guids) == 50


class TestWorkload:
    def test_requires_policies(self):
        overlay = Overlay(SMALL, seed=8)
        with pytest.raises(RuntimeError):
            overlay.run_workload(1)

    def test_flooding_workload_runs(self):
        overlay = Overlay(SMALL, seed=9)
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
        stats = overlay.run_workload(20)
        assert stats.n_queries == 20
        assert stats.messages_per_query > 0

    def test_warmup_not_recorded(self):
        overlay = Overlay(SMALL, seed=10)
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
        stats = overlay.run_workload(5, warmup=10)
        assert stats.n_queries == 5

    def test_negative_counts_rejected(self):
        overlay = Overlay(SMALL, seed=11)
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
        with pytest.raises(ValueError):
            overlay.run_workload(-1)


class TestChurn:
    def test_churn_replaces_identity(self):
        overlay = Overlay(SMALL, seed=12)
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
        before = {nid: overlay.node(nid).library for nid in range(60)}
        churned = overlay.churn_one()
        peer = overlay.node(churned)
        assert peer.generation == 1
        assert peer.policy is not None  # policy object retained (reset)
        assert peer.node_id == churned
        changed = peer.library != before[churned]
        assert changed or peer.profile is not None  # library virtually always changes

    def test_generation_increments(self):
        overlay = Overlay(SMALL, seed=13)
        overlay.install_policies(lambda nid, ov: FloodingPolicy(nid, ov))
        for _ in range(200):
            overlay.churn_one()
        generations = [overlay.node(i).generation for i in range(60)]
        assert max(generations) >= 2


def scanned_holders(overlay, file_id):
    return [u for u in range(overlay.n_nodes) if overlay.node(u).shares(file_id)]


class TestHolderIndex:
    TINY = OverlayConfig(
        n_nodes=30, degree=4, n_categories=4, files_per_category=12, library_size=10
    )

    def test_matches_libraries_at_build(self):
        overlay = Overlay(SMALL, seed=5)
        for file_id in range(overlay.catalog.n_files):
            assert overlay.holders(file_id).tolist() == scanned_holders(overlay, file_id)

    def test_unknown_file_has_no_holders(self):
        overlay = Overlay(SMALL, seed=5)
        assert overlay.holders(overlay.catalog.n_files).size == 0
        assert overlay.holders(10**12).size == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.lists(st.integers(1, 6), max_size=8))
    def test_matches_libraries_after_any_churn(self, seed, bursts):
        overlay = Overlay(self.TINY, seed=seed)
        for burst in bursts:
            for _ in range(burst):
                overlay.churn_one()
            for file_id in range(overlay.catalog.n_files):
                assert overlay.holders(file_id).tolist() == scanned_holders(
                    overlay, file_id
                )

    def test_empty_libraries(self):
        config = OverlayConfig(n_nodes=10, degree=4, library_size=0)
        overlay = Overlay(config, seed=1)
        overlay.churn_one()
        assert overlay.holders(0).size == 0
