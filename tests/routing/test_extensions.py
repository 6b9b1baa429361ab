"""Tests for the §VI extension policies (hybrid, topology adaptation)."""

from dataclasses import replace

import pytest

from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.hybrid import HybridShortcutAssociationPolicy
from repro.routing.topology_adaptation import TopologyAdaptingPolicy

SMALL = OverlayConfig(
    n_nodes=80, degree=4, n_categories=6, files_per_category=40, library_size=25
)
SMALL_DYNAMIC = OverlayConfig(
    n_nodes=80,
    degree=4,
    n_categories=6,
    files_per_category=40,
    library_size=25,
    max_degree=7,
)


class TestHybridPolicy:
    def test_learns_both_structures(self):
        overlay = Overlay(SMALL, seed=1)
        overlay.install_policies(
            lambda nid, ov: HybridShortcutAssociationPolicy(nid, ov)
        )
        overlay.run_workload(150)
        learned_shortcuts = sum(
            1 for n in range(overlay.n_nodes) if overlay.node(n).policy.shortcut_list
        )
        learned_rules = sum(
            1
            for n in range(overlay.n_nodes)
            if overlay.node(n).policy.rules.n_rules() > 0
        )
        assert learned_shortcuts > 0
        assert learned_rules > 0

    def test_success_rate_maintained(self):
        overlay = Overlay(SMALL, seed=2)
        overlay.install_policies(
            lambda nid, ov: HybridShortcutAssociationPolicy(nid, ov)
        )
        stats = overlay.run_workload(100, warmup=200)
        assert stats.success_rate > 0.7

    def test_reset_clears_both(self):
        from repro.network.messages import Query

        overlay = Overlay(SMALL, seed=3)
        policy = HybridShortcutAssociationPolicy(0, overlay)
        query = Query(guid=1, origin=0, file_id=1, category=0, ttl=3)
        policy.on_reply(node_id=0, upstream=1, downstream=2, query=query, provider=3)
        policy._shortcuts._touch(9)
        policy.reset()
        assert policy.rules.n_rules() == 0
        assert policy.shortcut_list == []


class TestTopologyAdaptingPolicy:
    def test_noop_on_immutable_topology(self):
        # every node of the 4-regular graph has spent its budget
        overlay = Overlay(replace(SMALL, max_degree=SMALL.degree), seed=4)
        edges = overlay.topology.edges()
        overlay.install_policies(
            lambda nid, ov: TopologyAdaptingPolicy(nid, ov, adapt_every=1)
        )
        overlay.run_workload(100)
        total_links = sum(
            overlay.node(n).policy.links_added for n in range(overlay.n_nodes)
        )
        assert total_links == 0
        assert overlay.topology.edges() == edges

    def test_adds_links_on_dynamic_topology(self):
        overlay = Overlay(SMALL_DYNAMIC, seed=5)
        overlay.install_policies(
            lambda nid, ov: TopologyAdaptingPolicy(
                nid, ov, adapt_every=5, max_new_links=2, min_support_count=1
            )
        )
        edges_before = overlay.topology.n_edges
        overlay.run_workload(300)
        total_links = sum(
            overlay.node(n).policy.links_added for n in range(overlay.n_nodes)
        )
        assert total_links > 0
        assert overlay.topology.n_edges == edges_before + total_links

    def test_degree_cap_respected(self):
        overlay = Overlay(SMALL_DYNAMIC, seed=6)
        overlay.install_policies(
            lambda nid, ov: TopologyAdaptingPolicy(
                nid, ov, adapt_every=3, max_new_links=10, min_support_count=1
            )
        )
        overlay.run_workload(300)
        assert max(overlay.topology.degrees()) <= 7

    def test_max_new_links_bounds_per_node(self):
        overlay = Overlay(SMALL_DYNAMIC, seed=7)
        overlay.install_policies(
            lambda nid, ov: TopologyAdaptingPolicy(
                nid, ov, adapt_every=3, max_new_links=1, min_support_count=1
            )
        )
        overlay.run_workload(300)
        assert all(
            overlay.node(n).policy.links_added <= 1 for n in range(overlay.n_nodes)
        )

    def test_validation(self):
        overlay = Overlay(SMALL, seed=8)
        with pytest.raises(ValueError):
            TopologyAdaptingPolicy(0, overlay, adapt_every=0)
        with pytest.raises(ValueError):
            TopologyAdaptingPolicy(0, overlay, max_new_links=-1)
