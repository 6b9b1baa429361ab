"""Tests for repro.routing.shortcuts."""

import pytest

from repro.network.overlay import Overlay, OverlayConfig
from repro.routing.shortcuts import SHORTCUT_CAPACITY, InterestShortcutsPolicy

SMALL = OverlayConfig(
    n_nodes=80, degree=4, n_categories=6, files_per_category=40, library_size=25
)


def build(seed=1):
    overlay = Overlay(SMALL, seed=seed)
    overlay.install_policies(InterestShortcutsPolicy)
    return overlay


class TestShortcutLearning:
    def test_learns_providers_from_hits(self):
        overlay = build()
        origin = 0
        for _ in range(30):
            q = overlay.make_query(origin=origin)
            overlay.node(origin).policy.route_query(overlay.engine, q)
        policy = overlay.node(origin).policy
        # After repeated queries in its own interests, shortcuts exist.
        assert policy.shortcut_list

    def test_shortcut_probe_is_cheap_on_repeat_query(self):
        overlay = build(seed=3)
        origin = 0
        # Find a query that succeeds, then repeat it.
        for _ in range(100):
            q = overlay.make_query(origin=origin)
            if overlay.node(origin).shares(q.file_id):
                continue
            out = overlay.node(origin).policy.route_query(overlay.engine, q)
            if out.hits:
                repeat = overlay.make_query(origin=origin)
                # Re-ask for the same file through a fresh query object.
                from dataclasses import replace

                repeat = replace(repeat, file_id=q.file_id, category=q.category)
                out2 = overlay.node(origin).policy.route_query(overlay.engine, repeat)
                assert out2.hits >= 1
                assert out2.messages <= 10  # capacity-bounded probes
                assert out2.first_hit_hops == 1
                return
        pytest.skip("no successful query found to repeat")

    def test_capacity_respected(self):
        overlay = build()
        policy = overlay.node(0).policy
        for provider in range(100, 100 + SHORTCUT_CAPACITY + 3):
            policy._touch(provider)
        assert policy.shortcut_list == list(
            range(103, 100 + SHORTCUT_CAPACITY + 3)
        )

    def test_most_recent_last_and_probed_first(self):
        overlay = build()
        policy = overlay.node(0).policy
        policy._touch(5)
        policy._touch(6)
        policy._touch(5)
        assert policy.shortcut_list == [6, 5]

    def test_reset_clears(self):
        overlay = build()
        policy = overlay.node(0).policy
        policy._touch(5)
        policy.reset()
        assert policy.shortcut_list == []
