"""Tests for repro.network.superpeer."""

import pytest

from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork

SMALL = SuperPeerConfig(
    n_superpeers=8,
    leaves_per_superpeer=6,
    superpeer_degree=3,
    n_categories=8,
    files_per_category=40,
    library_size=15,
)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_superpeers": 2},
            {"leaves_per_superpeer": 0},
            {"superpeer_degree": 1},
            {"superpeer_degree": 30},
            {"superpeer_ttl": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SuperPeerConfig(**kwargs)

    def test_n_leaves(self):
        assert SMALL.n_leaves == 48


class TestSuperPeerNetwork:
    def test_leaf_binding(self):
        net = SuperPeerNetwork(SMALL, seed=1)
        assert net.superpeer_of(0) == 0
        assert net.superpeer_of(6) == 1
        assert net.superpeer_of(47) == 7

    def test_index_complete(self):
        net = SuperPeerNetwork(SMALL, seed=2)
        for sp in range(SMALL.n_superpeers):
            leaves = range(
                sp * SMALL.leaves_per_superpeer, (sp + 1) * SMALL.leaves_per_superpeer
            )
            expected = sum(len(net.library(leaf)) for leaf in leaves)
            assert net.index_size(sp) == expected

    @pytest.mark.parametrize("leaf", [-1, SMALL.n_leaves])
    def test_query_refuses_a_leaf_out_of_range(self, leaf):
        """-1 used to answer as the last leaf."""
        net = SuperPeerNetwork(SMALL, seed=3)
        file_id = next(iter(net.library(SMALL.n_leaves - 1)))
        with pytest.raises(IndexError, match=rf"{leaf} out of range"):
            net.query(leaf, file_id)
        assert net.query(0, file_id).query_id == 1  # no guid was spent

    def test_local_hit_zero_messages(self):
        net = SuperPeerNetwork(SMALL, seed=3)
        leaf = 0
        file_id = next(iter(net.library(leaf)))
        out = net.query(leaf, file_id)
        assert out.hits == 1
        assert out.messages == 0

    def test_home_index_hit_costs_one_message(self):
        net = SuperPeerNetwork(SMALL, seed=4)
        # File held by a sibling leaf but not by leaf 0 itself.
        home = net.superpeer_of(0)
        sibling = 1
        candidates = net.library(sibling) - net.library(0)
        if not candidates:
            pytest.skip("sibling libraries overlap completely")
        out = net.query(0, next(iter(candidates)))
        assert out.hits >= 1
        assert out.messages == 1
        assert out.first_hit_hops == 1

    def test_tier2_flood_counts_messages(self):
        net = SuperPeerNetwork(SMALL, seed=5)
        # Query a file nobody shares: full tier-2 flood, zero hits.
        missing = SMALL.n_categories * SMALL.files_per_category - 1
        found_missing = None
        for f in range(missing, -1, -1):
            if not any(net.shares(leaf, f) for leaf in range(SMALL.n_leaves)):
                found_missing = f
                break
        assert found_missing is not None
        out = net.query(0, found_missing)
        assert out.hits == 0
        # 1 leaf hop + every superpeer-tier edge within TTL (with dups).
        assert out.messages > SMALL.n_superpeers

    def test_workload_statistics(self):
        net = SuperPeerNetwork(SMALL, seed=6)
        stats = net.run_workload(200)
        assert stats.n_queries == 200
        assert stats.success_rate > 0.5
        assert stats.mean_first_hit_hops < 4

    def test_deterministic(self):
        a = SuperPeerNetwork(SMALL, seed=7).run_workload(50)
        b = SuperPeerNetwork(SMALL, seed=7).run_workload(50)
        assert a.total_messages == b.total_messages
        assert a.n_succeeded == b.n_succeeded

    def test_negative_workload_rejected(self):
        with pytest.raises(ValueError):
            SuperPeerNetwork(SMALL, seed=8).run_workload(-1)
