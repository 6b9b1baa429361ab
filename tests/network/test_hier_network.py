"""Tests for repro.network.hier.network — modes, identity, and churn."""

import pytest

from repro.faults.plan import CRASH, FaultEvent, FaultPlan
from repro.network.hier.digest import DigestEntry, RuleDigest
from repro.network.hier.network import HIER_MODES, HierConfig, HierNetwork
from repro.network.overlay import Overlay, OverlayConfig
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork
from repro.obs.registry import MetricsRegistry
from repro.utils.rng import as_generator

SMALL = dict(
    n_superpeers=8,
    leaves_per_superpeer=6,
    superpeer_degree=3,
    n_categories=8,
    files_per_category=40,
    library_size=15,
    interests_per_peer=3,
    superpeer_ttl=4,
)


def superpeer_crash_plan(n_superpeers: int, *, crashes: int, seed: int) -> FaultPlan:
    """Seeded crash schedule over distinct super-peers (no restarts —
    the two-tier simulator models permanent departure)."""
    rng = as_generator(seed)
    order = [int(sp) for sp in rng.permutation(n_superpeers)][:crashes]
    events = tuple(
        FaultEvent(time=round(0.1 * (i + 1), 3), kind=CRASH, node=sp)
        for i, sp in enumerate(order)
    )
    return FaultPlan(events=events, duration=1.0, label="sp-crash", seed=seed)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"rule_top_k": 0},
            {"digest_every": 0},
            {"digest_top_k": 0},
            {"lookup_contacts": 0},
            {"n_superpeers": 2},  # substrate validation still applies
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HierConfig(**kwargs)

    def test_modes_registry(self):
        assert HIER_MODES == ("flood", "leaf-rules", "superpeer-rules", "hybrid")


class TestFloodIdentity:
    def test_flood_mode_matches_seed_baseline(self):
        """The acceptance gate's identity check, at test scale: flood
        mode is the seed SuperPeerNetwork bit for bit."""
        baseline = SuperPeerNetwork(SuperPeerConfig(**SMALL), seed=11)
        flood = HierNetwork(HierConfig(mode="flood", **SMALL), seed=11)
        b = baseline.run_workload(400, warmup=100)
        f = flood.run_workload(400, warmup=100)
        assert f.total_messages == b.total_messages
        assert f.n_succeeded == b.n_succeeded
        assert f.total_hits == b.total_hits
        assert f.total_duplicates == b.total_duplicates
        assert f.coverage_alpha == 0.0


class TestModes:
    @pytest.mark.parametrize("mode", HIER_MODES)
    def test_success_never_below_baseline(self, mode):
        """The flood fallback is charged on top of failed attempts, so
        every mode answers at least what the baseline answers."""
        baseline = SuperPeerNetwork(SuperPeerConfig(**SMALL), seed=5)
        net = HierNetwork(HierConfig(mode=mode, **SMALL), seed=5)
        b = baseline.run_workload(300, warmup=200)
        m = net.run_workload(300, warmup=200)
        assert m.n_queries == b.n_queries == 300
        assert m.success_rate >= b.success_rate

    @pytest.mark.parametrize("mode", ["leaf-rules", "superpeer-rules", "hybrid"])
    def test_rules_cover_queries_after_warmup(self, mode):
        net = HierNetwork(HierConfig(mode=mode, **SMALL), seed=5)
        stats = net.run_workload(300, warmup=600)
        assert stats.coverage_alpha > 0.0

    def test_digest_exchange_charged_as_control(self):
        net = HierNetwork(
            HierConfig(mode="superpeer-rules", digest_every=2, **SMALL), seed=5
        )
        net.run_workload(400, warmup=0)
        assert net.control_messages > 0
        # Neighbors hold the publisher's digests (some origin merged).
        assert any(len(table) > 0 for table in net.merged)

    def test_directory_publish_charged_in_hybrid(self):
        net = HierNetwork(HierConfig(mode="hybrid", **SMALL), seed=5)
        assert net.control_messages > 0  # initial directory build
        assert net.directory  # every community registered its categories

    def test_leaf_query_own_library_is_free(self):
        net = HierNetwork(HierConfig(mode="superpeer-rules", **SMALL), seed=3)
        leaf = 0
        file_id = next(iter(net.library(leaf)))
        outcome = net.query(leaf, file_id)
        assert outcome.messages == 0
        assert outcome.hits == 1


class TestChurn:
    @pytest.mark.parametrize("superpeer", [-1, 8])
    def test_kill_refuses_a_superpeer_out_of_range(self, superpeer):
        """-1 used to kill the last super-peer and re-home its leaves."""
        net = HierNetwork(HierConfig(mode="hybrid", **SMALL), seed=3)
        homes = [net.superpeer_of(leaf) for leaf in range(net.config.n_leaves)]
        control = net.control_messages
        with pytest.raises(IndexError, match=rf"{superpeer} out of range \[0, 8\)"):
            net.kill_superpeer(superpeer)
        assert len(net.community.live_superpeers()) == 8
        assert [net.superpeer_of(leaf) for leaf in range(net.config.n_leaves)] == homes
        assert net.control_messages == control

    @pytest.mark.parametrize("mode", ["flood", "hybrid"])
    def test_query_refuses_a_leaf_out_of_range(self, mode):
        net = HierNetwork(HierConfig(mode=mode, **SMALL), seed=3)
        for leaf in (-1, net.config.n_leaves):
            with pytest.raises(IndexError, match=rf"{leaf} out of range"):
                net.query(leaf, 0)
        assert net.query(0, 0).query_id == 1  # no guid was spent

    @pytest.mark.parametrize("mode", ["superpeer-rules", "hybrid"])
    def test_leaves_reattach_under_seeded_fault_plan(self, mode):
        cfg = HierConfig(mode=mode, digest_every=2, **SMALL)
        net = HierNetwork(cfg, seed=9)
        net.run_workload(200, warmup=400)  # learn rules, publish digests
        plan = superpeer_crash_plan(cfg.n_superpeers, crashes=3, seed=9)
        killed = []
        for event in plan.events:
            assert event.kind == CRASH
            placement = net.kill_superpeer(event.node)
            killed.append(event.node)
            # Every orphan re-homed onto a live super-peer...
            assert len(placement) >= cfg.leaves_per_superpeer
            for leaf, home in placement.items():
                assert net.superpeer_of(leaf) == home
                assert net.community.is_live(home)
                assert home not in killed
            # ... with its library re-indexed at the new home.
            for leaf, home in placement.items():
                file_id = next(iter(net.library(leaf)))
                assert leaf in net.community.lookup(home, file_id)
            # Digest invalidation: no live table still carries the dead
            # origin's rules.
            for sp in net.community.live_superpeers():
                assert net.merged[sp].epoch_of(event.node) is None
                if net.kbuckets:
                    assert event.node not in net.kbuckets[sp]
        # All leaves live somewhere; no index entries were lost.
        total_indexed = sum(
            net.index_size(sp) for sp in net.community.live_superpeers()
        )
        assert total_indexed == sum(
            len(net.library(leaf)) for leaf in range(cfg.n_leaves)
        )
        # The overlay still answers queries.
        stats = net.run_workload(200, warmup=0)
        assert stats.success_rate > 0.5

    def test_churn_is_replayable(self):
        """Equal seed + equal plan -> identical placements and traffic."""
        plan = superpeer_crash_plan(SMALL["n_superpeers"], crashes=2, seed=4)

        def run():
            net = HierNetwork(
                HierConfig(mode="superpeer-rules", **SMALL), seed=21
            )
            net.run_workload(100, warmup=200)
            placements = [
                net.kill_superpeer(event.node) for event in plan.events
            ]
            stats = net.run_workload(200, warmup=0)
            return placements, stats.total_messages, stats.n_succeeded

        assert run() == run()

    def test_kill_dead_superpeer_is_noop(self):
        net = HierNetwork(HierConfig(mode="superpeer-rules", **SMALL), seed=2)
        assert net.kill_superpeer(3)
        assert net.kill_superpeer(3) == {}

    def test_killing_the_last_live_superpeer_is_refused_whole(self):
        """Six super-peers, five killed: the sixth has nowhere to send
        its leaves, so the kill must fail before anything changes."""
        cfg = HierConfig(
            mode="hybrid", digest_every=2, **{**SMALL, "n_superpeers": 6}
        )
        net = HierNetwork(cfg, seed=3)
        net.run_workload(150, warmup=150)
        for victim in range(5):
            assert net.kill_superpeer(victim)
        net.run_workload(50)  # refills the route memo the refusal must keep

        def state():
            return (
                net.topology.version,
                net.topology.edges(),
                net.community.live_superpeers(),
                [net.superpeer_of(leaf) for leaf in range(cfg.n_leaves)],
                net.index_size(5),
                [sorted(table._known) for table in net.kbuckets],
                [table.fingerprint() for table in net.merged],
                sorted(net._reaches),
                net._walk_steward.tolist(),
                net.directory,
                net.control_messages,
            )

        before = state()
        with pytest.raises(ValueError, match="last"):
            net.kill_superpeer(5)
        assert state() == before
        assert before[2] == [5] and before[7] == [5]
        stats = net.run_workload(100)
        assert stats.success_rate > 0.5



class TestRuleRung:
    """The rung's one cut: every table hands ``forward_picks`` its whole
    ranking, so a candidate the rung may not contact (a dead super-peer,
    the home itself) never takes a slot a live one further down had."""

    TOP_K = 2

    def network(self, mode: str) -> HierNetwork:
        return HierNetwork(
            HierConfig(mode=mode, rule_top_k=self.TOP_K, **SMALL), seed=3
        )

    @staticmethod
    def file_only_at(net: HierNetwork, last: int, elsewhere: list[int]) -> int:
        """A file ``last``'s community shares and none of ``elsewhere``'s."""
        return next(
            file_id
            for file_id in net.community.files(last).tolist()
            if not any(net.community.count(sp, file_id) for sp in elsewhere)
        )

    @pytest.mark.parametrize("mode", ["leaf-rules", "superpeer-rules", "hybrid"])
    def test_a_dead_top_consequent_leaves_top_k_live_picks(self, mode):
        net = self.network(mode)
        leaf = 0
        home = net.superpeer_of(leaf)
        dead, second, third = [sp for sp in range(8) if sp != home][:3]
        net.kill_superpeer(dead)
        file_id = self.file_only_at(net, third, [home, second])
        category = file_id // net.config.files_per_category
        table = (
            net.leaf_rules[leaf] if mode == "leaf-rules" else net.sp_rules[home].counts
        )
        for replier, support in ((dead, 5), (second, 4), (third, 3)):
            for _ in range(support):
                table.observe(category, replier)
        assert table.consequents(category) == [dead, second, third]

        outcome = net.query(leaf, file_id)
        # the rung contacted second and third, one message each
        assert outcome.rule_succeeded
        assert outcome.messages == 1 + self.TOP_K

    def test_a_digest_naming_the_home_costs_no_slot(self):
        net = self.network("superpeer-rules")
        leaf = 0
        home = net.superpeer_of(leaf)
        second, third = [sp for sp in range(8) if sp != home][:2]
        file_id = self.file_only_at(net, third, [home, second])
        category = file_id // net.config.files_per_category
        entries = [
            DigestEntry(category, home, 50),
            DigestEntry(category, second, 10),
            DigestEntry(category, third, 5),
        ]
        net.merged[home].merge(RuleDigest(second, 1, 65, entries))
        assert net.merged[home].consequents(category) == [home, second, third]

        outcome = net.query(leaf, file_id)
        assert outcome.rule_succeeded
        assert outcome.messages == 1 + self.TOP_K

def test_build_seconds_reach_the_global_registry(monkeypatch):
    """Each constructor reports its own part of a build under its own
    label: a ``HierNetwork`` is its substrate plus its tiers."""
    registry = MetricsRegistry()
    monkeypatch.setattr("repro.obs.registry.GLOBAL_REGISTRY", registry)
    Overlay(OverlayConfig(n_nodes=20), seed=1)
    SuperPeerNetwork(SuperPeerConfig(**SMALL), seed=1)
    HierNetwork(HierConfig(mode="hybrid", **SMALL), seed=1)
    family = registry.family("repro_sim_build_seconds")
    assert family.kind == "histogram" and family.labelnames == ("network",)
    built = family.children()
    assert {labels: child.count for labels, child in built.items()} == {
        ("overlay",): 1,
        ("superpeer",): 2,
        ("hier",): 1,
    }
    assert all(child.sum > 0.0 for child in built.values())


def test_population_bytes_reach_the_global_registry(monkeypatch):
    """The gauge reads the library buffer at construction and grows by
    each derived buffer when that buffer is built or rebuilt."""
    registry = MetricsRegistry()
    monkeypatch.setattr("repro.obs.registry.GLOBAL_REGISTRY", registry)
    net = HierNetwork(HierConfig(mode="flood", **SMALL), seed=1)
    family = registry.family("repro_sim_population_bytes")
    assert family.kind == "gauge" and family.labelnames == ("network",)
    gauge = family.children()[("superpeer",)]
    pairs = sum(len(net.library(leaf)) for leaf in range(net.config.n_leaves))
    stored = gauge.value
    assert stored == net.community.nbytes >= 4 * pairs
    net.run_workload(200)  # index probes, then floods: both buffers exist
    assert gauge.value == net.community.nbytes
    # two int32 columns in the community index; at least a byte a key
    # in the holder index, whose integer type follows the world's size
    assert gauge.value - stored >= 9 * pairs
    net.kill_superpeer(2)
    assert net.community.nbytes == stored  # dropped, not yet rebuilt
    net.run_workload(200)
    assert gauge.value == net.community.nbytes > stored
