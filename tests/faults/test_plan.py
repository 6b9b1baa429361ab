"""FaultPlan semantics: validation, ordering, determinism."""

import pytest

from repro.faults.plan import (
    CORRUPT,
    CRASH,
    HEAL,
    LATENCY,
    PARTITION,
    RESTART,
    FaultEvent,
    FaultPlan,
    chaos_plan,
    crash_restart_plan,
    partition_heal_plan,
)


class TestFaultEvent:
    def test_node_kinds_need_a_node(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=CRASH)

    def test_link_kinds_need_an_ordered_link(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=CORRUPT)
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=CORRUPT, link=(3, 1))

    def test_partition_needs_two_nonempty_groups(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=PARTITION, groups=((0, 1), ()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="meteor", node=1)


class TestFaultPlan:
    def test_events_are_time_sorted(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=2.0, kind=RESTART, node=1),
                FaultEvent(time=1.0, kind=CRASH, node=1),
            ),
            duration=3.0,
        )
        assert [e.kind for e in plan.events] == [CRASH, RESTART]

    def test_duration_must_cover_last_event(self):
        with pytest.raises(ValueError):
            FaultPlan(
                events=(FaultEvent(time=5.0, kind=CRASH, node=0),),
                duration=1.0,
            )

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(
                events=(
                    FaultEvent(time=0.1, kind=CRASH, node=0),
                    FaultEvent(time=0.2, kind=CRASH, node=0),
                ),
                duration=1.0,
            )

    def test_restart_of_live_node_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(
                events=(FaultEvent(time=0.1, kind=RESTART, node=0),),
                duration=1.0,
            )

    def test_nested_partitions_rejected(self):
        cut = FaultEvent(time=0.1, kind=PARTITION, groups=((0,), (1,)))
        again = FaultEvent(time=0.2, kind=PARTITION, groups=((0,), (1,)))
        with pytest.raises(ValueError):
            FaultPlan(events=(cut, again), duration=1.0)

    def test_heal_without_partition_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(events=(FaultEvent(time=0.1, kind=HEAL),), duration=1.0)


class TestGenerators:
    def test_same_seed_is_bit_identical(self):
        a = chaos_plan(8, [(0, 1), (2, 3), (4, 5)], seed=11)
        b = chaos_plan(8, [(0, 1), (2, 3), (4, 5)], seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        edges = [(0, 1), (2, 3), (4, 5)]
        assert chaos_plan(8, edges, seed=1) != chaos_plan(8, edges, seed=2)

    def test_crash_restart_pairs_and_survivor(self):
        plan = crash_restart_plan(4, seed=0, crashes=5)
        counts = plan.kind_counts()
        # one node always stays up, so at most n-1 crash cycles
        assert counts[CRASH] == counts[RESTART] == 3
        crashed = {e.node for e in plan.events if e.kind == CRASH}
        assert len(crashed) == 3

    def test_partition_heal_bisects_all_nodes(self):
        plan = partition_heal_plan(7, seed=2)
        cut = next(e for e in plan.events if e.kind == PARTITION)
        assert sorted(cut.groups[0] + cut.groups[1]) == list(range(7))
        assert plan.kind_counts()[HEAL] == 1

    def test_chaos_plan_link_faults_land_on_known_edges(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        plan = chaos_plan(
            6, edges, seed=7, resets=1, truncations=1
        )
        edge_set = set(edges)
        for event in plan.events:
            if event.link is not None:
                assert event.link in edge_set

    def test_chaos_latency_spikes_clear_themselves(self):
        plan = chaos_plan(
            6,
            [(0, 1), (2, 3), (4, 5)],
            seed=1,
            crashes=0,
            partitions=0,
            corruptions=0,
            stalls=0,
            latency_spikes=1,
        )
        spikes = [e for e in plan.events if e.kind == LATENCY]
        assert len(spikes) == 2
        assert spikes[0].seconds > 0.0 and spikes[1].seconds == 0.0
        assert spikes[0].link == spikes[1].link
