"""TopologyChurn: fault plans replayed as offline topology mutation."""

from repro.faults.churn import TopologyChurn
from repro.faults.plan import CRASH, HEAL, PARTITION, RESTART, FaultEvent, FaultPlan
from repro.network.topology import Topology


def ring4() -> Topology:
    return Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def edge_set(churn):
    return set(churn.topology.edges())


class TestTopologyChurn:
    def test_crash_detaches_and_restart_restores(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=1),
                FaultEvent(time=2.0, kind=RESTART, node=1),
            ),
            duration=3.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(1.0)
        assert churn.down == {1}
        assert churn.alive() == {0, 2, 3}
        assert edge_set(churn) == {(2, 3), (0, 3)}
        churn.advance_to(2.0)
        assert churn.down == set()
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_partition_cuts_cross_edges_and_heal_restores(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=1.0, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
                FaultEvent(time=2.0, kind=HEAL),
            ),
            duration=3.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(1.5)
        assert edge_set(churn) == {(0, 1), (2, 3)}
        churn.advance_to(2.5)
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_heal_while_node_down_defers_its_edges_to_rejoin(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=1),
                FaultEvent(
                    time=2.0, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
                FaultEvent(time=3.0, kind=HEAL),
                FaultEvent(time=4.0, kind=RESTART, node=1),
            ),
            duration=5.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(3.0)  # healed, but node 1 still down
        assert edge_set(churn) == {(2, 3), (0, 3)}
        churn.advance_to(4.0)  # node 1 rejoins with all its edges
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_restart_during_partition_keeps_crossing_edges_cut(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=0),
                FaultEvent(
                    time=2.0, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
                FaultEvent(time=3.0, kind=RESTART, node=0),
                FaultEvent(time=4.0, kind=HEAL),
            ),
            duration=5.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(3.0)  # node 0 is back, the partition still holds
        assert edge_set(churn) == {(0, 1), (2, 3)}
        churn.advance_to(4.0)  # the heal restores (0, 3) with (1, 2)
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_finish_heals_what_a_rejoin_left_cut(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=0),
                FaultEvent(
                    time=2.0, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
                FaultEvent(time=3.0, kind=RESTART, node=0),
            ),
            duration=4.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(3.0)
        assert (0, 3) not in edge_set(churn)
        churn.finish()
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_finish_restores_end_state(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=2),
                FaultEvent(
                    time=2.0, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
            ),
            duration=3.0,
        )
        churn = TopologyChurn(ring4(), plan)
        applied = churn.finish()
        assert edge_set(churn) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        kinds = [entry["kind"] for entry in applied]
        assert "final-restart" in kinds and "final-heal" in kinds

    def test_degree_cap_can_refuse_a_rejoin(self):
        topology = ring4()
        topology.max_degree = 2
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=1),
                FaultEvent(time=2.0, kind=RESTART, node=1),
            ),
            duration=3.0,
        )
        churn = TopologyChurn(topology, plan)
        churn.advance_to(1.0)
        topology.add_edge(0, 2)  # fills both endpoints' budgets
        churn.advance_to(2.0)
        # node 1's old edges cannot come back under the cap
        assert topology.neighbors(1) == ()

    def test_link_level_kinds_are_ignored_offline(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=0.5, kind="latency", link=(0, 1), seconds=0.1
                ),
                FaultEvent(time=1.0, kind=CRASH, node=1),
            ),
            duration=2.0,
        )
        churn = TopologyChurn(ring4(), plan)
        churn.advance_to(0.5)
        assert churn.log == []  # latency has no offline meaning
        churn.advance_to(1.0)
        assert [entry["kind"] for entry in churn.log] == [CRASH]

    def test_log_is_deterministic(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind=CRASH, node=1),
                FaultEvent(time=2.0, kind=RESTART, node=1),
                FaultEvent(
                    time=2.5, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
            ),
            duration=4.0,
        )
        a = TopologyChurn(ring4(), plan)
        b = TopologyChurn(ring4(), plan)
        a.finish()
        b.finish()
        assert a.log == b.log
        assert edge_set(a) == edge_set(b)
