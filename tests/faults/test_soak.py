"""The chaos-soak harness end to end: invariants + bit-identical replay."""

import asyncio
import gc
import json

import pytest

from repro.faults.plan import CRASH, PARTITION, RESTART, FaultEvent, FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.soak import chaos_soak, expected_min_reconnects, make_plan, run_soak
from repro.faults.transport import FaultController
from repro.network.topology import Topology


class TestExpectedMinReconnects:
    TOPOLOGY = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_crash_counts_surviving_dialers(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.1, kind=CRASH, node=2),
                FaultEvent(time=0.5, kind=RESTART, node=2),
            ),
            duration=1.0,
        )
        # node 2's neighbors are 1 and 3; only node 1 dials it (1 < 2)
        assert expected_min_reconnects(self.TOPOLOGY, plan) == 1

    def test_partition_counts_cross_edges(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=0.1, kind=PARTITION, groups=((0, 1), (2, 3))
                ),
                FaultEvent(time=0.5, kind="heal"),
            ),
            duration=1.0,
        )
        # cross edges: (1, 2) and (0, 3)
        assert expected_min_reconnects(self.TOPOLOGY, plan) == 2

    def test_unapplied_log_entries_are_skipped(self):
        log = [
            {"time": 0.1, "kind": "reset", "link": [0, 1], "applied": True},
            {"time": 0.2, "kind": "corrupt", "link": [1, 2], "applied": False},
        ]
        assert expected_min_reconnects(self.TOPOLOGY, log) == 1


class TestMakePlan:
    def test_unknown_name_raises(self):
        topology = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            make_plan("meteor-strike", topology)


class TestTimeScale:
    """inf hung the injector on its first sleep; nan compared false with
    every delay, so every fault fired at once."""

    EMPTY = FaultPlan(events=(), duration=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_injector_refuses_non_finite(self, value):
        injector = FaultInjector(self.EMPTY, FaultController())

        async def body():
            await asyncio.wait_for(injector.run(None, time_scale=value), 2.0)

        with pytest.raises(ValueError, match="time_scale"):
            asyncio.run(body())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_soak_refuses_before_booting(self, value):
        topology = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

        async def body():
            await asyncio.wait_for(
                run_soak(topology, self.EMPTY, warmup_queries=0, time_scale=value),
                10.0,
            )

        with pytest.raises(ValueError, match="time_scale"):
            asyncio.run(body())


@pytest.mark.live
class TestChaosSoak:
    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_mixed_soak_passes_and_replays_bit_identically(self):
        first = chaos_soak("mixed", n_nodes=6, seed=5)
        second = chaos_soak("mixed", n_nodes=6, seed=5)
        assert first.ok, first.format()
        assert second.ok, second.format()
        assert first.fingerprint() == second.fingerprint()
        assert json.dumps(first.events) == json.dumps(second.events)
        assert first.observed["leaked_tasks"] == 0
        gc.collect()  # leaked transports would raise ResourceWarning here

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_crash_restart_soak_holds_every_invariant(self):
        report = chaos_soak("crash-restart", n_nodes=6, seed=3)
        assert report.ok, report.format()
        assert (
            report.observed["reconnects"]
            >= report.observed["expected_min_reconnects"]
        )
        gc.collect()

    def test_report_fingerprint_ignores_timing_noise(self):
        report = chaos_soak("partition-heal", n_nodes=6, seed=9)
        assert report.ok, report.format()
        before = report.fingerprint()
        report.observed["frames_in"] += 1234.0  # timing-noisy, not hashed
        assert report.fingerprint() == before
        data = json.loads(report.to_json())
        assert data["fingerprint"] == before
        assert data["ok"] is True
