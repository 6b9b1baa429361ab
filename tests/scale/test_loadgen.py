"""Open-loop load generation: determinism, distributions, the stall property."""

import asyncio
import math
import statistics
import time

import pytest

from tests.live.streampeer import accept_handshake
from repro.live.cluster import LiveCluster
from repro.network.topology import Topology
from repro.scale.loadgen import (
    TASK_BROWSE,
    TASK_IDLE,
    TASK_QUERY,
    LoadConfig,
    LoadGenerator,
    LoadResult,
    build_schedule,
)

VOCAB = ["alpha", "bravo", "charlie", "delta"]


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestSchedule:
    def test_same_seed_same_schedule(self):
        config = LoadConfig(rps=100.0, duration=5.0, seed=42)
        a = build_schedule(config, VOCAB, 3)
        b = build_schedule(config, VOCAB, 3)
        assert a == b
        c = build_schedule(
            LoadConfig(rps=100.0, duration=5.0, seed=43), VOCAB, 3
        )
        assert a != c

    def test_offered_rate_matches_rps(self):
        for think in ("exponential", "lognormal", "fixed"):
            config = LoadConfig(
                rps=200.0, duration=20.0, seed=1, think=think
            )
            schedule = build_schedule(config, VOCAB, 2)
            # expectation is rps * duration arrivals; the seeded draw
            # should land well within 10% for 4000 expected samples.
            assert len(schedule) == pytest.approx(4000, rel=0.10), think
            gaps = [
                b.at - a.at for a, b in zip(schedule, schedule[1:])
            ]
            assert statistics.mean(gaps) == pytest.approx(
                1.0 / config.rps, rel=0.10
            ), think

    def test_fixed_think_is_a_metronome(self):
        config = LoadConfig(rps=10.0, duration=1.0, think="fixed")
        schedule = build_schedule(config, VOCAB, 1)
        gaps = {round(b.at - a.at, 9) for a, b in zip(schedule, schedule[1:])}
        assert gaps == {0.1}

    def test_mix_weights_respected(self):
        config = LoadConfig(
            rps=500.0,
            duration=10.0,
            seed=5,
            mix=((TASK_QUERY, 0.5), (TASK_BROWSE, 0.25), (TASK_IDLE, 0.25)),
        )
        schedule = build_schedule(config, VOCAB, 2)
        kinds = [task.kind for task in schedule]
        n = len(kinds)
        assert kinds.count(TASK_QUERY) / n == pytest.approx(0.5, abs=0.05)
        assert kinds.count(TASK_BROWSE) / n == pytest.approx(0.25, abs=0.05)
        # queries carry a term from the vocabulary; the rest don't.
        for task in schedule:
            if task.kind == TASK_QUERY:
                assert task.term in VOCAB
            else:
                assert task.term == ""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(rps=0.0, duration=1.0)
        with pytest.raises(ValueError):
            LoadConfig(rps=1.0, duration=1.0, trace_sample=-1)
        with pytest.raises(ValueError):
            LoadConfig(rps=1.0, duration=1.0, think="uniform")
        with pytest.raises(ValueError):
            LoadConfig(rps=1.0, duration=1.0, mix=(("query", -1.0),))
        with pytest.raises(ValueError):
            LoadConfig(rps=1.0, duration=1.0, mix=(("warble", 1.0),))
        with pytest.raises(ValueError):
            build_schedule(LoadConfig(rps=1.0, duration=1.0), [], 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rps", "duration", "request_timeout"])
    def test_non_finite_values_rejected(self, name, value):
        """nan or inf would leave build_schedule looping forever; the
        config refuses them before any schedule is built."""
        settings = {"rps": 1.0, "duration": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            LoadConfig(**settings)


class TestLatencySummary:
    def test_percentiles_are_nearest_rank_samples(self):
        result = LoadResult(offered_rps=1.0, duration=1.0, scheduled=200)
        # 1..200 ms, recorded out of order
        result.latencies = [i / 1000 for i in range(200, 0, -1)]
        latency = result.to_dict()["latency"]
        assert latency["count"] == 200
        assert latency["min_seconds"] == 0.001
        assert latency["max_seconds"] == 0.2
        assert latency["mean_seconds"] == pytest.approx(0.1005)
        # rank ceil(200 * p / 100): the 100th, 190th and 198th smallest
        assert latency["p50_seconds"] == 0.1
        assert latency["p95_seconds"] == 0.19
        assert latency["p99_seconds"] == 0.198

    def test_a_step_with_no_answers_reads_zero(self):
        latency = LoadResult(1.0, 1.0, 0).to_dict()["latency"]
        assert latency["count"] == 0
        assert latency["p99_seconds"] == latency["mean_seconds"] == 0.0


async def stalled_servent(node_id: int = 999):
    """A server that completes the handshake, then reads and discards
    forever — the pathological target a closed-loop driver would
    coordinate with and an open-loop driver must not."""

    async def handle(reader, writer):
        try:
            await accept_handshake(reader, writer, node_id)
            while await reader.read(65536):
                pass
        except (OSError, asyncio.IncompleteReadError, Exception):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestOpenLoopProperty:
    @pytest.mark.live
    def test_stalled_target_does_not_slow_the_schedule(self):
        """The acceptance property: a target that answers nothing must
        not stretch the offered schedule by more than 5%."""

        async def body():
            server, port = await stalled_servent()
            try:
                config = LoadConfig(
                    rps=150.0, duration=2.0, seed=3, request_timeout=0.3
                )
                generator = LoadGenerator(
                    [("127.0.0.1", port)], VOCAB, config
                )
                return await generator.run()
            finally:
                server.close()
                await server.wait_closed()

        result = run(body())
        assert result.requests > 0
        assert result.completed == 0
        # every non-idle request aged into a timeout...
        assert result.timeouts == result.requests
        assert result.error_rate == 1.0
        # ...while the generator kept offering load on schedule.
        assert result.schedule_stretch < 0.05
        assert result.achieved_rps == pytest.approx(
            result.requests / result.duration, rel=1e-6
        )

    @pytest.mark.live
    def test_a_generator_stall_is_charged_to_its_requests(self):
        """Latency runs from the instant a request was due: a request the
        stalled generator issued late waited at least that long."""

        async def body():
            async with LiveCluster(Topology(1, [])) as cluster:
                cluster.stock_partitioned_library(VOCAB)
                config = LoadConfig(
                    rps=100.0, duration=1.5, seed=4, mix=((TASK_QUERY, 1.0),)
                )
                generator = LoadGenerator(
                    [(cluster.host, cluster.nodes[0].port)], VOCAB, config
                )
                asyncio.get_running_loop().call_later(0.5, time.sleep, 0.2)
                return await generator.run()

        result = run(body())
        assert result.max_lateness_seconds >= 0.15
        assert result.completed == result.requests > 0
        assert max(result.latencies) >= result.max_lateness_seconds

    @pytest.mark.live
    def test_unreachable_target_fails_fast(self):
        async def body():
            # a port with nothing listening: connect fails fast.
            server, port = await stalled_servent()
            server.close()
            await server.wait_closed()
            config = LoadConfig(rps=50.0, duration=0.5, seed=9)
            generator = LoadGenerator([("127.0.0.1", port)], VOCAB, config)
            with pytest.raises(OSError):
                await generator.run()

        run(body())
