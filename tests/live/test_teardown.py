"""Teardown and backoff regressions: aclose reaping, flush-then-close,
the idle watchdog, seeded retry jitter.  The leak tests run with
ResourceWarning promoted to an error, so an abandoned transport or task
fails loudly."""

import asyncio
import gc

import pytest

from repro.live.connection import ConnectionConfig, backoff_delays, dial_peer
from repro.live.node import LiveServent
from repro.network.protocol import PingMessage, encode_message
from tests.live.streampeer import aclose_writer, dial_raw, sink_server


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


FAST = ConnectionConfig(
    keepalive_interval=0.0,
    idle_timeout=0.0,
    retry_initial_delay=0.02,
    retry_max_delay=0.1,
)


def ignore(*_args):
    """An ``on_message`` for links whose traffic the test does not read."""


def task_baseline():
    """Snapshot the tasks alive before the test body does anything.

    ``run()`` wraps each body in ``asyncio.wait_for``, whose wrapper task
    stays pending until the body returns — a baseline keeps it (and the
    body's own task) out of the stray-task check.
    """
    return set(asyncio.all_tasks())


def stray_tasks(baseline):
    current = asyncio.current_task()
    return [
        t
        for t in asyncio.all_tasks()
        if t is not current and t not in baseline and not t.done()
    ]


async def assert_no_strays(baseline, timeout=1.0):
    """Tasks that are merely a scheduling tick from exiting (a peer's
    accept handler draining EOF) get a short grace; leaked tasks never
    finish and still fail the assertion."""
    deadline = asyncio.get_running_loop().time() + timeout
    while stray_tasks(baseline) and (
        asyncio.get_running_loop().time() < deadline
    ):
        await asyncio.sleep(0.01)
    assert stray_tasks(baseline) == []


class TestAclose:
    def test_aclose_reaps_tasks_and_transport(self):
        async def body():
            baseline = task_baseline()
            timers = len(asyncio.get_running_loop()._scheduled)
            async with sink_server() as (port, _sink):
                conn = await dial_peer(
                    "127.0.0.1",
                    port,
                    0,
                    ConnectionConfig(keepalive_interval=5.0, idle_timeout=5.0),
                    on_message=ignore,
                    make_keepalive=lambda: None,
                )
                await conn.aclose()
                assert conn.closed
                assert conn._transport.is_closing()
                live = [
                    t
                    for t in asyncio.get_running_loop()._scheduled
                    if not t.cancelled()
                ]
                assert len(live) <= timers  # watchdog and keepalive cancelled
            await assert_no_strays(baseline)

        run(body())

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_tight_reconnect_loop_leaks_nothing(self):
        async def body():
            baseline = task_baseline()
            async with sink_server() as (port, _sink):
                links = []
                for _ in range(200):
                    conn = await dial_peer(
                        "127.0.0.1", port, 0, FAST, on_message=ignore
                    )
                    await conn.aclose()
                    links.append(conn)
                assert all(link._transport.is_closing() for link in links)
            await assert_no_strays(baseline)

        run(body())
        gc.collect()  # surfaces unclosed transports as ResourceWarnings

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_supervised_reconnect_cycles_leak_nothing(self):
        """Kill and re-listen under one supervisor: the re-dial path must
        see each dead connection gone before dialing the next."""

        async def body():
            baseline = task_baseline()
            peer = LiveServent(7, port=0, config=FAST)
            await peer.start()
            port = peer.port
            node = LiveServent(0, port=0, config=FAST)
            await node.start()
            node.add_peer("127.0.0.1", port, peer_id=7)
            for _ in range(3):
                while 7 not in node.connected_peers:
                    await asyncio.sleep(0.005)
                await peer.close()
                peer = LiveServent(7, port=port, config=FAST)
                await peer.start()
            while 7 not in node.connected_peers:
                await asyncio.sleep(0.005)
            assert node.stats.reconnects >= 3
            await node.close()
            await peer.close()
            assert not node._links and not peer._links
            await assert_no_strays(baseline)

        run(body())
        gc.collect()

    def test_flush_delivers_queued_frames(self):
        async def body():
            async with sink_server() as (port, sink):
                conn = await dial_peer(
                    "127.0.0.1", port, 0, FAST, on_message=ignore
                )
                payload = b"x" * 100
                for _ in range(50):
                    assert conn.send(payload)
                await conn.aclose(flush=True)
                await asyncio.wait_for(sink["eof"].wait(), 5.0)
                assert len(sink["data"]) == 50 * len(payload)

        run(body())

    def test_flush_gives_up_on_a_stalled_peer(self):
        """``aclose(flush=True)`` towards a peer that stopped reading
        falls back to the hard close after ``close_flush_timeout``."""

        async def body():
            config = ConnectionConfig(
                keepalive_interval=0.0, idle_timeout=0.0, close_flush_timeout=0.2
            )
            async with sink_server(deaf=True) as (port, _sink):
                conn = await dial_peer(
                    "127.0.0.1", port, 0, config, on_message=ignore
                )
                payload = b"x" * 65_536
                while conn._transport.get_write_buffer_size() == 0:
                    assert conn.send(payload)  # until the kernel stops taking it
                    await asyncio.sleep(0)
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                await conn.aclose(flush=True)
                assert 0.15 <= loop.time() - t0 < 1.0
                assert conn._transport.is_closing()

        run(body())

    def test_draining_connection_refuses_new_frames(self):
        async def body():
            async with sink_server() as (port, sink):
                conn = await dial_peer(
                    "127.0.0.1", port, 0, FAST, on_message=ignore
                )
                assert conn.send(b"before")
                closer = asyncio.ensure_future(conn.aclose(flush=True))
                await asyncio.sleep(0)  # _draining is set synchronously
                assert not conn.send(b"after")
                await closer
                await asyncio.wait_for(sink["eof"].wait(), 5.0)
                assert sink["data"] == b"before"

        run(body())


class TestIdleWatchdog:
    CONFIG = ConnectionConfig(keepalive_interval=0.0, idle_timeout=0.3)

    def test_silent_peer_dropped_chatty_peer_kept(self):
        async def body():
            node = LiveServent(0, config=self.CONFIG)
            await node.start()
            _r1, silent, _ = await dial_raw(node.port, 1)
            _r2, chatty, _ = await dial_raw(node.port, 2)
            while node.connected_peers != {1, 2}:
                await asyncio.sleep(0.005)
            for guid in range(1, 8):  # 0.7 s of traffic, a frame per 0.1 s
                chatty.write(encode_message(guid, 1, 0, PingMessage()))
                await asyncio.sleep(0.1)
            assert node.connected_peers == {2}
            assert node.stats.protocol_errors == 0
            await aclose_writer(silent)
            await aclose_writer(chatty)
            await node.close()

        run(body())

    def test_reads_schedule_no_timers(self):
        """The idle check is one re-arming timer per link, not one per
        read: ``loop._scheduled`` stays O(links) under traffic."""

        async def body():
            loop = asyncio.get_running_loop()
            node = LiveServent(0, config=ConnectionConfig(idle_timeout=30.0))
            await node.start()
            writers = []
            for peer in (1, 2, 3):
                _reader, writer, _ = await dial_raw(node.port, peer)
                writers.append(writer)
            while len(node.connected_peers) < 3:
                await asyncio.sleep(0.005)
            idle = len(loop._scheduled)
            for guid in range(1, 301):
                writers[guid % 3].write(encode_message(guid, 1, 0, PingMessage()))
                await asyncio.sleep(0)
            while node.stats.frames_in < 300:
                await asyncio.sleep(0.005)
            assert len(loop._scheduled) <= idle + 1  # +1: this sleep
            for writer in writers:
                await aclose_writer(writer)
            await node.close()

        run(body())


class TestJitteredBackoff:
    CONFIG = ConnectionConfig(
        retry_initial_delay=0.5,
        retry_backoff=2.0,
        retry_max_delay=3.0,
        retry_jitter=0.5,
        retry_jitter_seed=99,
    )

    def take(self, salt, n=6):
        gen = backoff_delays(self.CONFIG, salt=salt)
        return [next(gen) for _ in range(n)]

    def test_same_seed_and_salt_replays(self):
        assert self.take(salt=1) == self.take(salt=1)

    def test_different_salts_decorrelate(self):
        assert self.take(salt=1) != self.take(salt=2)

    def test_jitter_stays_within_bounds(self):
        bases = [0.5, 1.0, 2.0, 3.0, 3.0, 3.0]
        for delay, base in zip(self.take(salt=5), bases):
            assert base * 0.5 <= delay <= base

    def test_zero_jitter_keeps_exact_exponential(self):
        config = ConnectionConfig(
            retry_initial_delay=0.5, retry_backoff=2.0, retry_max_delay=3.0
        )
        gen = backoff_delays(config, salt=123)
        assert [next(gen) for _ in range(6)] == [0.5, 1.0, 2.0, 3.0, 3.0, 3.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConnectionConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ConnectionConfig(retry_jitter=1.5)
        with pytest.raises(ValueError):
            ConnectionConfig(retry_jitter=-0.1)
        with pytest.raises(ValueError):
            ConnectionConfig(close_flush_timeout=0.0)
