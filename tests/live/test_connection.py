"""Connection-layer behaviour: handshake, backoff, backpressure."""

import asyncio

import pytest

from repro.live.connection import (
    ConnectionConfig,
    HandshakeError,
    PeerConnection,
    backoff_delays,
    dial_peer,
)
from repro.live.node import LiveServent
from repro.network.protocol import (
    PAYLOAD_PONG,
    PingMessage,
    QueryHitMessage,
    QueryMessage,
    encode_message,
)
from repro.obs.instruments import NodeInstruments
from repro.obs.registry import MetricsRegistry
from tests.live.streampeer import (
    accept_handshake,
    aclose_writer,
    captured_warnings,
    dial_raw,
    sink_server,
)


def ignore(*_args):
    """An ``on_message`` for links whose traffic the test does not read."""


def run(coro, timeout=20.0):
    """Run an async test body under a hard timeout so a bug hangs the
    test, not the suite."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def free_port() -> int:
    """A port that was just free (and is free again once we return)."""
    server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


class TestBackoffDelays:
    def test_exponential_growth_capped(self):
        config = ConnectionConfig(
            retry_initial_delay=0.5, retry_backoff=2.0, retry_max_delay=3.0
        )
        gen = backoff_delays(config)
        delays = [next(gen) for _ in range(6)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0, 3.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConnectionConfig(send_queue_limit=0)
        with pytest.raises(ValueError):
            ConnectionConfig(retry_backoff=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["retry_initial_delay", "retry_backoff", "retry_max_delay",
         "close_flush_timeout"],
    )
    def test_non_finite_time_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ConnectionConfig(**{field: value})


class TestHandshake:
    def test_roundtrip_exchanges_node_ids(self):
        async def body():
            accepted = []
            server = await asyncio.get_running_loop().create_server(
                lambda: PeerConnection(
                    7,
                    dialer=False,
                    config=ConnectionConfig(),
                    on_message=ignore,
                    on_ready=accepted.append,
                ),
                "127.0.0.1",
                0,
            )
            port = server.sockets[0].getsockname()[1]
            link = await dial_peer(
                "127.0.0.1", port, 3, ConnectionConfig(), on_message=ignore
            )
            assert link.peer_id == 7
            for _ in range(100):
                if accepted:
                    break
                await asyncio.sleep(0.01)
            assert [peer.peer_id for peer in accepted] == [3]
            await link.aclose()
            await accepted[0].aclose()
            server.close()
            await server.wait_closed()

        run(body())

    def test_garbage_greeting_rejected(self):
        async def body():
            async def on_accept(reader, writer):
                writer.write(b"HTTP/1.1 200 OK\n\n")
                await aclose_writer(writer)

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            with pytest.raises(HandshakeError):
                await dial_peer(
                    "127.0.0.1", port, 3, ConnectionConfig(), on_message=ignore
                )
            server.close()
            await server.wait_closed()

        run(body())

    def test_wrong_peer_identity_rejected(self):
        async def body():
            async def on_accept(reader, writer):
                await accept_handshake(reader, writer, 8)
                await aclose_writer(writer)

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            with pytest.raises(HandshakeError, match="expected node 7"):
                await dial_peer(
                    "127.0.0.1",
                    port,
                    3,
                    ConnectionConfig(),
                    on_message=ignore,
                    expect_peer=7,
                )
            server.close()
            await server.wait_closed()

        run(body())

    def test_dial_peer_to_dead_port_raises(self):
        async def body():
            port = await free_port()
            config = ConnectionConfig(connect_timeout=1.0)
            with pytest.raises(OSError):
                await dial_peer("127.0.0.1", port, 0, config, on_message=ignore)

        run(body())


class TestReconnectBackoff:
    def test_supervisor_counts_failures_then_gives_up(self):
        async def body():
            port = await free_port()
            node = LiveServent(
                0,
                config=ConnectionConfig(
                    connect_timeout=0.5,
                    retry_initial_delay=0.02,
                    retry_backoff=2.0,
                    retry_max_delay=0.1,
                    max_retries=3,
                ),
            )
            await node.start()
            node.add_peer("127.0.0.1", port, peer_id=1)
            # 3 failures at ~0.02 + 0.04 backoff between them.
            for _ in range(200):
                if node.stats.dial_failures >= 3:
                    break
                await asyncio.sleep(0.01)
            assert node.stats.dial_failures == 3
            await asyncio.sleep(0.15)  # past where a 4th retry would land
            assert node.stats.dial_failures == 3  # gave up after max_retries
            assert node.stats.connects == 0
            await node.close()

        run(body())


class TestBackpressure:
    def test_bounded_send_queue_drops_excess(self):
        async def body():
            # Nothing is flushed before the next loop tick, so within one
            # tick the outbox bound is the whole story.
            async with sink_server(deaf=True) as (port, _sink):
                conn = await dial_peer(
                    "127.0.0.1",
                    port,
                    1,
                    ConnectionConfig(send_queue_limit=2),
                    on_message=ignore,
                )
                assert conn.send(b"one")
                assert conn.send(b"two")
                assert not conn.send(b"three")  # valve shut: outbox full
                assert conn.pending_frames == 2
                assert conn.sends_rejected == 1
                await conn.aclose()

        run(body())

    def test_stalled_reader_fills_transport_then_outbox_then_sheds(self):
        """A peer that accepts and never reads: sends succeed until the
        kernel, the transport (to its high-water mark) and the outbox
        are all full, then are refused and counted — never buffered."""

        async def body():
            limit = 4
            node = LiveServent(
                0,
                config=ConnectionConfig(
                    send_queue_limit=limit, keepalive_interval=0.0, idle_timeout=0.0
                ),
            )
            await node.start()
            async with sink_server(deaf=True) as (port, _sink):
                node.add_peer("127.0.0.1", port, peer_id=9)
                while 9 not in node.connected_peers:
                    await asyncio.sleep(0.005)
                conn = node._conns[9]
                frame = encode_message(
                    1, 7, 0, QueryMessage(min_speed=0, search="x" * 32_000)
                )
                accepted = 0
                for _ in range(5_000):
                    if not node._send(9, frame):
                        break
                    accepted += 1
                    await asyncio.sleep(0)  # one tick: the outbox is flushed
                else:
                    pytest.fail("a peer that never reads absorbed 160 MB")
                high_water = conn._transport.get_write_buffer_limits()[1]
                # the transport took frames past its high-water mark, then
                # the link held exactly ``limit`` more back before refusing
                assert conn._transport.get_write_buffer_size() > high_water
                assert accepted * len(frame) > high_water + limit * len(frame)
                assert conn.pending_frames == limit
                assert conn.sends_rejected == 1
                assert node.stats.frames_out == accepted
                assert node.stats.frames_dropped == 1
                assert node.stats.queries_shed == 1
                assert not node._send(9, frame)
                assert conn.pending_frames == limit  # refused, not buffered
                assert node.stats.queries_shed == 2
                await node.close()

        run(body())

    def test_paused_link_drains_its_outbox_in_order_on_resume(self):
        """Past the transport's high-water mark the link pauses and new
        frames wait in its outbox; when the peer reads again,
        ``resume_writing`` hands them over in the order they were sent,
        and a pause longer than ``drain_stall_threshold`` counts one
        drain stall."""

        async def body():
            instruments = NodeInstruments(MetricsRegistry(), 1)
            config = ConnectionConfig(
                drain_stall_threshold=0.2, keepalive_interval=0.0, idle_timeout=0.0
            )
            async with sink_server(deaf=True) as (port, sink):
                conn = await dial_peer(
                    "127.0.0.1",
                    port,
                    1,
                    config,
                    on_message=ignore,
                    instruments=instruments,
                )
                filler = b"\0" * 65536
                for _ in range(5_000):
                    if conn._paused:
                        break
                    assert conn.send(filler)
                    await asyncio.sleep(0)  # one tick: the outbox is flushed
                else:
                    pytest.fail("a peer that never reads absorbed 320 MB")
                high_water = conn._transport.get_write_buffer_limits()[1]
                assert conn._transport.get_write_buffer_size() > high_water
                frames = [b"frame-%04d;" % i for i in range(50)]
                for frame in frames:
                    assert conn.send(frame)
                await asyncio.sleep(0.5)  # a stall, longer than the threshold
                assert conn.pending_frames == len(frames)
                assert instruments.drain_stalls.value == 0  # counted on resume
                sink["release"].set()
                while conn.pending_frames:
                    await asyncio.sleep(0.005)
                assert not conn._paused
                assert instruments.drain_stalls.value == 1
                await conn.aclose(flush=True)
                await asyncio.wait_for(sink["eof"].wait(), 5.0)
            data = sink["data"]
            assert data[data.index(b"frame-0000;") :] == b"".join(frames)

        run(body())

    def test_send_after_close_is_refused(self):
        async def body():
            async with sink_server(deaf=True) as (port, _sink):
                conn = await dial_peer(
                    "127.0.0.1", port, 1, ConnectionConfig(), on_message=ignore
                )
                conn.close()
                assert not conn.send(b"frame")
                await conn.aclose()

        run(body())


class TestMalformedPeer:
    def test_garbage_frames_drop_the_peer(self):
        async def body():
            node = LiveServent(0, config=ConnectionConfig(handshake_timeout=1.0))
            await node.start()
            reader, writer, _peer = await dial_raw(node.port, 1)
            for _ in range(100):
                if node.connected_peers:
                    break
                await asyncio.sleep(0.01)
            assert node.connected_peers == {1}
            writer.write(b"\xde\xad\xbe\xef" * 8)  # not a descriptor
            await writer.drain()
            for _ in range(200):
                if not node.connected_peers:
                    break
                await asyncio.sleep(0.01)
            assert node.connected_peers == set()
            assert node.stats.protocol_errors == 1
            writer.close()
            await node.close()

        run(body())

    @staticmethod
    async def relay_poison(poison_for):
        """A node with a good peer (2) and a bad one (1).  Peer 2 asks a
        query, so a hit from peer 1 would be relayed back to it; peer 1
        then sends ``poison_for(query guid)``.  Returns the node's
        protocol-error count, the warnings it logged, and whether it was
        still serving peer 2 afterwards."""
        node = LiveServent(0, config=ConnectionConfig(keepalive_interval=0.0))
        await node.start()
        _bad_reader, bad, _ = await dial_raw(node.port, 1)
        good_reader, good, _ = await dial_raw(node.port, 2)
        while node.connected_peers != {1, 2}:
            await asyncio.sleep(0.005)
        good.write(encode_message(50, 7, 0, QueryMessage(min_speed=0, search="x")))
        while node.stats.frames_in < 1:
            await asyncio.sleep(0.005)
        with captured_warnings() as records:
            bad.write(poison_for(50))
            while node.connected_peers != {2}:
                await asyncio.sleep(0.005)
            errors = node.stats.protocol_errors
        good.write(encode_message(51, 1, 0, PingMessage()))
        pong = await asyncio.wait_for(good_reader.readexactly(23 + 14), 5.0)
        await aclose_writer(bad)
        await aclose_writer(good)
        await node.close()
        return errors, records, pong[16] == PAYLOAD_PONG

    def test_lone_nul_in_hit_file_name_is_a_protocol_error(self):
        """Such a hit used to decode and then blow up the re-encode of the
        relay with a bare ValueError, killing the reader task silently."""

        def poison_for(guid):
            hit = QueryHitMessage(
                port=1, ip="10.0.0.1", speed=1, file_index=0, file_size=1,
                file_name="a#b", servent_guid=7,
            )
            return encode_message(guid, 7, 0, hit).replace(b"a#b", b"a\x00b")

        errors, records, still_serving = run(self.relay_poison(poison_for))
        assert errors == 1
        (record,) = records
        assert record.levelname == "WARNING" and record.suppressed == 0
        assert "NUL" in record.error
        assert still_serving

    def test_hop_overflow_is_a_protocol_error(self):
        """A Query at hops=255 cannot be aged into a byte: a typed drop,
        not the bare ValueError ``header.aged()`` used to raise."""

        def poison_for(guid):
            query = QueryMessage(min_speed=0, search="y")
            return encode_message(guid + 1, 7, 255, query)

        errors, records, still_serving = run(self.relay_poison(poison_for))
        assert errors == 1
        (record,) = records
        assert record.levelname == "WARNING" and record.suppressed == 0
        assert "hop count" in record.error
        assert still_serving

    def test_handshake_timeout_drops_silent_dialer(self):
        async def body():
            node = LiveServent(0, config=ConnectionConfig(handshake_timeout=0.05))
            await node.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
            # Say nothing; the acceptor must give up quickly.
            await asyncio.sleep(0.2)
            assert node.connected_peers == set()
            assert node.stats.protocol_errors == 1
            writer.close()
            await node.close()

        run(body())


def test_keepalive_pings_flow():
    async def body():
        config = ConnectionConfig(keepalive_interval=0.05, idle_timeout=0.0)
        a = LiveServent(0, config=config)
        b = LiveServent(1, config=config)
        await a.start()
        await b.start()
        a.add_peer("127.0.0.1", b.port, peer_id=1)
        for _ in range(300):
            if a.stats.pings_sent >= 2 and b.stats.pings_sent >= 2:
                break
            await asyncio.sleep(0.01)
        assert a.stats.pings_sent >= 2
        assert b.stats.pings_sent >= 2
        # keepalives are TTL-1 probes answered with Pongs, so frames flow
        # both ways and neither side sees a protocol error.
        assert a.stats.frames_in >= 2
        assert a.stats.protocol_errors == 0
        await a.close()
        await b.close()

    run(body())
