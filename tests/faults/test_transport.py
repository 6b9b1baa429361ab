"""FaultyLink/FaultController behaviour over real sockets."""

import asyncio
import time

import pytest

from repro.faults.plan import CRASH, FaultEvent
from repro.faults.transport import FaultController, FaultyLink, LinkFaults
from repro.live.framing import StreamDecoder
from repro.network.protocol import ProtocolError


def run(coro, timeout=20.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class Recorder(asyncio.Protocol):
    """The protocol above the shim: records what reaches it, and when."""

    def __init__(self):
        self.transport = None
        self.chunks: list[tuple[float, bytes]] = []
        self.arrived = asyncio.Event()
        self.lost: asyncio.Future = asyncio.get_running_loop().create_future()

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.chunks.append((time.perf_counter(), data))
        self.arrived.set()

    def connection_lost(self, exc):
        self.lost.set_result(exc)

    async def next_chunk(self) -> tuple[float, bytes]:
        while not self.chunks:
            self.arrived.clear()
            await self.arrived.wait()
        return self.chunks.pop(0)


async def wrapped_pair(faults: LinkFaults):
    """One loopback connection with the client side fault-shimmed.

    Returns (server, link, accepted) — ``link.inner`` is the
    :class:`Recorder` above the shim, ``accepted`` the server's raw
    stream pair; callers hand all three to :func:`teardown`.
    """
    accepted = {}
    ready = asyncio.Event()

    async def on_accept(reader, writer):
        accepted["reader"], accepted["writer"] = reader, writer
        ready.set()

    server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    _transport, link = await asyncio.get_running_loop().create_connection(
        lambda: FaultyLink(Recorder(), faults), "127.0.0.1", port
    )
    await ready.wait()
    return server, link, accepted


async def teardown(server, link, accepted):
    writer = accepted.get("writer")
    if writer is not None:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass
    link.abort()
    await link.inner.lost
    server.close()
    await server.wait_closed()


class TestLinkFaults:
    def test_latency_delays_reads(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            faults.set_latency(0.15)
            t0 = time.perf_counter()
            accepted["writer"].write(b"hi")
            at, data = await link.inner.next_chunk()
            assert data == b"hi"
            assert at - t0 >= 0.14
            await teardown(server, link, accepted)

        run(body())

    def test_latency_delays_writes_and_keeps_order(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            faults.set_latency(0.15)
            t0 = time.perf_counter()
            link.write(b"first,")
            faults.set_latency(0.0)  # must still queue behind "first,"
            link.write(b"second")
            assert await accepted["reader"].readexactly(12) == b"first,second"
            assert time.perf_counter() - t0 >= 0.14
            await teardown(server, link, accepted)

        run(body())

    def test_stall_is_one_shot(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            assert faults._wrappers == {link}
            faults.stall(0.2)
            t0 = time.perf_counter()
            accepted["writer"].write(b"a")
            at, _data = await link.inner.next_chunk()
            assert at - t0 >= 0.19
            t0 = time.perf_counter()
            accepted["writer"].write(b"b")
            at, _data = await link.inner.next_chunk()
            assert at - t0 < 0.1
            await teardown(server, link, accepted)

        run(body())

    def test_reset_kills_both_directions(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            faults.set_latency(0.05)
            accepted["writer"].write(b"in flight")
            await asyncio.sleep(0.01)
            assert faults.reset() is True
            # the protocol above learns of the loss; delayed bytes are gone
            await asyncio.wait_for(link.inner.lost, 5.0)
            assert link.inner.chunks == []
            # the remote end sees the connection die
            assert await accepted["reader"].read(-1) == b""
            # the shim detached itself: nothing left to reset
            assert faults.reset() is False
            assert not faults._wrappers
            await teardown(server, link, accepted)

        run(body())

    def test_corrupt_injects_undecodable_bytes(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            assert faults.corrupt() is True
            garbage = await accepted["reader"].readexactly(23)
            assert garbage == b"\xff" * 23
            with pytest.raises(ProtocolError):
                StreamDecoder().feed(garbage)
            await teardown(server, link, accepted)

        run(body())

    def test_truncate_halves_next_frame_then_aborts(self):
        async def body():
            faults = LinkFaults()
            server, link, accepted = await wrapped_pair(faults)
            assert faults.truncate() is True
            frame = bytes(range(256)) * 2  # any 512-byte "frame" will do
            link.write(frame)
            try:
                received = await accepted["reader"].read(-1)  # until EOF/abort
            except ConnectionResetError:
                received = b"?"  # RST beat the read: cut short either way
            assert 0 < len(received) < len(frame)
            await asyncio.wait_for(link.inner.lost, 5.0)
            assert faults.truncate() is False  # the link went with it
            await teardown(server, link, accepted)

        run(body())


class TestFaultController:
    def test_partition_refuses_cross_dials(self):
        async def body():
            async def on_accept(reader, writer):
                writer.close()

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            controller = FaultController()
            controller.bind_ports({0: port, 1: 60001})
            controller.set_partition([0], [1])
            with pytest.raises(ConnectionRefusedError):
                await controller.opener(1)(Recorder, "127.0.0.1", port)
            # same-group dials still connect, shimmed
            transport, protocol = await controller.opener(0)(
                Recorder, "127.0.0.1", port
            )
            assert isinstance(transport, FaultyLink)
            assert protocol is transport.inner and protocol.transport is transport
            transport.abort()
            controller.heal_partition()
            transport, _protocol = await controller.opener(1)(
                Recorder, "127.0.0.1", port
            )
            transport.abort()
            await asyncio.sleep(0.01)
            server.close()
            await server.wait_closed()

        run(body())

    def test_unknown_ports_pass_through_unwrapped(self):
        async def body():
            async def on_accept(reader, writer):
                writer.close()

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            controller = FaultController()  # knows no ports at all
            transport, protocol = await controller.opener(0)(
                Recorder, "127.0.0.1", port
            )
            assert not isinstance(transport, FaultyLink)
            assert protocol.transport is transport
            transport.abort()
            await protocol.lost
            server.close()
            await server.wait_closed()

        run(body())

    def test_link_state_is_shared_per_edge(self):
        controller = FaultController()
        assert controller.link(1, 2) is controller.link(2, 1)
        assert controller.link(1, 2) is not controller.link(1, 3)

    def test_node_level_events_are_rejected(self):
        controller = FaultController()
        with pytest.raises(ValueError):
            controller.apply(FaultEvent(time=0.0, kind=CRASH, node=1))
