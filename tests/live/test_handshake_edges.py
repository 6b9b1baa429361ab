"""Handshake robustness against malformed, hostile or fragmented peers."""

import asyncio
import gc

import pytest

from repro.live.connection import (
    ConnectionConfig,
    HandshakeError,
    PeerConnection,
    dial_peer,
)
from repro.live.stats import NodeStats
from tests.live.streampeer import captured_warnings


def run(coro, timeout=20.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def offer_raw(chunks, *, pause=0.0):
    """Feed raw bytes to an accepting link; returns the outcome dict with
    either ``peer`` (the learned node id) or ``error`` (what the acceptor
    logged when it counted the failed handshake)."""
    outcome = {}
    stats = NodeStats()
    links = []

    def accept():
        links.append(
            PeerConnection(
                5,
                dialer=False,
                config=ConnectionConfig(handshake_timeout=5.0),
                stats=stats,
                on_message=lambda *a: None,
                on_ready=lambda link: outcome.update(peer=link.peer_id),
            )
        )
        return links[-1]

    server = await asyncio.get_running_loop().create_server(accept, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    with captured_warnings() as records:
        try:
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if pause:
                    await asyncio.sleep(pause)
            writer.write_eof()
            outcome["reply"] = await asyncio.wait_for(reader.read(-1), 5.0)
        finally:
            writer.close()
            await asyncio.gather(*(link.aclose() for link in links))
            server.close()
            await server.wait_closed()
    if stats.protocol_errors:
        assert stats.protocol_errors == 1 and "peer" not in outcome
        (record,) = records
        assert record.getMessage() == "inbound handshake failed"
        outcome["error"] = record.error
    return outcome


class TestAcceptHandshakeEdges:
    def test_oversized_handshake_rejected(self):
        blob = b"GNUTELLA CONNECT/0.4\nX-Pad: " + b"x" * 600 + b"\n\n"
        outcome = run(offer_raw([blob]))
        assert "oversized" in outcome["error"]
        assert outcome["reply"] == b""

    def test_missing_node_header_rejected(self):
        outcome = run(offer_raw([b"GNUTELLA CONNECT/0.4\n\n"]))
        assert "Node header" in outcome["error"]

    def test_negative_node_id_rejected(self):
        outcome = run(offer_raw([b"GNUTELLA CONNECT/0.4\nNode: -3\n\n"]))
        assert "Node header" in outcome["error"]

    def test_non_integer_node_id_rejected(self):
        outcome = run(offer_raw([b"GNUTELLA CONNECT/0.4\nNode: seven\n\n"]))
        assert "bad Node header" in outcome["error"]

    def test_garbage_first_line_rejected(self):
        outcome = run(offer_raw([b"HELLO WORLD\nNode: 3\n\n"]))
        assert "CONNECT" in outcome["error"]

    def test_closed_mid_handshake_rejected(self):
        outcome = run(offer_raw([b"GNUTELLA CONNECT/0.4\nNode"]))
        assert "closed during handshake" in outcome["error"]

    def test_handshake_split_across_segments_accepted(self):
        chunks = [b"GNUTELLA CON", b"NECT/0.4\nNo", b"de: 12\n", b"\n"]
        outcome = run(offer_raw(chunks, pause=0.02))
        assert outcome.get("peer") == 12
        assert outcome["reply"] == b"GNUTELLA OK\nNode: 5\n\n"

    def test_frames_in_the_greeting_read_are_not_lost(self):
        """Descriptor bytes that arrive in the same read as the end of
        the greeting reach the owner registered in ``on_ready``."""
        from repro.live.node import LiveServent
        from repro.network.protocol import PingMessage, encode_message

        async def body():
            node = LiveServent(5, config=ConnectionConfig(keepalive_interval=0.0))
            await node.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
            ping = encode_message(77, 1, 0, PingMessage())
            writer.write(b"GNUTELLA CONNECT/0.4\nNode: 12\n\n" + ping)
            await reader.readuntil(b"\n\n")
            pong = await asyncio.wait_for(reader.readexactly(23 + 14), 5.0)
            assert pong[16] == 0x01  # the Ping was handled, not dropped
            assert node.stats.frames_in == 1
            writer.close()
            await node.close()

        run(body())


class TestDialerCleanup:
    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_dial_peer_closes_transport_on_bad_handshake(self):
        async def body():
            async def on_accept(reader, writer):
                await reader.readuntil(b"\n\n")
                writer.write(b"NOT GNUTELLA\nNode: 1\n\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            config = ConnectionConfig(
                connect_timeout=2.0, handshake_timeout=2.0
            )
            for _ in range(5):
                with pytest.raises(HandshakeError):
                    await dial_peer(
                        "127.0.0.1", port, 0, config, on_message=lambda *a: None
                    )
            server.close()
            await server.wait_closed()

        run(body())
        gc.collect()  # an unclosed dialer transport would warn here
