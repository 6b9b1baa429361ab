"""A raw asyncio-streams peer for tests: the handshake spoken by hand.

The servent's own link is one ``asyncio.Protocol``; tests that need an
*independent* counterpart on the other end of the socket — a sink that
never answers, a peer that sends garbage — speak the greeting over plain
stream pairs with these helpers, so a handshake bug cannot hide behind
both ends sharing one implementation.
"""

import asyncio
import contextlib
import logging

from repro.live import connection

CONNECT_LINE = b"GNUTELLA CONNECT/0.4"
OK_LINE = b"GNUTELLA OK"


async def _read_greeting(reader: asyncio.StreamReader) -> tuple[bytes, int]:
    blob = await reader.readuntil(b"\n\n")
    lines = blob[:-2].split(b"\n")
    for line in lines[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"node":
            return lines[0], int(value.strip())
    raise ValueError(f"greeting without a Node header: {blob!r}")


async def offer_handshake(reader, writer, node_id: int) -> int:
    """Dialer side: send CONNECT, await OK; returns the peer's node id."""
    writer.write(CONNECT_LINE + b"\nNode: %d\n\n" % node_id)
    await writer.drain()
    first, peer_id = await _read_greeting(reader)
    assert first == OK_LINE, first
    return peer_id


async def accept_handshake(reader, writer, node_id: int) -> int:
    """Acceptor side: await CONNECT, send OK; returns the peer's node id."""
    first, peer_id = await _read_greeting(reader)
    assert first == CONNECT_LINE, first
    writer.write(OK_LINE + b"\nNode: %d\n\n" % node_id)
    await writer.drain()
    return peer_id


async def aclose_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer and await its transport's teardown."""
    try:
        writer.close()
        await writer.wait_closed()
    except Exception:
        pass


async def dial_raw(port: int, node_id: int, host: str = "127.0.0.1"):
    """Connect + handshake as a raw peer; returns (reader, writer, peer id)."""
    reader, writer = await asyncio.open_connection(host, port)
    peer_id = await offer_handshake(reader, writer, node_id)
    return reader, writer, peer_id


@contextlib.contextmanager
def captured_warnings():
    """The connection layer's log records, with its rate limiter reset so
    the first peer-triggered warning in the block is not suppressed."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.live.connection")
    connection._log_limiter._last.clear()
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


@contextlib.asynccontextmanager
async def sink_server(node_id: int = 9, *, deaf: bool = False):
    """A handshaking raw server that accumulates every byte it is sent;
    yields ``(port, sink)``.  ``deaf``: it reads nothing past the
    handshake until ``sink["release"]`` is set (set on exit at the
    latest).  Exit waits for the accepted connections to reach EOF, so
    close the dialing side first."""
    sink = {"data": b"", "eof": asyncio.Event(), "release": asyncio.Event()}
    handlers = []

    async def on_accept(reader, writer):
        handlers.append(asyncio.current_task())
        await accept_handshake(reader, writer, node_id)
        if deaf:
            await sink["release"].wait()
        while chunk := await reader.read(65536):
            sink["data"] += chunk
        sink["eof"].set()
        await aclose_writer(writer)

    server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1], sink
    finally:
        sink["release"].set()
        await asyncio.wait_for(asyncio.gather(*handlers, return_exceptions=True), 5.0)
        server.close()
        await server.wait_closed()
