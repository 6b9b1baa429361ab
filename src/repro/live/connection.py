"""One live TCP link to a peer servent.

:class:`PeerConnection` is one ``asyncio.Protocol`` — no reader task, no
writer task, no queue between them — with three states:

* **handshake** — Gnutella 0.4's greeting, extended with a ``Node:``
  header so both ends learn the peer's overlay node id (connection ids
  must be stable across reconnects for learned routing rules to stay
  valid).  A malformed or oversized greeting, an EOF or
  ``handshake_timeout`` fails the link:

  .. code-block:: text

      dialer   ->  GNUTELLA CONNECT/0.4\\nNode: <id>\\n\\n
      acceptor ->  GNUTELLA OK\\nNode: <id>\\n\\n

* **framed** — ``data_received`` runs a read's worth of bytes through the
  :class:`~repro.live.framing.StreamDecoder` and hands every completed
  descriptor to the node synchronously (so output frames are accepted
  before the input frame is accounted as handled).  A peer that sends
  malformed bytes is dropped; so is one silent for ``idle_timeout``
  seconds — one re-arming timer checks a last-receive stamp, nothing is
  scheduled per read.  :meth:`PeerConnection.send` appends to a
  *bounded* outbox that one ``call_soon`` flush per loop tick writes to
  the transport.  The bound is the backpressure valve: above the
  transport's high-water mark (``pause_writing``) the outbox is held
  back, and once full it refuses frames (counted) instead of buffering
  without limit — the drop-under-pressure behaviour the paper's servents
  inherited from real Gnutella clients.  A periodic TTL-1 Ping keepalive
  lets both ends detect half-dead NAT/idle paths.
* **closing** — :meth:`PeerConnection.close` aborts the transport;
  ``aclose(flush=True)`` first lets it drain what was accepted, for at
  most ``close_flush_timeout``.  ``connection_lost`` ends the link and
  is the one place ``on_close`` fires.

Dialing is a free function (:func:`dial_peer`) with a connect time-out;
reconnect policy (exponential backoff via :func:`backoff_delays`) is
driven by the owning :class:`~repro.live.node.LiveServent`'s per-peer
supervisor task.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Awaitable, Callable, Iterator

from repro.live.framing import DEFAULT_MAX_PAYLOAD, StreamDecoder
from repro.live.stats import NodeStats
from repro.obs.instruments import NodeInstruments
from repro.obs.logging import RateLimiter, get_logger
from repro.network.protocol import DescriptorHeader, ProtocolError
from repro.utils.validation import check_finite_positive

__all__ = [
    "ConnectionConfig",
    "HandshakeError",
    "PeerConnection",
    "TransportOpener",
    "backoff_delays",
    "dial_peer",
    "open_tcp",
]

#: Anything that connects a protocol the way ``loop.create_connection``
#: does: ``await opener(protocol_factory, host, port)`` returns
#: ``(transport, protocol)``.  Fault-injection harnesses (see
#: :mod:`repro.faults.transport`) substitute an opener that puts a shim
#: between the socket and the protocol, so faults apply at the socket
#: boundary without the protocol code knowing.
TransportOpener = Callable[
    [Callable[[], asyncio.BaseProtocol], str, int],
    Awaitable[tuple[asyncio.BaseTransport, asyncio.BaseProtocol]],
]

_CONNECT_LINE = b"GNUTELLA CONNECT/0.4"
_OK_LINE = b"GNUTELLA OK"
_HANDSHAKE_LIMIT = 512

_log = get_logger("live.connection")
#: Protocol errors and send-queue drops are peer-triggered, so a broken
#: or hostile peer must not be able to flood the log: one line per peer
#: per window, with the suppressed count reported when the key re-opens.
_log_limiter = RateLimiter(5.0)


class HandshakeError(ProtocolError):
    """The peer did not speak the expected handshake."""


@dataclass(frozen=True)
class ConnectionConfig:
    """Timeouts, limits and retry policy for live connections."""

    #: seconds to establish a TCP connection before giving up.
    connect_timeout: float = 5.0
    #: seconds for the handshake exchange on a fresh connection.
    handshake_timeout: float = 5.0
    #: drop a peer silent for this long; 0 disables the idle check.
    idle_timeout: float = 60.0
    #: keepalive Ping cadence; 0 disables keepalives.
    keepalive_interval: float = 10.0
    #: bounded send queue (frames) — the write backpressure valve.
    send_queue_limit: int = 256
    #: exponential backoff for outbound re-dials.
    retry_initial_delay: float = 0.5
    retry_backoff: float = 2.0
    retry_max_delay: float = 15.0
    #: give up re-dialing after this many consecutive failures
    #: (None retries forever — the daemon default).
    max_retries: int | None = None
    #: largest descriptor payload accepted from a peer.
    max_payload_length: int = DEFAULT_MAX_PAYLOAD
    #: a write drain slower than this counts as a stall (metrics only;
    #: a stalling peer is backpressure, not an error).
    drain_stall_threshold: float = 0.1
    #: fraction of each backoff delay randomised away (0 = the old pure
    #: exponential; 1 = full jitter).  Without jitter, every supervisor
    #: that lost its link at the same instant — a healed partition, a
    #: restarted hub — re-dials on the same schedule (thundering herd).
    retry_jitter: float = 0.0
    #: seed for the jitter stream; combined with a per-peer salt so
    #: different supervisors draw different (but replayable) delays.
    #: None draws from OS entropy (non-reproducible).
    retry_jitter_seed: int | None = None
    #: how long a graceful ``aclose(flush=True)`` waits for queued
    #: frames to drain before falling back to a hard close.
    close_flush_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.send_queue_limit < 1:
            raise ValueError("send_queue_limit must be >= 1")
        check_finite_positive("retry_initial_delay", self.retry_initial_delay)
        check_finite_positive("retry_max_delay", self.retry_max_delay)
        if not 1.0 <= self.retry_backoff < math.inf:
            raise ValueError("retry_backoff must be finite and >= 1.0")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be >= 0 or None")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        check_finite_positive("close_flush_timeout", self.close_flush_timeout)


def backoff_delays(config: ConnectionConfig, *, salt: int = 0) -> Iterator[float]:
    """Exponential retry delays: initial * backoff^n, capped at max.

    With ``config.retry_jitter`` > 0, each yielded delay keeps a
    ``1 - jitter`` deterministic floor and randomises the rest over
    ``[0, jitter * base)`` — full jitter at 1.0 — so supervisors that
    lost their links simultaneously spread their re-dials instead of
    thundering back in lock-step.  The stream is seeded from
    ``config.retry_jitter_seed`` combined with ``salt`` (callers pass a
    per-peer value), so runs replay exactly while peers still decorrelate.
    """
    jitter = config.retry_jitter
    rng: random.Random | None = None
    if jitter > 0.0:
        if config.retry_jitter_seed is not None:
            seed = ((config.retry_jitter_seed & 0xFFFFFFFF) << 32) ^ (
                salt & 0xFFFFFFFF
            )
            rng = random.Random(seed)
        else:
            rng = random.Random()
    delay = config.retry_initial_delay
    while True:
        if rng is None:
            yield delay
        else:
            yield delay * (1.0 - jitter) + rng.random() * delay * jitter
        delay = min(delay * config.retry_backoff, config.retry_max_delay)


# ---------------------------------------------------------------------------
# dialing


async def open_tcp(protocol_factory, host: str, port: int):
    """The default :data:`TransportOpener`: a plain TCP connection."""
    return await asyncio.get_running_loop().create_connection(
        protocol_factory, host, port
    )


async def dial_peer(
    host: str,
    port: int,
    node_id: int,
    config: ConnectionConfig,
    *,
    open_transport: TransportOpener | None = None,
    **link_kwargs,
) -> "PeerConnection":
    """Connect + handshake; returns the link, framed and running.

    Raises ``OSError`` on dial failure and :class:`HandshakeError` /
    ``asyncio.TimeoutError`` on a broken handshake (the transport is
    closed first); the caller's supervisor turns any of these into a
    backoff retry.  ``link_kwargs`` go to :class:`PeerConnection`.

    ``open_transport`` substitutes for :func:`open_tcp`: fault-injection
    harnesses pass an opener that shims the transport so faults act at
    the socket boundary (including during the handshake).
    """
    opener = open_transport if open_transport is not None else open_tcp
    link = PeerConnection(node_id, dialer=True, config=config, **link_kwargs)
    try:
        await asyncio.wait_for(
            opener(lambda: link, host, port), config.connect_timeout
        )
        await link.handshaken
    except BaseException:
        await link.aclose()
        raise
    return link


# ---------------------------------------------------------------------------
# the connection proper


def _parse_greeting(blob: bytes) -> tuple[bytes, int]:
    """Split one greeting (terminator stripped) into (first line, node id)."""
    lines = blob.split(b"\n")
    node_id: int | None = None
    for line in lines[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"node":
            try:
                node_id = int(value.strip())
            except ValueError as exc:
                raise HandshakeError(f"bad Node header {value!r}") from exc
    if node_id is None or node_id < 0:
        raise HandshakeError("handshake missing a valid Node header")
    return lines[0], node_id


class PeerConnection(asyncio.Protocol):
    """A framed, backpressured, keepalive-monitored link to one peer.

    Built unconnected; a transport opener (or ``loop.create_server``)
    connects it, and the handshake runs as its first state.  ``on_ready``
    fires synchronously when the handshake completes — before any
    descriptor that arrived in the same read is decoded — so an owner
    that registers the link there sees every frame.  ``on_close`` fires
    once, from ``connection_lost``.
    """

    def __init__(
        self,
        node_id: int,
        *,
        dialer: bool,
        config: ConnectionConfig,
        on_message: Callable[[int, DescriptorHeader, object], None],
        stats: NodeStats | None = None,
        expect_peer: int | None = None,
        on_ready: Callable[["PeerConnection"], None] | None = None,
        on_close: Callable[["PeerConnection"], None] | None = None,
        make_keepalive: Callable[[], bytes | None] | None = None,
        instruments: NodeInstruments | None = None,
    ) -> None:
        self.node_id = node_id
        #: the peer's overlay node id; None until the handshake completes.
        self.peer_id: int | None = None
        self._dialer = dialer
        self._expect_peer = expect_peer
        self._config = config
        self._stats = stats if stats is not None else NodeStats()
        self._instr = instruments
        self._timed = instruments is not None and instruments.enabled
        self._on_message = on_message
        self._on_ready = on_ready
        self._on_close = on_close
        self._make_keepalive = make_keepalive
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._greeting = bytearray()
        self._decoder = StreamDecoder(max_payload_length=config.max_payload_length)
        self._outbox: list[bytes] = []
        self._flush_scheduled = False
        self._paused = False
        self._paused_at = 0.0
        self._last_receive = 0.0
        #: the one deadline this state has: handshake time-out, then the
        #: idle check, then the graceful-close flush time-out.
        self._watchdog: asyncio.TimerHandle | None = None
        self._keepalive_timer: asyncio.TimerHandle | None = None
        self._closing = False
        self._draining = False
        self._lost = asyncio.Event()
        #: resolves when the handshake completes, fails when it cannot
        #: (dialers only: an acceptor's failure is counted and logged).
        self.handshaken: asyncio.Future | None = (
            self._loop.create_future() if dialer else None
        )
        #: frames this link refused (outbox full / closing) — the
        #: per-connection view of overload shedding; the owning node
        #: folds refusals into ``frames_dropped`` / ``queries_shed``.
        self.sends_rejected = 0

    # -- lifecycle --------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closing

    async def wait_closed(self) -> None:
        """Return once the transport is gone (``connection_lost`` ran)."""
        await self._lost.wait()

    def close(self) -> None:
        """Begin *hard* teardown (idempotent); safe from any callback.

        Frames still in the outbox or the transport's buffer are dropped
        — the right response to a peer-initiated drop, where the link is
        already useless.  For a clean local shutdown use :meth:`aclose`
        with ``flush=True``.  ``on_close`` follows from
        ``connection_lost``, one loop tick later.
        """
        if self._closing:
            return
        self._closing = True
        self._outbox.clear()
        for timer in (self._watchdog, self._keepalive_timer):
            if timer is not None:
                timer.cancel()
        if self._transport is not None:
            self._transport.abort()

    async def aclose(self, *, flush: bool = False) -> None:
        """Close and wait for the transport to be gone.

        With ``flush=True`` (clean *local* shutdown) new frames are
        refused, every frame already accepted is handed to the transport
        and the transport closes once it has written them — bounded by
        ``config.close_flush_timeout``, after which the hard close drops
        whatever is left (a peer that stopped reading must not pin our
        shutdown).  Idempotent; rapid reconnect cycles leak neither
        timers nor transports.
        """
        if self._transport is None:  # never connected: nothing to wait for
            self.close()
            return
        if flush and not self._closing and not self._draining:
            self._draining = True  # refuse new frames; drain what's accepted
            self._write_outbox()
            self._transport.close()
            self._arm_watchdog(self._config.close_flush_timeout, self.close)
        elif not self._draining:
            self.close()
        await self._lost.wait()

    def _arm_watchdog(self, delay: float, callback: Callable, *args) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
        self._watchdog = self._loop.call_later(delay, callback, *args)

    # -- asyncio.Protocol: connection ---------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        if self._closing:  # closed before the opener returned
            transport.abort()
            return
        if self._dialer:
            transport.write(_CONNECT_LINE + b"\nNode: %d\n\n" % self.node_id)
        self._arm_watchdog(
            self._config.handshake_timeout,
            self._handshake_failed,
            asyncio.TimeoutError("handshake timed out"),
        )

    def connection_lost(self, exc: Exception | None) -> None:
        if self.peer_id is None and not self._closing:
            self._handshake_failed(
                HandshakeError("connection closed during handshake")
            )
        self.close()
        self._lost.set()
        if self._on_close is not None:
            self._on_close(self)

    def pause_writing(self) -> None:
        self._paused = True
        if self._timed:
            self._paused_at = perf_counter()

    def resume_writing(self) -> None:
        self._paused = False
        if (
            self._timed
            and perf_counter() - self._paused_at
            > self._config.drain_stall_threshold
        ):
            self._instr.drain_stalls.inc()
        if not self._closing:
            self._write_outbox()

    # -- asyncio.Protocol: receiving ----------------------------------------
    def data_received(self, data: bytes) -> None:
        self._last_receive = self._loop.time()
        if self.peer_id is None:
            try:
                data = self._handshake(data)
            except HandshakeError as exc:
                self._handshake_failed(exc)
                return
            if not data:
                return
        self._stats.bytes_in += len(data)
        try:
            if self._timed:
                t0 = perf_counter()
                frames = self._decoder.feed(data)
                self._instr.observe_decode(perf_counter() - t0)
            else:
                frames = self._decoder.feed(data)
            for header, payload in frames:
                self._on_message(self.peer_id, header, payload)
                self._stats.frames_in += 1
        except ProtocolError as exc:
            self._peer_error(
                "dropping peer after protocol error",
                ("protocol_error", self.peer_id),
                exc,
                peer=self.peer_id,
            )

    def _handshake(self, data: bytes) -> bytes:
        """Consume greeting bytes; returns what followed a completed
        greeting (descriptor bytes from the same read), else ``b""``."""
        greeting = self._greeting
        greeting += data
        end = greeting.find(b"\n\n")
        if (end + 2 if end >= 0 else len(greeting)) > _HANDSHAKE_LIMIT:
            raise HandshakeError("oversized handshake")
        if end < 0:
            return b""
        first, peer_id = _parse_greeting(bytes(greeting[:end]))
        if self._dialer:
            if first != _OK_LINE:
                raise HandshakeError(f"expected GNUTELLA OK, got {first!r}")
            if self._expect_peer is not None and peer_id != self._expect_peer:
                raise HandshakeError(
                    f"expected node {self._expect_peer}, found {peer_id}"
                )
        else:
            if first != _CONNECT_LINE:
                raise HandshakeError(
                    f"expected GNUTELLA CONNECT/0.4, got {first!r}"
                )
            self._transport.write(_OK_LINE + b"\nNode: %d\n\n" % self.node_id)
        rest = bytes(greeting[end + 2 :])
        greeting.clear()
        self.peer_id = peer_id
        if self._on_ready is not None:
            self._on_ready(self)
        if self._config.idle_timeout > 0:
            self._arm_watchdog(self._config.idle_timeout, self._check_idle)
        else:
            self._watchdog.cancel()
        if self._config.keepalive_interval > 0 and self._make_keepalive:
            self._keepalive_timer = self._loop.call_later(
                self._config.keepalive_interval, self._keepalive
            )
        if self.handshaken is not None and not self.handshaken.done():
            self.handshaken.set_result(None)
        return rest

    def _handshake_failed(self, exc: Exception) -> None:
        if self.handshaken is not None:
            if not self.handshaken.done():
                self.handshaken.set_exception(exc)
            self.close()
        else:
            self._peer_error(
                "inbound handshake failed", ("handshake", self.node_id), exc
            )

    def _peer_error(self, message: str, key: tuple, exc: Exception, **fields) -> None:
        """Count, log (rate-limited per ``key``) and drop a misbehaving peer."""
        self._stats.protocol_errors += 1
        suppressed = _log_limiter.allow(key)
        if suppressed is not None:
            fields.update(error=str(exc) or type(exc).__name__, suppressed=suppressed)
            _log.warning(message, extra=fields)
        self.close()

    def _check_idle(self) -> None:
        idle = self._loop.time() - self._last_receive
        if idle >= self._config.idle_timeout:
            self.close()  # silent for a whole window: presumed dead
        else:
            self._arm_watchdog(self._config.idle_timeout - idle, self._check_idle)

    # -- sending ----------------------------------------------------------
    def send(self, frame: bytes) -> bool:
        """Accept one frame; False (frame dropped) if closed or backed up.

        The outbox bound is deliberate overload policy, not an internal
        limit: a peer reading slower than we route to it sheds frames
        *here*, at accept time, keeping per-link memory and queueing
        delay bounded while the refusal is visible to the caller (the
        node counts it; Query forwards land in ``queries_shed``).
        """
        outbox = self._outbox
        if (
            self._closing
            or self._draining
            or len(outbox) >= self._config.send_queue_limit
        ):
            self.sends_rejected += 1
            return False
        outbox.append(frame)
        if not self._flush_scheduled and not self._paused:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        return True

    @property
    def pending_frames(self) -> int:
        """Frames accepted but not yet handed to the transport."""
        return len(self._outbox)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._paused and not self._closing:
            self._write_outbox()  # a paused link flushes on resume_writing

    def _write_outbox(self) -> None:
        outbox = self._outbox
        if outbox:
            data = b"".join(outbox)
            outbox.clear()
            self._stats.bytes_out += len(data)
            self._transport.write(data)

    def _keepalive(self) -> None:
        frame = self._make_keepalive()
        if frame is not None and self.send(frame):
            self._stats.pings_sent += 1
            self._stats.frames_out += 1
        self._keepalive_timer = self._loop.call_later(
            self._config.keepalive_interval, self._keepalive
        )
