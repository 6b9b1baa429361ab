"""A fault-injecting shim between a socket and the protocol on it.

The live stack's protocol code never learns about faults: a
:class:`FaultController` hands each node a *transport opener* (the
``open_transport`` hook on :func:`repro.live.connection.dial_peer` /
:class:`~repro.live.node.LiveServent`) that opens the real TCP
connection with a :class:`FaultyLink` in the middle — the protocol the
real transport talks to, and the transport the link's own protocol
talks to.  Faults therefore act exactly at the socket boundary:

* **latency** delivers every chunk, in either direction, that much
  later and in order (both directions of a link cross the dialer's
  shim, so one shim delays the link);
* **stall** is a one-shot slow-reader pause (``pause_reading``) — the
  remote peer keeps writing into a reader that has stopped, which is
  how real backpressure (``drain_stalls``, send-queue drops) arises;
* **corrupt** injects garbage bytes mid-stream, so the remote
  :class:`~repro.live.framing.StreamDecoder` raises ``ProtocolError``
  and the peer is dropped;
* **truncate** halves the next write and then aborts the link — a peer
  dying mid-write;
* **reset** aborts the underlying transport (RST-style): what was
  delayed is lost and the protocol above sees the connection lost;
* **partition** makes the controller's openers refuse cross-group dials
  (``ConnectionRefusedError``) and resets existing cross links.

Only the *dialing* side of each link is shimmed: chunks delayed there
slow both directions, writes corrupted there break the dialer→acceptor
direction, and aborts kill both.  That keeps the hook surface to one
injection point per link while still reaching every fault the taxonomy
names.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.faults.plan import (
    CORRUPT,
    HEAL,
    LATENCY,
    PARTITION,
    RESET,
    STALL,
    TRUNCATE,
    FaultEvent,
)
from repro.live.connection import open_tcp
from repro.network.protocol import HEADER_SIZE

__all__ = ["FaultController", "FaultyLink", "LinkFaults"]

#: a junk descriptor header: 16 bytes of fake GUID + invalid type +
#: absurd length — guaranteed to trip the remote decoder's payload
#: bound even when it lands mid-frame and misaligns the stream.
_GARBAGE = b"\xff" * HEADER_SIZE


class LinkFaults:
    """Mutable fault state for one overlay link (u, v).

    The controller mutates it; every active :class:`FaultyLink` on the
    link consults the latency per chunk, and the one-shot faults (stall,
    corrupt, truncate) land on the shims attached when they are applied.
    """

    def __init__(self) -> None:
        self.latency = 0.0
        self._wrappers: set["FaultyLink"] = set()

    # -- wrapper registry --------------------------------------------------
    def attach(self, wrapper: "FaultyLink") -> None:
        self._wrappers.add(wrapper)

    def detach(self, wrapper: "FaultyLink") -> None:
        self._wrappers.discard(wrapper)

    # -- fault setters (controller side) -----------------------------------
    def set_latency(self, seconds: float) -> None:
        self.latency = max(0.0, seconds)

    def stall(self, seconds: float) -> None:
        for wrapper in list(self._wrappers):
            wrapper.stall(seconds)

    def corrupt(self) -> bool:
        """Inject garbage on an active wrapper; False if the link is down."""
        for wrapper in list(self._wrappers):
            if wrapper.inject_garbage():
                return True
        return False

    def truncate(self) -> bool:
        wrapper = next(iter(self._wrappers), None)
        if wrapper is None:
            return False
        wrapper.truncate_next = True
        return True

    def reset(self) -> bool:
        """Abort every live connection on this link; False if none."""
        hit = bool(self._wrappers)
        for wrapper in list(self._wrappers):
            wrapper.abort()
        return hit


class FaultyLink(asyncio.Protocol):
    """One shimmed connection: protocol below, transport facade above.

    Towards the real transport it is the protocol; towards ``inner`` (the
    link's own protocol) it is the transport — ``write`` / ``close`` /
    ``abort`` are all a protocol in this repo calls.  It is attached to
    its :class:`LinkFaults` from ``connection_made`` until the connection
    is lost or aborted.
    """

    def __init__(self, inner: asyncio.Protocol, faults: LinkFaults) -> None:
        self.inner = inner
        self.faults = faults
        self.truncate_next = False
        self._transport: asyncio.Transport | None = None
        self._loop = asyncio.get_running_loop()
        #: delayed calls, due times non-decreasing: (due, callback, args).
        self._delayed: deque = deque()
        self._timer: asyncio.TimerHandle | None = None
        self._stall_timer: asyncio.TimerHandle | None = None

    # -- ordered, delayed delivery -------------------------------------------
    def _deliver(self, callback, *args) -> None:
        """Run ``callback(*args)`` after the link's latency, never ahead
        of a chunk that was delayed before it."""
        latency = self.faults.latency
        if latency <= 0 and not self._delayed:
            callback(*args)
            return
        due = self._loop.time() + latency
        if self._delayed:
            due = max(due, self._delayed[-1][0])
        self._delayed.append((due, callback, args))
        if self._timer is None:
            self._timer = self._loop.call_at(due, self._run_delayed)

    def _run_delayed(self) -> None:
        self._timer = None
        now = self._loop.time()
        while self._delayed and self._delayed[0][0] <= now:
            _due, callback, args = self._delayed.popleft()
            callback(*args)
        if self._delayed:
            self._timer = self._loop.call_at(self._delayed[0][0], self._run_delayed)

    def _detach(self) -> None:
        """Off the fault registry; whatever was still delayed is lost."""
        self.faults.detach(self)
        self._delayed.clear()
        for timer in (self._timer, self._stall_timer):
            if timer is not None:
                timer.cancel()
        self._timer = self._stall_timer = None

    # -- the protocol the real transport sees --------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self.faults.attach(self)
        self.inner.connection_made(self)

    def data_received(self, data: bytes) -> None:
        self._deliver(self.inner.data_received, data)

    def eof_received(self) -> bool:
        self.close()
        return True  # the close follows the chunks delayed ahead of it

    def connection_lost(self, exc: Exception | None) -> None:
        self._detach()
        self.inner.connection_lost(exc)

    def pause_writing(self) -> None:
        self.inner.pause_writing()

    def resume_writing(self) -> None:
        self.inner.resume_writing()

    # -- the transport the inner protocol sees -------------------------------
    def write(self, data: bytes) -> None:
        if self.truncate_next:
            self.truncate_next = False
            self._transport.write(data[: max(1, len(data) // 2)])
            self.abort()  # died mid-write: remote sees a partial frame
            return
        self._deliver(self._transport.write, data)

    def close(self) -> None:
        self._deliver(self._transport.close)  # after the writes delayed ahead of it

    def abort(self) -> None:
        """RST-style kill: both directions die, delayed bytes are lost."""
        self._detach()
        self._transport.abort()

    # -- one-shot faults -----------------------------------------------------
    def stall(self, seconds: float) -> None:
        """Stop reading for ``seconds`` (the longest stall asked for wins)."""
        until = self._loop.time() + seconds
        if self._stall_timer is not None:
            if self._stall_timer.when() >= until:
                return
            self._stall_timer.cancel()
        self._transport.pause_reading()
        self._stall_timer = self._loop.call_at(until, self._end_stall)

    def _end_stall(self) -> None:
        self._stall_timer = None
        self._transport.resume_reading()

    def inject_garbage(self) -> bool:
        """Write a malformed descriptor into the stream (mid-frame byte
        corruption as the remote decoder experiences it)."""
        if self._transport.is_closing():
            return False
        self._transport.write(_GARBAGE)
        return True


class FaultController:
    """Per-link fault state + partition gate for one live cluster.

    The cluster binds its node→port map after listeners start
    (:meth:`bind_ports`); each node dials through the opener from
    :meth:`opener`, which looks the target port up, enforces the active
    partition, and shims the connection with the link's
    :class:`LinkFaults`.  Ports the controller does not know (external
    peers) pass through unshimmed.
    """

    def __init__(self) -> None:
        self._ports: dict[int, int] = {}
        self._links: dict[frozenset, LinkFaults] = {}
        self.partition: tuple[frozenset, frozenset] | None = None

    # -- wiring ------------------------------------------------------------
    def bind_ports(self, ports: dict[int, int]) -> None:
        """Register the cluster's node id → listen port map."""
        self._ports.update(ports)

    def node_at(self, port: int) -> int | None:
        for node, node_port in self._ports.items():
            if node_port == port:
                return node
        return None

    def link(self, u: int, v: int) -> LinkFaults:
        key = frozenset((u, v))
        faults = self._links.get(key)
        if faults is None:
            faults = self._links[key] = LinkFaults()
        return faults

    def opener(self, node_id: int):
        """A ``dial_peer``-compatible transport opener for one node."""

        async def open_transport(protocol_factory, host: str, port: int):
            remote = self.node_at(port)
            if remote is None:
                return await open_tcp(protocol_factory, host, port)
            if self.partitioned(node_id, remote):
                raise ConnectionRefusedError(
                    f"fault injection: {node_id} -/- {remote} (partition)"
                )
            faults = self.link(node_id, remote)
            _transport, shim = await open_tcp(
                lambda: FaultyLink(protocol_factory(), faults), host, port
            )
            return shim, shim.inner

        return open_transport

    # -- partitions --------------------------------------------------------
    def partitioned(self, u: int, v: int) -> bool:
        if self.partition is None:
            return False
        a, b = self.partition
        return (u in a and v in b) or (u in b and v in a)

    def set_partition(self, group_a, group_b) -> int:
        """Activate a partition; resets existing cross links.

        Returns how many live cross links were reset.
        """
        self.partition = (frozenset(group_a), frozenset(group_b))
        hits = 0
        for key, faults in self._links.items():
            u, v = tuple(key)
            if self.partitioned(u, v) and faults.reset():
                hits += 1
        return hits

    def heal_partition(self) -> None:
        self.partition = None

    # -- event dispatch ----------------------------------------------------
    def apply(self, event: FaultEvent) -> bool:
        """Apply one *link-level or partition* event; True if it landed.

        Node-level events (crash/restart) need the cluster and are the
        :class:`~repro.faults.injector.FaultInjector`'s job.
        """
        if event.kind == PARTITION:
            self.set_partition(*event.groups)
            return True
        if event.kind == HEAL:
            self.heal_partition()
            return True
        if event.link is None:
            raise ValueError(f"controller cannot apply {event.kind!r}")
        faults = self.link(*event.link)
        if event.kind == LATENCY:
            faults.set_latency(event.seconds)
            return True
        if event.kind == STALL:
            faults.stall(event.seconds)
            return True
        if event.kind == CORRUPT:
            return faults.corrupt()
        if event.kind == TRUNCATE:
            return faults.truncate()
        if event.kind == RESET:
            return faults.reset()
        raise ValueError(f"controller cannot apply {event.kind!r}")
