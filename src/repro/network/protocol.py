"""Gnutella 0.4 wire protocol: message framing and reply routing.

The paper's system lives inside real Gnutella nodes: its trace fields are
Gnutella Query/QueryHit descriptor fields, its GUID-duplication artifact
comes from the descriptor header, and its anonymity argument rests on how
QueryHits are routed back by GUID rather than by source address.  This
module implements that substrate faithfully enough to round-trip:

* :class:`DescriptorHeader` — the 23-byte Gnutella descriptor header
  (16-byte GUID, payload type, TTL, hops, payload length);
* :class:`PingMessage` / :class:`PongMessage` /
  :class:`QueryMessage` / :class:`QueryHitMessage` — payload encodings
  (simplified QueryHit result set: one result per message);
* :func:`encode_message` / :func:`decode_message` — bytes round-trip;
  a decoded header keeps the frame it came from, so a relay forwards by
  patching the TTL and hops bytes (:meth:`DescriptorHeader.aged_frame`)
  instead of re-encoding;
* :class:`ReplyRoutingTable` — the per-node GUID -> upstream-neighbor
  map real servents use to route Pongs/QueryHits backwards, with the
  bounded capacity real implementations used (old entries evicted FIFO).

The simulators in :mod:`repro.network` exchange descriptor objects rather
than bytes (encoding adds nothing to the algorithms under study), but the
codec is exercised end-to-end in the test suite and by
``examples/trace_pipeline.py``-style tooling that wants wire-faithful
traces.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_TTL",
    "HEADER_SIZE",
    "PAYLOAD_PING",
    "PAYLOAD_PONG",
    "PAYLOAD_QUERY",
    "PAYLOAD_QUERY_HIT",
    "DescriptorHeader",
    "PingMessage",
    "PongMessage",
    "ProtocolError",
    "QueryMessage",
    "QueryHitMessage",
    "ReplyRoutingTable",
    "decode_frame",
    "decode_message",
    "encode_message",
    "read_header",
]


class ProtocolError(ValueError):
    """Malformed bytes received from a peer.

    Decode paths raise this (never bare ``struct.error`` or
    ``UnicodeDecodeError``) so network code can distinguish "the remote
    peer sent garbage — drop it" from local programming errors, while
    existing callers that catch ``ValueError`` keep working.
    """

PAYLOAD_PING = 0x00
PAYLOAD_PONG = 0x01
PAYLOAD_QUERY = 0x80
PAYLOAD_QUERY_HIT = 0x81

_HEADER = struct.Struct("<16sBBBI")  # guid, type, ttl, hops, payload length
#: bytes in a descriptor header: 23.
HEADER_SIZE = _HEADER.size
#: Gnutella's default TTL on the descriptors a servent originates.
DEFAULT_TTL = 7


@dataclass(frozen=True)
class DescriptorHeader:
    """The 23-byte header prefixed to every Gnutella descriptor."""

    guid: int  # 128-bit
    payload_type: int
    ttl: int
    hops: int
    payload_length: int
    #: the whole descriptor as received (None on a header built locally).
    frame: bytes | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.guid < (1 << 128):
            raise ValueError("guid must fit in 128 bits")
        if self.payload_type not in (
            PAYLOAD_PING,
            PAYLOAD_PONG,
            PAYLOAD_QUERY,
            PAYLOAD_QUERY_HIT,
        ):
            raise ValueError(f"unknown payload type {self.payload_type:#x}")
        if not 0 <= self.ttl <= 255 or not 0 <= self.hops <= 255:
            raise ValueError("ttl and hops must be bytes")
        if self.payload_length < 0:
            raise ValueError("payload_length must be non-negative")

    def encode(self) -> bytes:
        return _HEADER.pack(
            self.guid.to_bytes(16, "little"),
            self.payload_type,
            self.ttl,
            self.hops,
            self.payload_length,
        )

    @classmethod
    def decode(cls, data: bytes) -> "DescriptorHeader":
        return cls.from_wire(*read_header(data))

    @classmethod
    def from_wire(
        cls, guid_bytes, payload_cls, ttl, hops, length, frame=None
    ) -> "DescriptorHeader":
        """The header for fields :func:`read_header` unpacked."""
        return cls(
            guid=int.from_bytes(guid_bytes, "little"),
            payload_type=payload_cls.payload_type,
            ttl=ttl,
            hops=hops,
            payload_length=length,
            frame=frame,
        )

    def aged(self) -> "DescriptorHeader":
        """The header after one forwarding hop (TTL-1, hops+1)."""
        if self.ttl < 1:
            raise ValueError("cannot forward a descriptor with TTL 0")
        return DescriptorHeader(
            guid=self.guid,
            payload_type=self.payload_type,
            ttl=self.ttl - 1,
            hops=self.hops + 1,
            payload_length=self.payload_length,
        )

    def aged_frame(self) -> bytes:
        """The received frame after one forwarding hop: the bytes as
        they arrived with TTL-1 and hops+1 patched in — what
        ``encode_message(guid, ttl - 1, hops + 1, payload)`` would
        rebuild, without decoding-then-encoding the payload.

        A peer that sends hops=255 on a descriptor still to be relayed
        has overflowed the wire field: that is its protocol error.
        """
        if self.frame is None:
            raise ValueError("header was not decoded from wire bytes")
        if self.ttl < 1:
            raise ValueError("cannot forward a descriptor with TTL 0")
        if self.hops >= 255:
            raise ProtocolError("hop count overflows its byte")
        frame = self.frame
        return frame[:17] + bytes((self.ttl - 1, self.hops + 1)) + frame[19:]


@dataclass(frozen=True)
class PingMessage:
    """Ping: no payload — pure neighbor discovery."""

    payload_type = PAYLOAD_PING

    def encode_payload(self) -> bytes:
        return b""

    @classmethod
    def decode_payload(cls, data: bytes) -> "PingMessage":
        if data:
            raise ProtocolError("ping carries no payload")
        return cls()


_PONG = struct.Struct("<H4sII")


@dataclass(frozen=True)
class PongMessage:
    """Pong: port, IPv4, shared-file count and total kilobytes."""

    payload_type = PAYLOAD_PONG

    port: int
    ip: str
    n_files: int
    n_kilobytes: int

    def encode_payload(self) -> bytes:
        return _PONG.pack(
            self.port, _pack_ip(self.ip), self.n_files, self.n_kilobytes
        )

    @classmethod
    def decode_payload(cls, data: bytes) -> "PongMessage":
        if len(data) != _PONG.size:
            raise ProtocolError("bad pong payload length")
        port, ip_bytes, n_files, n_kb = _PONG.unpack(data)
        return cls(port=port, ip=_unpack_ip(ip_bytes), n_files=n_files, n_kilobytes=n_kb)


@dataclass(frozen=True)
class QueryMessage:
    """Query: minimum speed + NUL-terminated search criteria string."""

    payload_type = PAYLOAD_QUERY

    min_speed: int
    search: str

    def encode_payload(self) -> bytes:
        text = self.search.encode("utf-8")
        if b"\x00" in text:
            raise ValueError("search string may not contain NUL")
        return struct.pack("<H", self.min_speed) + text + b"\x00"

    @classmethod
    def decode_payload(cls, data: bytes) -> "QueryMessage":
        if len(data) < 3 or data[-1] != 0:
            raise ProtocolError("bad query payload")
        text = data[2:-1]
        if b"\x00" in text:
            raise ProtocolError("NUL inside search string")
        (min_speed,) = struct.unpack_from("<H", data)
        try:
            search = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("search string is not valid UTF-8") from exc
        return cls(min_speed=min_speed, search=search)


_QUERY_HIT_FIXED = struct.Struct("<BH4sI")
_RESULT_FIXED = struct.Struct("<II")


@dataclass(frozen=True)
class QueryHitMessage:
    """QueryHit (single-result simplification) + responding servent id."""

    payload_type = PAYLOAD_QUERY_HIT

    port: int
    ip: str
    speed: int
    file_index: int
    file_size: int
    file_name: str
    servent_guid: int

    def encode_payload(self) -> bytes:
        name = self.file_name.encode("utf-8")
        if b"\x00" in name:
            raise ValueError("file name may not contain NUL")
        return (
            _QUERY_HIT_FIXED.pack(1, self.port, _pack_ip(self.ip), self.speed)
            + _RESULT_FIXED.pack(self.file_index, self.file_size)
            + name
            + b"\x00\x00"  # double-NUL terminated result record
            + self.servent_guid.to_bytes(16, "little")
        )

    @classmethod
    def decode_payload(cls, data: bytes) -> "QueryHitMessage":
        min_len = _QUERY_HIT_FIXED.size + _RESULT_FIXED.size + 2 + 16
        if len(data) < min_len:
            raise ProtocolError("truncated query hit")
        n_hits, port, ip_bytes, speed = _QUERY_HIT_FIXED.unpack_from(data)
        if n_hits != 1:
            raise ProtocolError("this codec encodes exactly one result per hit")
        offset = _QUERY_HIT_FIXED.size
        file_index, file_size = _RESULT_FIXED.unpack_from(data, offset)
        offset += _RESULT_FIXED.size
        try:
            end = data.index(b"\x00\x00", offset, len(data) - 16)
            name = data[offset:end].decode("utf-8")
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError("malformed query-hit result record") from exc
        if "\x00" in name:
            raise ProtocolError("NUL inside file name")
        if end + 2 + 16 != len(data):
            raise ProtocolError("trailing bytes after query-hit result record")
        guid = int.from_bytes(data[-16:], "little")
        return cls(
            port=port,
            ip=_unpack_ip(ip_bytes),
            speed=speed,
            file_index=file_index,
            file_size=file_size,
            file_name=name,
            servent_guid=guid,
        )


_PAYLOAD_CLASSES = {
    PAYLOAD_PING: PingMessage,
    PAYLOAD_PONG: PongMessage,
    PAYLOAD_QUERY: QueryMessage,
    PAYLOAD_QUERY_HIT: QueryHitMessage,
}


def encode_message(guid: int, ttl: int, hops: int, payload) -> bytes:
    """Frame a payload object into header + payload bytes."""
    body = payload.encode_payload()
    header = DescriptorHeader(
        guid=guid,
        payload_type=payload.payload_type,
        ttl=ttl,
        hops=hops,
        payload_length=len(body),
    )
    return header.encode() + body


def read_header(data: bytes, offset: int = 0) -> tuple[bytes, type, int, int, int]:
    """Unpack the descriptor header at ``offset``.

    Returns ``(guid bytes, payload class, ttl, hops, payload length)``;
    raises :class:`ProtocolError` on a truncated header or an unknown
    payload type.  TTL and hops are bytes and the length is unsigned by
    construction, so the type byte is the only field wire input can get
    wrong.
    """
    if len(data) - offset < _HEADER.size:
        raise ProtocolError("truncated descriptor header")
    guid_bytes, ptype, ttl, hops, length = _HEADER.unpack_from(data, offset)
    payload_cls = _PAYLOAD_CLASSES.get(ptype)
    if payload_cls is None:
        raise ProtocolError(f"unknown payload type {ptype:#x}")
    return guid_bytes, payload_cls, ttl, hops, length


def decode_frame(
    frame: bytes, guid_bytes: bytes, payload_cls: type, ttl: int, hops: int, length: int
) -> tuple[DescriptorHeader, object]:
    """Decode one whole frame whose header :func:`read_header` unpacked."""
    header = DescriptorHeader.from_wire(guid_bytes, payload_cls, ttl, hops, length, frame)
    try:
        return header, payload_cls.decode_payload(frame[_HEADER.size :])
    except ProtocolError:
        raise
    except (ValueError, struct.error) as exc:
        raise ProtocolError(str(exc)) from exc


def decode_message(data: bytes) -> tuple[DescriptorHeader, object]:
    """Parse header + payload; raises :class:`ProtocolError` on malformed input."""
    fields = read_header(data)
    length = fields[4]
    if len(data) - _HEADER.size != length:
        raise ProtocolError(
            f"payload length mismatch: header says {length}, "
            f"got {len(data) - _HEADER.size}"
        )
    return decode_frame(data, *fields)


def _pack_ip(ip: str) -> bytes:
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {ip!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"not an IPv4 address: {ip!r}") from None
    if any(not 0 <= o <= 255 for o in octets):
        raise ValueError(f"not an IPv4 address: {ip!r}")
    return bytes(octets)


def _unpack_ip(data: bytes) -> str:
    return ".".join(str(b) for b in data)


class ReplyRoutingTable:
    """GUID -> upstream neighbor map for backward reply routing.

    When a servent forwards a Query it remembers which connection it came
    from; a QueryHit bearing the same GUID is sent back through exactly
    that connection.  This is why the paper's method preserves requester
    anonymity (no hop ever learns the origin address) and why its
    monitor node could pair queries with replies by GUID.  Capacity is
    bounded (real servents kept minutes of state): entries are evicted
    in insertion order, except that routing a reply refreshes its GUID's
    entry — a query with replies still in flight is live state and must
    not be evicted ahead of queries nobody answered.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._routes: OrderedDict[int, int] = OrderedDict()

    def record(self, guid: int, upstream: int) -> bool:
        """Remember a forwarded query; False if the GUID was already seen.

        A duplicate GUID means the query reached this node along a second
        path (or a buggy client reused a GUID — the paper's §IV artifact):
        real servents drop the duplicate and keep the original route.
        """
        if guid in self._routes:
            return False
        self._routes[guid] = upstream
        while len(self._routes) > self.capacity:
            self._routes.popitem(last=False)
        return True

    def route_for(self, guid: int) -> int | None:
        """The upstream connection to forward a reply through.

        Looking a route up refreshes its eviction slot: more replies for
        the same GUID are likely en route, so the entry must outlive
        routes that never saw a reply.
        """
        upstream = self._routes.get(guid)
        if upstream is not None:
            self._routes.move_to_end(guid)
        return upstream

    def __len__(self) -> int:
        return len(self._routes)
