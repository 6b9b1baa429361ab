"""The per-frame code the one-pass link replaced, kept as the oracle.

* :class:`ReferenceStreamDecoder` is the previous ``StreamDecoder.feed``:
  buffer everything, decode the header when 23 bytes are in (and again
  inside ``decode_message``), cut one frame at a time.
* :class:`ReferenceServent` / :class:`ReferenceStreamingRuleServent`
  forward the previous way: decode, ``header.aged()``, re-encode the
  payload — never touching ``header.frame``.

``tests/live/test_link_differential.py`` holds the new decoder and the
byte-patched forwarding to these, frame for frame.
"""

from __future__ import annotations

from repro.core.counts import forward_picks
from repro.live.node import StreamingRuleServent
from repro.network.protocol import (
    PAYLOAD_QUERY,
    PAYLOAD_QUERY_HIT,
    DescriptorHeader,
    ProtocolError,
    ReplyRoutingTable,
    decode_message,
    encode_message,
)
from repro.network.servent import LOCAL, Servent

_HEADER_SIZE = 23


class ReferenceStreamDecoder:
    """Reassemble descriptors from arbitrary TCP chunk boundaries."""

    def __init__(self, *, max_payload_length: int = 64 * 1024) -> None:
        self.max_payload_length = max_payload_length
        self._buffer = bytearray()
        self._header: DescriptorHeader | None = None
        self.frames_decoded = 0
        self.bytes_consumed = 0
        #: the most bytes ever held between two feeds.
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[DescriptorHeader, object]]:
        self._buffer.extend(data)
        out: list[tuple[DescriptorHeader, object]] = []
        while True:
            if self._header is None:
                if len(self._buffer) < _HEADER_SIZE:
                    break
                header = DescriptorHeader.decode(bytes(self._buffer[:_HEADER_SIZE]))
                if header.payload_length > self.max_payload_length:
                    raise ProtocolError(
                        f"payload length {header.payload_length} exceeds "
                        f"limit {self.max_payload_length}"
                    )
                self._header = header
            frame_size = _HEADER_SIZE + self._header.payload_length
            if len(self._buffer) < frame_size:
                break
            frame = bytes(self._buffer[:frame_size])
            del self._buffer[:frame_size]
            self._header = None
            out.append(decode_message(frame))
            self.frames_decoded += 1
            self.bytes_consumed += frame_size
        self.peak_pending = max(self.peak_pending, len(self._buffer))
        return out


class ReferenceServent(Servent):
    """A servent that forwards by re-encoding what it decoded."""

    def _forward(self, from_conn, header, *, flood_reason=""):
        _header, payload = decode_message(header.frame)
        is_query = header.payload_type == PAYLOAD_QUERY
        if header.ttl <= 1:
            if is_query and self.tracer is not None:
                self.tracer.record(
                    header.guid, self._trace_id, "ttl_expired", ttl=header.ttl
                )
            return []
        aged = header.aged()
        frame = encode_message(aged.guid, aged.ttl, aged.hops, payload)
        targets = [conn for conn in sorted(self.connections) if conn != from_conn]
        if is_query and self.tracer is not None:
            for conn in targets:
                self.tracer.record(
                    header.guid,
                    self._trace_id,
                    "flooded",
                    peer=conn,
                    ttl=aged.ttl,
                    reason=flood_reason,
                )
        return [(conn, frame) for conn in targets]

    def _route_back(self, routes: ReplyRoutingTable, conn_id, header, payload):
        upstream = routes.route_for(header.guid)
        if upstream is None:
            return []
        if upstream == LOCAL:
            if header.payload_type == PAYLOAD_QUERY_HIT:
                self.results.append(payload)
                if self.tracer is not None:
                    self.tracer.record(
                        header.guid, self._trace_id, "delivered", peer=conn_id
                    )
            return []
        if header.ttl <= 0:
            return []
        if header.payload_type == PAYLOAD_QUERY_HIT and self.tracer is not None:
            self.tracer.record(
                header.guid, self._trace_id, "hit_routed", peer=upstream
            )
        return [
            (
                upstream,
                encode_message(
                    header.guid, max(header.ttl - 1, 0), header.hops + 1, payload
                ),
            )
        ]


class ReferenceStreamingRuleServent(StreamingRuleServent, ReferenceServent):
    """The rule-routed servent, forwarding by re-encoding.

    The learning half (``StreamingRuleServent._route_back``) is shared;
    its ``super()`` resolves to :class:`ReferenceServent` here.
    """

    def _forward(self, from_conn, header, *, flood_reason=""):
        if header.payload_type != PAYLOAD_QUERY or header.ttl <= 1:
            return ReferenceServent._forward(self, from_conn, header)
        targets = forward_picks(
            self.counts.consequents(from_conn),
            self.top_k,
            from_conn,
            self.connections,
        )
        if not targets:
            self.stats.queries_flooded += 1
            return ReferenceServent._forward(
                self, from_conn, header, flood_reason="no_covering_rule"
            )
        self.stats.queries_rule_routed += 1
        if self.tracer is not None and self.tracer.wants(header.guid):
            self._trace_rule_routed(header.guid, from_conn, targets, header.ttl - 1)
        _header, payload = decode_message(header.frame)
        aged = header.aged()
        frame = encode_message(aged.guid, aged.ttl, aged.hops, payload)
        return [(conn, frame) for conn in targets]


def use_reference_forwarding(cluster) -> None:
    """Swap every node's servent class for its re-encoding twin (before
    ``cluster.start()``): same state, same rules, the previous forwarding."""
    for node in cluster.nodes:
        servent = node.servent
        servent.__class__ = (
            ReferenceStreamingRuleServent
            if isinstance(servent, StreamingRuleServent)
            else ReferenceServent
        )
