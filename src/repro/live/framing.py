"""Incremental Gnutella frame reassembly for TCP streams.

TCP delivers byte runs with arbitrary boundaries: a read may return half
a descriptor header, three whole descriptors and the first byte of a
fourth.  :class:`StreamDecoder` buffers whatever arrives and yields
complete decoded descriptors as soon as their bytes are in, using the
exact codec from :mod:`repro.network.protocol` — so the live daemon and
the in-process simulators cannot disagree about the wire format.

Malformed input raises :class:`~repro.network.protocol.ProtocolError`
(never ``struct.error``): the connection layer responds by dropping the
peer.  A header announcing a payload larger than ``max_payload_length``
is rejected *before* waiting for the payload, so a hostile or broken
peer cannot make the node buffer unbounded memory.
"""

from __future__ import annotations

from repro.network.protocol import (
    HEADER_SIZE,
    DescriptorHeader,
    ProtocolError,
    decode_frame,
    read_header,
)

__all__ = ["DEFAULT_MAX_PAYLOAD", "StreamDecoder"]

#: Generous for this codec (the largest legal payload is a QueryHit with
#: a file name; real Gnutella clients capped descriptors near 64 KiB).
DEFAULT_MAX_PAYLOAD = 64 * 1024


class StreamDecoder:
    """Reassemble descriptors from arbitrary TCP chunk boundaries."""

    def __init__(self, *, max_payload_length: int = DEFAULT_MAX_PAYLOAD) -> None:
        if max_payload_length < 0:
            raise ValueError("max_payload_length must be >= 0")
        self.max_payload_length = max_payload_length
        #: the tail of the last chunk: less than one descriptor, and never
        #: more than a header plus ``max_payload_length`` bytes.
        self._buffer = bytearray()
        #: bytes the buffered partial descriptor needs before it is whole.
        self._need = HEADER_SIZE
        self.frames_decoded = 0
        self.bytes_consumed = 0

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet part of a complete descriptor."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[DescriptorHeader, object]]:
        """Consume one chunk; return every descriptor it completed.

        One pass over the chunk: each header is unpacked once, its type
        and payload bound are checked before anything is buffered, and a
        chunk that starts on a descriptor boundary is decoded in place.
        Raises :class:`ProtocolError` on malformed input, after which the
        decoder must be discarded (the stream position is ambiguous).
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            if len(buffer) < self._need:
                return []
            data = bytes(buffer)
            buffer.clear()
        out: list[tuple[DescriptorHeader, object]] = []
        pos, size = 0, len(data)
        need = HEADER_SIZE
        while size - pos >= HEADER_SIZE:
            fields = read_header(data, pos)
            length = fields[4]
            if length > self.max_payload_length:
                raise ProtocolError(
                    f"payload length {length} exceeds "
                    f"limit {self.max_payload_length}"
                )
            end = pos + HEADER_SIZE + length
            if end > size:
                need = end - pos
                break
            out.append(decode_frame(data[pos:end], *fields))
            pos = end
        if pos < size:
            buffer += data[pos:]
        self._need = need
        self.frames_decoded += len(out)
        self.bytes_consumed += pos
        return out
