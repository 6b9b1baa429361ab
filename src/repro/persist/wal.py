"""Append-only pair write-ahead log.

One WAL segment is a flat file of (query-source, reply-source)
observations — the §III-B learning events a rule-routed servent folds
into its streaming counts.  Counts are cheap to update but expensive to
re-earn (the paper mines 7 days of trace for them), so every pushed
pair is journaled *before* the next crash can lose it, and recovery
replays the tail on top of the last snapshot.

Layout::

    segment  := magic(8) record*
    magic    := b"RPWL" u16 version u16 reserved
    record   := u32 payload_len  u32 crc32(payload)  payload
    payload  := i64 source  i64 replier   (little-endian)

Every record is length-prefixed and CRC-32-checksummed, so a torn
final write (crash mid-append) is detected, not misparsed: readers
stop at the first record whose frame is short or whose checksum
mismatches, and report the byte offset of the last good record so the
caller can truncate the tail.

Durability is a knob, not a policy baked in:

``always``
    fsync after every appended record (slowest, loses nothing);
``interval``
    flush every append, fsync at most once per :data:`FSYNC_INTERVAL`
    (one second; the default — bounded loss window);
``never``
    leave flushing to the OS (fastest; a crash can lose the tail,
    which recovery then truncates).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from time import monotonic

__all__ = [
    "FSYNC_POLICIES",
    "WAL_MAGIC",
    "WalError",
    "WalReadResult",
    "WalWriter",
    "read_wal",
    "wal_header",
]

WAL_VERSION = 1
WAL_MAGIC = b"RPWL" + struct.pack("<HH", WAL_VERSION, 0)

FSYNC_POLICIES = ("always", "interval", "never")

#: seconds between fsyncs under the ``interval`` policy
FSYNC_INTERVAL = 1.0

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PAIR = struct.Struct("<qq")  # source, replier

#: bytes one appended record occupies on disk.
RECORD_BYTES = _FRAME.size + _PAIR.size


class WalError(Exception):
    """A WAL file that is not a WAL (bad magic / unsupported version)."""


class WalWriter:
    """Appends checksummed pair records to one segment file."""

    def __init__(self, path: str, *, fsync: str = "interval") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; pick from {FSYNC_POLICIES}"
            )
        self.path = path
        self.fsync = fsync
        self.records = 0
        self.bytes_written = 0
        self._last_sync = monotonic()
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._fh = open(path, "ab")
        if fresh:
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
            self.bytes_written += len(WAL_MAGIC)

    def append(self, source: int, replier: int) -> int:
        """Journal one observed pair; returns bytes written."""
        payload = _PAIR.pack(source, replier)
        record = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._fh.write(record)
        self.records += 1
        self.bytes_written += len(record)
        if self.fsync == "always":
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._last_sync = monotonic()
        elif self.fsync == "interval":
            self._fh.flush()
            now = monotonic()
            if now - self._last_sync >= FSYNC_INTERVAL:
                os.fsync(self._fh.fileno())
                self._last_sync = now
        return len(record)

    def close(self, *, sync: bool = True) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        if sync and self.fsync != "never":
            os.fsync(self._fh.fileno())
        self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed


@dataclass(frozen=True)
class WalReadResult:
    """One segment's decoded content plus its integrity verdict."""

    pairs: list[tuple[int, int]]
    #: byte offset just past the last intact record — the truncation
    #: point a recovery should cut a torn segment back to.
    good_offset: int
    #: True when the whole file parsed; False when reading stopped at a
    #: torn or corrupt record (everything before it is still usable).
    clean: bool


def read_wal(path: str) -> WalReadResult:
    """Decode a segment, stopping (not failing) at the first bad record.

    Raises :class:`WalError` only when the file cannot be a WAL at all
    (wrong magic or unsupported version); torn tails and checksum
    mismatches — the crash signatures recovery exists for — yield a
    ``clean=False`` result holding every record up to the damage.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(WAL_MAGIC):
        # shorter than a header: a segment torn during creation.
        return WalReadResult([], 0, clean=False)
    if data[:4] != WAL_MAGIC[:4]:
        raise WalError(f"{path}: not a pair WAL (bad magic)")
    (version, _reserved) = struct.unpack("<HH", data[4:8])
    if version != WAL_VERSION:
        raise WalError(f"{path}: unsupported WAL version {version}")
    pairs: list[tuple[int, int]] = []
    offset = len(WAL_MAGIC)
    while offset < len(data):
        frame_end = offset + _FRAME.size
        if frame_end > len(data):
            return WalReadResult(pairs, offset, clean=False)
        length, crc = _FRAME.unpack_from(data, offset)
        payload_end = frame_end + length
        if length != _PAIR.size or payload_end > len(data):
            return WalReadResult(pairs, offset, clean=False)
        payload = data[frame_end:payload_end]
        if zlib.crc32(payload) != crc:
            return WalReadResult(pairs, offset, clean=False)
        pairs.append(_PAIR.unpack(payload))
        offset = payload_end
    return WalReadResult(pairs, offset, clean=True)


def wal_header(path: str) -> dict:
    """Summarize one segment for ``repro persist inspect``."""
    result = read_wal(path)
    return {
        "path": path,
        "version": WAL_VERSION,
        "records": len(result.pairs),
        "bytes": os.path.getsize(path),
        "good_bytes": result.good_offset,
        "clean": result.clean,
    }
