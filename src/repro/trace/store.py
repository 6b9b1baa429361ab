"""Out-of-core columnar trace store (append-only block files).

The paper's evaluation runs over 10,514,090 queries / ~3.25M query–reply
pairs — far more than the in-memory :class:`~repro.trace.blocks.PairBlock`
pipeline should ever hold at once.  This module persists a trace as one
append-only file of little-endian block segments, so that

* :class:`TraceStoreWriter` streams pairs to disk in chunks — ``tracegen``
  never materializes the full trace (O(chunk) memory while writing), and
* :class:`TraceStoreReader` serves blocks that read a segment (one
  positional read, decoded) only when something asks for it — evaluation
  streams the trace with O(block) resident memory, however large the
  file grows.

File layout (all integers little-endian)::

    header   (32 B)  magic "RPTRACE1" | version u64 | block_size u64
                     | meta fingerprint u64
    block*   header  (40 B): magic "RPTB" | n_pairs u32
                     | blake2b-128 fingerprint (16 B)
                     | index length u64 | histogram length u64
             then its two segments, each as long as its header says:
             index      each pair's row of the key histogram (codec 4)
             histogram  the block's key histogram (codec 3)
    trailer  (24 B): magic "RPTFOOT1" | n_blocks u64 | total_pairs u64

Every store is version 3, and each block describes itself: opening
walks the block headers from byte 32, each header placing the next.  The
two segment encodings keep the codec numbers they had when each block
header named them:

* 3 — the histogram segment: the block's key histogram as narrow raw
  rows: a u32 CRC-32 of the rest of the segment, three width bytes (1, 2
  or 4; for source steps, replier halves and counts), then three
  unsigned planes of d rows each in that order — each row's source half
  minus the previous row's (the first row's as it is), its replier half,
  its count.  Nothing inflates: each plane is read in place;
* 4 — the index segment, both columns as one row index: a u32 CRC-32 of
  the rest, one width byte (1, 2 or 4: the narrowest that numbers the
  histogram's d rows), then each pair's row of the key histogram, n of
  them.  A pair's packed key is its row's key, and the two columns are
  split from the keys when asked for.  The decoder requires exactly n
  rows, each below d, that count what the histogram's counts say, so the
  columns and the histogram agree by construction.

Nothing else is read.  Earlier releases wrote other forms — versions 1
and 2, with header flags, per-block codec words and a footer index — and
a header of any other version is refused with :class:`TraceStoreError`
when the store is opened, before any block is read; ``repro tracegen``
writes the trace again.

Block fingerprints are :func:`repro.trace.blocks.column_digest`
(blake2b-128 of the *uncompressed* source, then replier, column bytes),
whose hex is :meth:`PairBlock.fingerprint`, so store-resident blocks come
back with their fingerprint already known.  The fingerprint does not
cover the histogram segment, so the writer derives it from the two
columns it fingerprints, never from a block's memo.  A block's key
histogram — all GENERATE-RULESET and RULESET-TEST read — is then one
checked decode of the segment, with no column read and no sort; the
decoder refuses a segment that cannot be its block's histogram of packed
keys.  Verification (:meth:`TraceStoreReader.verify_blocks`,
``verify=True`` and the open of a store that is not closed) checks the
columns against the fingerprint, and that is enough for the histogram
too: the columns are the histogram's keys picked by the row index, and
the two decoders require the keys to rise strictly and the rows to count
the counts, so a store that verifies mines its columns' rules.

Durability mirrors the WAL torn-tail semantics of ``repro.persist``: the
trailer is written only on a clean :meth:`TraceStoreWriter.close`, and
the walk that opens a store is closed only where it ends exactly at a
trailer that counts its blocks and pairs.  Any other store (no trailer,
a torn one, a header that is not a block's) is recovered: each walked
block is verified, and the reader serves everything up to the last
complete, intact one.  A mid-write crash therefore loses at most the
block being written, never the store.

A reader owns one file handle and supports ``close()`` / ``with``.
Every segment is read with ``os.pread`` into memory of its own, so
nothing is mapped and the arrays a block has read stay valid after
``close()``.  A block holds its reader and reads a segment on first use;
a segment first asked for after ``close()`` raises
:class:`TraceStoreError`.  A caller that keeps every block takes them
from :meth:`TraceStoreReader.blocks`, which reads their keys at once.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterator

import numpy as np

from repro.trace import blocks
from repro.trace.blocks import (
    ID_LIMIT,
    PairBlock,
    _read_only,
    column_digest,
    pack_keys,
    scan_id_range,
)

__all__ = [
    "TraceStoreError",
    "TraceStoreCorruption",
    "TraceStoreWriter",
    "TraceStoreReader",
]

_HEADER = struct.Struct("<8sQQQ")
_BLOCK_HEADER = struct.Struct("<4sI16sQQ")
_TRAILER = struct.Struct("<8sQQ")

_MAGIC = b"RPTRACE1"
_BLOCK_MAGIC = b"RPTB"
_TRAILER_MAGIC = b"RPTFOOT1"
#: the one version: blocks that describe themselves.
_VERSION = 3
#: what a refusal of another layout tells its reader to do.
_REGENERATE = (
    "this reader reads one layout, and earlier releases wrote others: "
    "regenerate the trace with `repro tracegen`"
)

#: a codec-3 segment's head: a CRC-32 of the rest, then its plane widths.
_ROWS_HEAD = struct.Struct("<I3B")
#: each width a codec-3 or codec-4 plane may have, and its dtype.
_PLANES = {width: np.dtype(f"<u{width}") for width in (1, 2, 4)}
#: a codec-4 segment's head: a CRC-32 of the rest, then its row width.
_INDEX_HEAD = struct.Struct("<IB")
#: the pairs a block may hold: fewer, so its header's u32 and every
#: codec-3 count fit.
_MAX_BLOCK_PAIRS = 1 << 32


class TraceStoreError(Exception):
    """The file is not a trace store (bad magic or arguments), or not one
    in the one layout this reader reads (another version)."""


class TraceStoreCorruption(TraceStoreError):
    """The store exists but its contents fail an integrity check."""


@dataclass(frozen=True)
class _BlockEntry:
    """One block as its header describes it."""

    offset: int  # file offset of the block *header*
    n_pairs: int
    fingerprint: bytes  # blake2b-128 raw digest
    lengths: tuple[int, int]  # stored lengths: index, histogram

    @property
    def payload(self) -> int:
        """The file offset of the block's first segment."""
        return self.offset + _BLOCK_HEADER.size

    @property
    def end(self) -> int:
        """The file offset just past the block's last segment."""
        return self.payload + sum(self.lengths)


def _width(largest: int) -> int:
    """The narrowest plane width that holds ``largest``."""
    return next(w for w in _PLANES if largest < 1 << 8 * w)


def _with_crc(body: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(body)) + body


def _histogram_rows(distinct: np.ndarray, counts: np.ndarray) -> bytes:
    """The codec-3 segment of the histogram ``(distinct, counts)``,
    each plane as narrow as its largest value allows: a source step and
    a replier half are below 2**31, and a count below
    :data:`_MAX_BLOCK_PAIRS`."""
    planes = (
        np.diff(blocks.key_sources(distinct), prepend=0),
        blocks.key_repliers(distinct),
        counts,
    )
    widths = [_width(int(plane.max())) for plane in planes]
    return _with_crc(
        bytes(widths)
        + b"".join(p.astype(_PLANES[w]).tobytes() for w, p in zip(widths, planes))
    )


def _row_index(rows: np.ndarray, n_rows: int) -> bytes:
    """The codec-4 segment of each pair's histogram row ``rows``, as
    narrow as numbering ``n_rows`` rows allows."""
    width = _width(n_rows - 1)
    return _with_crc(bytes([width]) + rows.astype(_PLANES[width]).tobytes())


def _increasing(values: np.ndarray) -> bool:
    return not np.less_equal(values[1:], values[:-1]).any()


def _checked_histogram(
    keys: np.ndarray, counts: np.ndarray, n_pairs: int, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """A decoded histogram segment's ``(keys, counts)``, read-only, after
    checking that they can be a block's histogram of packed keys: keys
    that strictly increase from a first key >= 0, so every source half is
    below 2**31; counts whose running sum strictly increases from >= 1 to
    ``n_pairs`` (so each is >= 1 and none wraps the sum); and every
    replier half below 2**31."""
    if keys[0] < 0 or not _increasing(keys):
        raise TraceStoreCorruption(
            f"{path}: histogram keys are not non-negative strictly increasing"
        )
    ends = np.cumsum(counts)
    if ends[0] < 1 or ends[-1] != n_pairs or not _increasing(ends):
        raise TraceStoreCorruption(
            f"{path}: histogram counts are not >= 1 summing to {n_pairs}"
        )
    if (blocks.key_repliers(keys) >= ID_LIMIT).any():
        raise TraceStoreCorruption(
            f"{path}: histogram segment holds a replier id >= 2**31"
        )
    return _read_only(keys), _read_only(counts)


def _decode_histogram_rows(
    stored: bytes, n_pairs: int, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """A codec-3 histogram segment's ``(keys, counts)``, equal to
    :func:`repro.trace.blocks.count_keys` of the block's packed keys —
    after checking its CRC-32, that each plane is 1, 2 or 4 bytes wide,
    that its rows are whole and one to ``n_pairs`` of them, and
    :func:`_checked_histogram`.  A source step is below 2**32, so sources
    that pass 2**31 make a key negative or fall.  Nothing inflates: the
    stored length bounds the work."""
    if len(stored) < _ROWS_HEAD.size:
        raise TraceStoreCorruption(
            f"{path}: histogram segment of {len(stored)} bytes has no head"
        )
    crc, *widths = _ROWS_HEAD.unpack_from(stored)
    if zlib.crc32(memoryview(stored)[4:]) != crc:
        raise TraceStoreCorruption(f"{path}: histogram segment fails its CRC")
    if any(width not in _PLANES for width in widths):
        raise TraceStoreCorruption(
            f"{path}: histogram plane widths {widths} are not 1, 2 or 4 bytes"
        )
    rows, partial = divmod(len(stored) - _ROWS_HEAD.size, sum(widths))
    if partial:
        raise TraceStoreCorruption(
            f"{path}: histogram segment of {len(stored)} bytes is not whole rows"
        )
    if not 1 <= rows <= n_pairs:
        raise TraceStoreCorruption(
            f"{path}: histogram segment holds {rows} rows, not 1 to {n_pairs}"
        )
    planes, offset = [], _ROWS_HEAD.size
    for width in widths:
        planes.append(
            np.frombuffer(stored, dtype=_PLANES[width], count=rows, offset=offset)
        )
        offset += rows * width
    steps, repliers, counts = planes
    keys = pack_keys(np.cumsum(steps, dtype=np.int64), repliers)
    return _checked_histogram(keys, counts.astype(np.int64), n_pairs, path)


def _decode_row_index(
    stored: bytes, n_pairs: int, counts: np.ndarray, path: str
) -> np.ndarray:
    """A codec-4 segment's histogram row for each of the block's
    ``n_pairs`` pairs — after checking its CRC-32, that its rows are 1, 2
    or 4 bytes wide, that it holds exactly ``n_pairs`` of them, each
    below the histogram's ``len(counts)`` rows, and that they count
    ``counts``: so the keys they pick have the histogram the strategies
    read.  Nothing inflates: the stored length bounds the work."""
    if len(stored) < _INDEX_HEAD.size:
        raise TraceStoreCorruption(
            f"{path}: index segment of {len(stored)} bytes has no head"
        )
    crc, width = _INDEX_HEAD.unpack_from(stored)
    if zlib.crc32(memoryview(stored)[4:]) != crc:
        raise TraceStoreCorruption(f"{path}: index segment fails its CRC")
    if width not in _PLANES:
        raise TraceStoreCorruption(
            f"{path}: index width {width} is not 1, 2 or 4 bytes"
        )
    if len(stored) - _INDEX_HEAD.size != n_pairs * width:
        raise TraceStoreCorruption(
            f"{path}: index segment of {len(stored)} bytes is not "
            f"{n_pairs} rows of {width} bytes"
        )
    rows = np.frombuffer(stored, dtype=_PLANES[width], offset=_INDEX_HEAD.size)
    if rows.max() >= len(counts):
        raise TraceStoreCorruption(
            f"{path}: index row {rows.max()} is past the histogram's "
            f"{len(counts)} rows"
        )
    if not np.array_equal(np.bincount(rows, minlength=len(counts)), counts):
        raise TraceStoreCorruption(
            f"{path}: index rows do not count the histogram's counts"
        )
    return rows


class TraceStoreWriter:
    """Append-only chunked writer of a trace store file.

    ``append(sources, repliers)`` buffers at most one block's worth of
    pairs; every time the buffer reaches ``block_size`` a complete block
    is flushed to disk, so writing a 100M-pair trace needs O(block_size)
    memory.  Ids must be integers in ``[0, 2**31)``: a float column is
    refused, not truncated, and a refused chunk leaves the writer as it
    was.  ``append_block`` writes an already-built
    :class:`~repro.trace.blocks.PairBlock` directly, reusing its memoized
    fingerprint and id check.  Every block's keys are packed from its
    two columns and ranked as it is written, once per block.

    Every block is written in version 3, in one layout: its columns as
    each pair's row of its key histogram (codec 4: 1, 2 or 4 bytes a
    pair), then that histogram in narrow rows (codec 3), behind a header
    that stores both lengths.  Fingerprints stay over the int64 columns.
    A block holds fewer than 2**32 pairs, so its pair count and every
    count of its histogram fit 4 bytes.
    ``codec`` chooses nothing: ``None`` and ``"zlib"`` write the same
    bytes, and any other value is refused.  It is kept because
    ``benchmarks/perf/offline.py`` passes both.  ``meta_fingerprint``
    stamps a caller-chosen 64-bit provenance tag (e.g. a
    config+seed+length hash — see
    :func:`repro.trace.cache.trace_fingerprint`) into the file header.

    The trailer lands only in :meth:`close`; a crash (or an exception
    inside the ``with`` block) leaves an append-only prefix that
    :class:`TraceStoreReader` recovers up to the last complete block.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        block_size: int = 10_000,
        codec: str | None = None,
        meta_fingerprint: int = 0,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if block_size >= _MAX_BLOCK_PAIRS:
            raise ValueError("block_size must be below 2**32")
        if codec not in (None, "zlib"):
            raise ValueError(f"unknown codec {codec!r} (supported: ['zlib'])")
        if not 0 <= int(meta_fingerprint) < 1 << 64:
            raise ValueError("meta_fingerprint must fit an unsigned 64-bit field")
        self.path = os.fspath(path)
        self.block_size = int(block_size)
        self.meta_fingerprint = int(meta_fingerprint)
        self.n_blocks = 0
        self.n_pairs = 0
        self._pending: list[np.ndarray] = []  # interleaved (src, rep) chunks
        self._pending_pairs = 0
        self._closed = False
        self._fh = open(self.path, "wb")
        self._fh.write(
            _HEADER.pack(_MAGIC, _VERSION, self.block_size, self.meta_fingerprint)
        )

    # -- appending ----------------------------------------------------------
    def append(self, sources: np.ndarray, repliers: np.ndarray) -> int:
        """Buffer a chunk of pairs, flushing every completed block.

        Chunks may be any length (including spanning several blocks);
        returns the number of *blocks* flushed by this call.  Each
        chunk's ids are checked before it is buffered, so a refused chunk
        changes nothing, and a flushed block is not scanned again; an
        int64 chunk is buffered by reference until its pairs are flushed.
        """
        self._check_open()
        sources, repliers = np.asarray(sources), np.asarray(repliers)
        for column in (sources, repliers):
            if column.dtype.kind not in "iu":
                raise ValueError(f"node ids must be integers, not {column.dtype}")
        sources = sources.astype(np.int64, copy=False)
        repliers = repliers.astype(np.int64, copy=False)
        if sources.shape != repliers.shape or sources.ndim != 1:
            raise ValueError("sources and repliers must be matching 1-D arrays")
        scan_id_range(sources, repliers)
        self._pending.append(sources)
        self._pending.append(repliers)
        self._pending_pairs += len(sources)
        flushed = 0
        while self._pending_pairs >= self.block_size:
            self._flush_block(self.block_size)
            flushed += 1
        return flushed

    def append_block(self, block: PairBlock) -> None:
        """Write one pre-built block as-is (any length).

        Only valid while no partial chunk is buffered — interleaving
        buffered pairs with whole blocks would reorder the trace.
        """
        self._check_open()
        if self._pending_pairs:
            raise TraceStoreError(
                "append_block with buffered pairs would reorder the trace"
            )
        if len(block) == 0:
            return
        if len(block) >= _MAX_BLOCK_PAIRS:
            raise ValueError("a block must hold fewer than 2**32 pairs")
        self._write_block(block)

    def _flush_block(self, n_pairs: int) -> None:
        """Assemble ``n_pairs`` buffered pairs into one block and write it."""
        sources = np.empty(n_pairs, dtype=np.int64)
        repliers = np.empty(n_pairs, dtype=np.int64)
        filled = 0
        while filled < n_pairs:
            src, rep = self._pending[0], self._pending[1]
            take = min(len(src), n_pairs - filled)
            sources[filled : filled + take] = src[:take]
            repliers[filled : filled + take] = rep[:take]
            if take == len(src):
                del self._pending[:2]
            else:
                self._pending[0] = src[take:]
                self._pending[1] = rep[take:]
            filled += take
        self._pending_pairs -= n_pairs
        block = PairBlock(sources=sources, repliers=repliers, index=self.n_blocks)
        object.__setattr__(block, "_ids_validated", True)  # checked in append
        self._write_block(block)

    def _write_block(self, block: PairBlock) -> None:
        # The ids are checked (a flushed block's in append) before
        # anything is written.  The keys are packed from the columns the
        # fingerprint covers, never taken from the block's packed_keys()
        # memo, which nothing checks (both resolved at call time so tests
        # can count the packs).
        block.validate_ids()
        keys = blocks.pack_keys(block.sources, block.repliers)
        distinct, counts, rows = blocks.rank_keys(keys)
        segments = (
            _row_index(rows, len(distinct)),
            _histogram_rows(distinct, counts),
        )
        self._fh.write(
            _BLOCK_HEADER.pack(
                _BLOCK_MAGIC,
                len(block),
                bytes.fromhex(block.fingerprint()),
                *map(len, segments),
            )
        )
        for segment in segments:
            self._fh.write(segment)
        self.n_blocks += 1
        self.n_pairs += len(block)

    # -- lifecycle ----------------------------------------------------------
    @property
    def pending_pairs(self) -> int:
        """Buffered pairs not yet part of a complete block."""
        return self._pending_pairs

    def close(self, *, drop_partial: bool = True) -> None:
        """Flush, write the trailer, fsync, and close.

        ``drop_partial=False`` writes any buffered tail as one final
        short block (analyses that must not lose data); the default
        mirrors the paper's fixed-size blocks and discards it.
        """
        if self._closed:
            return
        if self._pending_pairs and not drop_partial:
            self._flush_block(self._pending_pairs)
        self._pending.clear()
        self._pending_pairs = 0
        self._fh.write(_TRAILER.pack(_TRAILER_MAGIC, self.n_blocks, self.n_pairs))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    def abandon(self) -> None:
        """Close the file *without* a trailer (simulates a crash mid-write)."""
        if not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise TraceStoreError("writer is closed")

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # A clean exit finalizes the store; an exception leaves the
        # append-only prefix for trailer-less recovery (torn-tail
        # semantics), exactly like a crash would.
        if exc_type is None:
            self.close()
        else:
            self.abandon()


class _StoreBlock(PairBlock):
    """A block of a store that reads its segments on first use.

    Its fingerprint and id validation come from the store.
    ``key_histogram()`` decodes the codec-3 histogram segment, its
    ``key_inverse()`` is its decoded codec-4 row index (kept in the
    index's 1-, 2- or 4-byte width), its ``packed_keys()`` are those
    rows' keys of that one decoded histogram, and ``sources`` /
    ``repliers`` are split from them.  ``len()`` is its header's.
    The block holds its reader, so the reader stays open while the block
    lives unless someone closes it.
    """

    def __init__(
        self, reader: "TraceStoreReader", entry: _BlockEntry, index: int
    ) -> None:
        # Not the dataclass __init__: it would assign the two columns
        # this class reads lazily.
        for name, value in (
            ("index", index),
            ("_reader", reader),
            ("_entry", entry),
            ("_fingerprint", entry.fingerprint.hex()),
            ("_ids_validated", True),
        ):
            object.__setattr__(self, name, value)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        columns = self.__dict__.get("_column_arrays")
        if columns is None:
            keys = self.packed_keys()
            columns = (
                _read_only(blocks.key_sources(keys)),
                _read_only(blocks.key_repliers(keys)),
            )
            object.__setattr__(self, "_column_arrays", columns)
        return columns

    @property
    def sources(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def repliers(self) -> np.ndarray:
        return self._columns()[1]

    def __len__(self) -> int:
        return self._entry.n_pairs

    def packed_keys(self) -> np.ndarray:
        keys = self.__dict__.get("_packed_keys")
        if keys is None:
            keys = _read_only(np.take(self.key_histogram()[0], self.key_inverse()))
            object.__setattr__(self, "_packed_keys", keys)
        return keys

    def key_inverse(self) -> np.ndarray:
        rows = self.__dict__.get("_key_inverse")
        if rows is None:
            rows = self._reader._rows(self._entry, self.key_histogram()[1])
            object.__setattr__(self, "_key_inverse", rows)
        return rows

    def key_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        histogram = self.__dict__.get("_key_histogram")
        if histogram is None:
            histogram = self._reader._key_histogram(self._entry)
            object.__setattr__(self, "_key_histogram", histogram)
        return histogram


class TraceStoreReader:
    """Block reader over a trace store file.

    :meth:`block` reads no segment: a block reads and decodes a segment
    when something first asks for it, and reads only that segment's byte
    range, so iterating a 10GB store keeps O(block_size) bytes resident —
    each block's arrays are freed as soon as the consumer drops the
    block.  A block's key histogram comes off its codec-3 segment, so
    mining and testing a block read neither column.

    Opening reads the file header, refuses any version but the one
    (:class:`TraceStoreError`), then walks the block headers from byte
    32, reading each once, and reads the trailer where the walk ends::

        header | block header, index, histogram | ... | trailer
                 ^ each header places the next    ^ the walk must end here

    The walk stops at the first header that is torn, mis-tagged, holds
    no pairs or runs past the file.  A store whose walk ends exactly at
    a trailer that counts its blocks and pairs is closed, and served as
    walked; ``verify=True`` checks each of its blocks too, truncating the
    visible store at the first that fails.  Any other store is
    ``recovered``: each walked block is verified, and the store ends at
    the first that fails.

    Readers are context managers: :meth:`close` (idempotent) drops the
    one file handle, so long partitioned runs do not accumulate fds.
    Arrays a block has read stay valid afterwards; a segment first asked
    for after ``close()`` raises :class:`TraceStoreError`.
    """

    def __init__(self, path: str | os.PathLike, *, verify: bool = False) -> None:
        # Lifetime fields first: __del__ must be safe even when opening
        # fails before the file handle exists.
        self._closed = False
        self._fh = None
        self.path = os.fspath(path)
        self._size = os.path.getsize(self.path)
        self._fh = open(self.path, "rb")
        try:
            self._open(verify)
        except BaseException:
            self.close()
            raise

    def _open(self, verify: bool) -> None:
        header = self._read_at(0, _HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceStoreError(f"{self.path}: too short for a trace store")
        magic, version, block_size, meta = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceStoreError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceStoreError(
                f"{self.path}: store version {version:#x}, not {_VERSION:#x}: "
                f"{_REGENERATE}"
            )
        self.version = int(version)
        self.block_size = int(block_size)
        self.meta_fingerprint = int(meta)
        entries, closed = self._walk()
        self.recovered = not closed
        if verify or self.recovered:
            entries = list(takewhile(self._intact, entries))
        self._entries = entries

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the file handle.

        Idempotent (double close is a no-op).  Arrays the reader's
        blocks have read stay valid; a block that reads a segment
        afterwards raises :class:`TraceStoreError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def __enter__(self) -> "TraceStoreReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise TraceStoreError(f"{self.path}: reader is closed")

    # -- opening ------------------------------------------------------------
    def _walk(self) -> tuple[list[_BlockEntry], bool]:
        """Every block the headers from byte 32 place, each header read
        once, and whether the walk ends exactly at a trailer that counts
        them.  A trailer is shorter than a block header, so no block can
        start where one would."""
        entries: list[_BlockEntry] = []
        offset, trailer = _HEADER.size, self._size - _TRAILER.size
        while offset != trailer:
            head = self._read_at(offset, _BLOCK_HEADER.size)
            if len(head) < _BLOCK_HEADER.size:
                break
            magic, n_pairs, fingerprint, *lengths = _BLOCK_HEADER.unpack(head)
            entry = _BlockEntry(offset, n_pairs, fingerprint, tuple(lengths))
            if magic != _BLOCK_MAGIC or n_pairs < 1 or entry.end > self._size:
                break
            entries.append(entry)
            offset = entry.end
        if offset != trailer:
            return entries, False
        total = sum(e.n_pairs for e in entries)
        counted = _TRAILER.pack(_TRAILER_MAGIC, len(entries), total)
        return entries, self._read_at(trailer, _TRAILER.size) == counted

    def _intact(self, entry: _BlockEntry) -> bool:
        """Whether block ``entry``'s columns match its fingerprint.  Its
        histogram segment is then theirs: the columns are its keys picked
        by the row index, whose decode checks that the rows count the
        histogram's counts, and the histogram's keys rise strictly."""
        try:
            block = _StoreBlock(self, entry, 0)
            return column_digest(block.sources, block.repliers) == entry.fingerprint
        except TraceStoreCorruption:
            return False  # garbage where an encoded segment should be

    # -- reading ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_blocks(self) -> int:
        return len(self._entries)

    @property
    def n_pairs(self) -> int:
        return sum(e.n_pairs for e in self._entries)

    def block_pairs(self) -> list[int]:
        """Per-block pair counts, in block order (feeds shard planning)."""
        return [e.n_pairs for e in self._entries]

    def _entry(self, i: int) -> _BlockEntry:
        """The walked header of block ``i``; only ``0 <= i < n_blocks``."""
        self._check_open()
        if not 0 <= i < len(self._entries):
            raise IndexError(
                f"{self.path}: block {i} is not in range(0, {len(self._entries)})"
            )
        return self._entries[i]

    def _read_at(self, offset: int, size: int) -> bytes:
        """Up to ``size`` bytes at ``offset`` (short at the end of the
        file), read without a file position: a process forked while
        this reader is open shares its handle's position with its
        parent and siblings, so a seek then a read could read at theirs."""
        self._check_open()
        return os.pread(self._fh.fileno(), size, offset)

    def _stored(self, entry: _BlockEntry, segment: int) -> bytes:
        """The stored bytes of block ``entry``'s segment ``segment``: 0
        the index, 1 the histogram."""
        at = entry.payload + sum(entry.lengths[:segment])
        return self._read_at(at, entry.lengths[segment])

    def _rows(self, entry: _BlockEntry, counts: np.ndarray) -> np.ndarray:
        """Block ``entry``'s row index: each pair's row of the block's
        key histogram, whose ``counts`` the rows must count."""
        stored = self._stored(entry, 0)
        return _decode_row_index(stored, entry.n_pairs, counts, self.path)

    def _key_histogram(self, entry: _BlockEntry) -> tuple[np.ndarray, np.ndarray]:
        """Block ``entry``'s key histogram, off its codec-3 segment."""
        return _decode_histogram_rows(self._stored(entry, 1), entry.n_pairs, self.path)

    def block(self, i: int) -> PairBlock:
        """Block ``i`` (``0 <= i < n_blocks``, else :class:`IndexError`).

        The block's memoized ``fingerprint`` and id validation are
        pre-seeded from the store, so mining and testing it never
        re-hashes or re-scans.  Its segments are read when first asked
        for — ``key_histogram()`` reads the histogram segment alone, and
        ``key_inverse()`` / ``packed_keys()`` / ``sources`` /
        ``repliers`` the row index too, once between them.
        """
        return _StoreBlock(self, self._entry(i), i)

    def blocks(self) -> list[PairBlock]:
        """Every block at once, its keys read.

        For a caller that keeps the whole trace: each block decodes its
        histogram and keys now, as :meth:`block` would on first use.
        """
        self._check_open()
        held = list(self.iter_blocks())
        for block in held:
            block.packed_keys()
        return held

    def columns(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(sources, repliers) of block ``i``, split from its row index."""
        block = self.block(i)
        return block.sources, block.repliers

    def iter_blocks(self) -> Iterator[PairBlock]:
        """Yield blocks in trace order, reading each only when asked."""
        for i in range(len(self._entries)):
            yield self.block(i)

    def describe_blocks(self) -> Iterator[dict]:
        """One row per block, as ``repro trace-inspect`` prints it: its
        pairs and two stored lengths, its key histogram's distinct keys
        ``d``, its row width, and whether it is intact on its own.  A
        block whose segments fail to decode has ``error`` in place of
        ``d`` and the width."""
        self._check_open()
        for i, entry in enumerate(self._entries):
            row = {"block": i, "pairs": entry.n_pairs, "lengths": entry.lengths}
            try:
                block = self.block(i)
                row["width"] = block.key_inverse().itemsize
                row["d"] = len(block.key_histogram()[0])
            except TraceStoreCorruption as exc:
                row["error"] = str(exc)
            row["intact"] = self._intact(entry)
            yield row

    def verify_blocks(self, *, strict: bool = False) -> int:
        """Re-check every visible block; returns how many are intact.

        A block is intact when its columns match its fingerprint and its
        histogram segment's histogram is theirs.
        Stops counting at the first block that is not (the store is
        usable up to — not including — that block).  ``strict=True``
        raises :class:`TraceStoreCorruption` instead of returning a
        short count.
        """
        self._check_open()
        intact = len(list(takewhile(self._intact, self._entries)))
        if strict and intact != len(self._entries):
            raise TraceStoreCorruption(
                f"{self.path}: block {intact} fails its integrity check "
                f"({intact}/{len(self._entries)} blocks intact)"
            )
        return intact
