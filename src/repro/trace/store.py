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

    header   (32 B)  magic "RPTRACE1" | version u32 | flags u32
                     | block_size u64 | meta fingerprint u64
    block*           block header (32 B): magic "RPTB" | codecs u32
                     | n_pairs u64 | blake2b-128 fingerprint (16 B)
                     one u64 stored length per segment
                     followed by the three segments:
                     sources  each pair's histogram row (codec 4)
                     repliers nothing
                     keys     the block's key histogram (codec 3)
    footer   index:  one 32 B entry per block
                     (block_offset u64 | n_pairs u64 | fingerprint 16 B)
             trailer (40 B): magic "RPTFOOT1" | index_offset u64
                     | n_blocks u64 | total_pairs u64
                     | index crc32 u32 | version u32

Every store is version 2 with header flags bit 1 (once "sorted key
segments"), and every block holds one layout: segment codecs
``(4, 4, 3)``, one codec byte per segment packed into the block header's
``codecs`` u32:

* 3 — the key segment: the block's key histogram as narrow raw rows: a
  u32 CRC-32 of the rest of the segment, three width bytes (1, 2 or 4;
  for source steps, replier halves and counts), then three unsigned
  planes of d rows each in that order — each row's source half minus the
  previous row's (the first row's as it is), its replier half, its
  count.  Nothing inflates: each plane is read in place;
* 4 — both columns as one row index: segment 0 is a
  u32 CRC-32 of the rest, one width byte (1, 2 or 4: the narrowest that
  numbers the histogram's d rows), then each pair's row of the key
  histogram, n of them; segment 1 is empty.  A pair's packed key is its
  row's key, and the two columns are split from the keys when asked
  for.  The decoder requires exactly n rows, each below d, that count
  what the histogram's counts say, so the columns and the histogram
  agree by construction.

Nothing else is read.  Earlier releases wrote other forms — version 1,
pair-order key segments (flags bit 0), raw (codec 0) or deflated
(codec 1) columns, sorted keys under zlib (codec 1) or a deflated
histogram (codec 2) — and a header or a block header in any of them is
refused with :class:`TraceStoreError` when the store is opened, before
any segment is read; ``repro tracegen`` writes the trace again.

Block fingerprints are :func:`repro.trace.blocks.column_digest`
(blake2b-128 of the *uncompressed* source, then replier, column bytes),
whose hex is :meth:`PairBlock.fingerprint`, so store-resident blocks come
back with their fingerprint already known.  The fingerprint does not
cover the key segment, so the writer derives that segment from the two
columns it fingerprints, never from a block's memo.  A block's key
histogram — all GENERATE-RULESET and RULESET-TEST read — is then one
checked decode of the segment, with no column read and no sort; the
decoder refuses a segment that cannot be its block's histogram of packed
keys.  Verification (:meth:`TraceStoreReader.verify_blocks`,
``verify=True`` and the footer-less scan) checks the columns against the
fingerprint, and that is enough for the histogram too: the columns are
the histogram's keys picked by the row index, and the two decoders
require the keys to rise strictly and the rows to count the counts, so
a store that verifies mines its columns' rules.

Durability mirrors the WAL torn-tail semantics of ``repro.persist``: the
footer is written only on a clean :meth:`TraceStoreWriter.close`, and a
reader that finds a missing, truncated, or corrupt footer falls back to
scanning block headers from the top of the file — verifying each block —
and recovers everything up to the last complete, intact block.  A
mid-write crash therefore loses at most the block being written, never
the store.

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

_HEADER = struct.Struct("<8sIIQQ")
_BLOCK_HEADER = struct.Struct("<4sIQ16s")
_INDEX_ENTRY = struct.Struct("<QQ16s")
_TRAILER = struct.Struct("<8sQQQII")

_MAGIC = b"RPTRACE1"
_BLOCK_MAGIC = b"RPTB"
_FOOTER_MAGIC = b"RPTFOOT1"
#: the one version: per-segment codecs.
_VERSION = 2
#: flags bit 1 — each block's key segment is its key histogram; the one
#: flag a store sets (bit 0 named the pair-order keys of earlier releases).
_FLAG_SORTED = 2
#: sources, repliers and packed keys.
_N_SEGMENTS = 3

#: per-segment codec ids (one byte each inside the block header's u32).
#: the key segment (2): the block's key histogram as narrow rows.
_CODEC_HISTOGRAM_ROWS = 3
#: the column segments (0 and 1), both at once: each pair's row of the
#: histogram in segment 0, segment 1 empty.
_CODEC_ROW_INDEX = 4
#: every block's three segment codecs.
_CODECS = (_CODEC_ROW_INDEX, _CODEC_ROW_INDEX, _CODEC_HISTOGRAM_ROWS)
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
#: a block header with its stored segment lengths.
_BLOCK_HEAD = _BLOCK_HEADER.size + 8 * _N_SEGMENTS
#: the pairs a block may hold: fewer, so every codec-3 count fits 4 bytes.
_MAX_BLOCK_PAIRS = 1 << 32


class TraceStoreError(Exception):
    """The file is not a trace store (bad magic or arguments), or not one
    in the one layout this reader reads (another version, flags or codecs)."""


class TraceStoreCorruption(TraceStoreError):
    """The store exists but its contents fail an integrity check."""


@dataclass(frozen=True)
class _BlockEntry:
    """One footer-index row: where a block's segments live."""

    offset: int  # file offset of the block *header*
    n_pairs: int
    fingerprint: bytes  # blake2b-128 raw digest


def _width(largest: int) -> int:
    """The narrowest plane width that holds ``largest``."""
    return next(w for w in _PLANES if largest < 1 << 8 * w)


def _with_crc(body: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(body)) + body


def _histogram_rows(distinct: np.ndarray, counts: np.ndarray) -> bytes:
    """The codec-3 key segment of the histogram ``(distinct, counts)``,
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
    """A codec-3 key segment's ``(keys, counts)``, equal to
    ``np.unique(keys, return_counts=True)`` of the block's packed keys —
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
    fingerprint and id check.  Every block's key segment is packed from
    its two columns and counted as it is written, once per block.

    Every block is written in version 2, in one layout: its key segment
    as its key histogram in narrow rows (codec 3), and its columns as
    each pair's row of that histogram (codec 4: 1, 2 or 4 bytes a pair).
    Fingerprints stay over the int64 columns, and each segment records
    its own codec byte so readers never guess.  A block holds fewer than
    2**32 pairs, so every count of its histogram fits 4 bytes.
    ``codec`` chooses nothing: ``None`` and ``"zlib"`` write the same
    bytes, and any other value is refused.  It is kept because
    ``benchmarks/perf/offline.py`` passes both.  ``meta_fingerprint``
    stamps a caller-chosen 64-bit provenance tag (e.g. a
    config+seed+length hash — see
    :func:`repro.trace.cache.trace_fingerprint`) into the file header.

    The footer index lands only in :meth:`close`; a crash (or an
    exception inside the ``with`` block) leaves an append-only prefix
    that :class:`TraceStoreReader` recovers up to the last complete
    block.
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
        self._entries: list[_BlockEntry] = []
        self._pending: list[np.ndarray] = []  # interleaved (src, rep) chunks
        self._pending_pairs = 0
        self._closed = False
        self._fh = open(self.path, "wb")
        self._fh.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                _FLAG_SORTED,
                self.block_size,
                self.meta_fingerprint,
            )
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
        block = PairBlock(sources=sources, repliers=repliers, index=len(self._entries))
        object.__setattr__(block, "_ids_validated", True)  # checked in append
        self._write_block(block)

    def _write_block(self, block: PairBlock) -> None:
        offset = self._fh.tell()
        # The ids are checked (a flushed block's in append) before
        # anything is written.  The key segment is packed from the
        # columns the fingerprint covers, never taken from the block's
        # packed_keys() memo, which nothing checks (resolved at call time
        # so tests can count the packs).
        block.validate_ids()
        keys = blocks.pack_keys(block.sources, block.repliers)
        fingerprint = bytes.fromhex(block.fingerprint())
        distinct, rows, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        codecs = _CODEC_ROW_INDEX | _CODEC_ROW_INDEX << 8 | _CODEC_HISTOGRAM_ROWS << 16
        payloads = [
            _row_index(rows, len(distinct)),
            b"",
            _histogram_rows(distinct, counts),
        ]
        self._fh.write(
            _BLOCK_HEADER.pack(_BLOCK_MAGIC, codecs, len(block), fingerprint)
        )
        self._fh.write(struct.pack(f"<{_N_SEGMENTS}Q", *map(len, payloads)))
        for payload in payloads:
            self._fh.write(payload)
        self._entries.append(_BlockEntry(offset, len(block), fingerprint))

    # -- lifecycle ----------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self._entries)

    @property
    def n_pairs(self) -> int:
        return sum(e.n_pairs for e in self._entries)

    @property
    def pending_pairs(self) -> int:
        """Buffered pairs not yet part of a complete block."""
        return self._pending_pairs

    def close(self, *, drop_partial: bool = True) -> None:
        """Flush, write the footer index, fsync, and close.

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
        index_offset = self._fh.tell()
        index = b"".join(
            _INDEX_ENTRY.pack(e.offset, e.n_pairs, e.fingerprint)
            for e in self._entries
        )
        self._fh.write(index)
        self._fh.write(
            _TRAILER.pack(
                _FOOTER_MAGIC,
                index_offset,
                len(self._entries),
                self.n_pairs,
                zlib.crc32(index),
                _VERSION,
            )
        )
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    def abandon(self) -> None:
        """Close the file *without* a footer (simulates a crash mid-write)."""
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
        # append-only prefix for footer-less recovery (torn-tail
        # semantics), exactly like a crash would.
        if exc_type is None:
            self.close()
        else:
            self.abandon()


class _StoreBlock(PairBlock):
    """A block of a store that reads its segments on first use.

    Its fingerprint and id validation come from the store.
    ``key_histogram()`` decodes the codec-3 key segment, its
    ``key_inverse()`` is its decoded codec-4 row index (kept in the
    index's 1-, 2- or 4-byte width), its ``packed_keys()`` are those
    rows' keys of that one decoded histogram, and ``sources`` /
    ``repliers`` are split from them.  ``len()`` is the index entry's.
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
    block.  A block's key histogram comes off its codec-3 key segment, so
    mining and testing a block read neither column.

    Opening reads the file header and every block header it serves, and
    refuses a store in any layout but the one (:class:`TraceStoreError`).
    It prefers the footer index (O(1), trusted after its CRC check).  A
    missing or corrupt footer triggers a header scan that verifies each
    block and stops at the first torn or corrupt block (``recovered`` is
    then True).  ``verify=True`` forces the same check even when the
    footer is intact, truncating the visible store at the first block
    that fails it.

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
        self._layouts: dict[int, tuple[tuple[int, ...], int]] = {}
        self.path = os.fspath(path)
        self._size = os.path.getsize(self.path)
        self.recovered = False
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
        magic, version, flags, block_size, meta = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceStoreError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceStoreError(
                f"{self.path}: store version {version}, not {_VERSION}: {_REGENERATE}"
            )
        if flags != _FLAG_SORTED:
            raise TraceStoreError(
                f"{self.path}: header flags {flags:#x}, not {_FLAG_SORTED:#x}: "
                f"{_REGENERATE}"
            )
        self.version = int(version)
        self.flags = int(flags)
        self.block_size = int(block_size)
        self.meta_fingerprint = int(meta)
        self._entries = self._load_footer()
        if self._entries is None:
            self._entries = self._scan_blocks()
            self.recovered = True
        elif verify:
            self._entries = self._verified_prefix(self._entries)

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
    def _load_footer(self) -> list[_BlockEntry] | None:
        """Parse the footer index; None when absent/torn/corrupt."""
        if self._size < _HEADER.size + _TRAILER.size:
            return None
        magic, index_offset, n_blocks, total_pairs, crc, version = _TRAILER.unpack(
            self._read_at(self._size - _TRAILER.size, _TRAILER.size)
        )
        if magic != _FOOTER_MAGIC or version != self.version:
            return None
        index_size = n_blocks * _INDEX_ENTRY.size
        if index_offset + index_size + _TRAILER.size != self._size:
            return None
        index = self._read_at(index_offset, index_size)
        if len(index) != index_size or zlib.crc32(index) != crc:
            return None
        entries = [
            _BlockEntry(*_INDEX_ENTRY.unpack_from(index, off))
            for off in range(0, index_size, _INDEX_ENTRY.size)
        ]
        if sum(e.n_pairs for e in entries) != total_pairs:
            return None
        if any(e.n_pairs < 1 for e in entries):
            return None
        # The blocks tile the file from the header to the index, each
        # ending where its header's stored lengths say, and each header
        # counts its entry's pairs.  A header in another layout refuses
        # the store.  One whose own fields fail (a stored length past the
        # file, a segment 1 that stores bytes) places nothing: its block
        # stays indexed and raises when read, as a corrupt segment does,
        # and the next entry's offset is not checked.
        layouts = {}
        end = _HEADER.size
        for entry in entries:
            if end is not None and entry.offset != end:
                return None
            head = self._block_head(entry.offset)
            if len(head) < _BLOCK_HEAD:
                return None
            magic, _codecs, n_pairs, _fingerprint = _BLOCK_HEADER.unpack_from(head)
            if magic != _BLOCK_MAGIC or n_pairs != entry.n_pairs:
                return None
            try:
                layout = self._parse_layout(entry, head)
            except TraceStoreCorruption:
                end = None
                continue
            layouts[entry.offset] = layout
            lengths, payload = layout
            end = payload + sum(lengths)
        if end is not None and end != index_offset:
            return None
        self._layouts.update(layouts)
        return entries

    def _scan_blocks(self) -> list[_BlockEntry]:
        """Walk block headers from the top, keeping verified blocks.

        Mirrors WAL torn-tail recovery: the first header that is
        truncated, mis-tagged or out of bounds, or whose block fails
        :meth:`_intact`, ends the store.  A header in another layout
        refuses it.
        """
        entries: list[_BlockEntry] = []
        offset = _HEADER.size
        while True:
            head = self._block_head(offset)
            if len(head) < _BLOCK_HEADER.size:
                break
            magic, _codecs, n_pairs, fingerprint = _BLOCK_HEADER.unpack_from(head)
            if magic != _BLOCK_MAGIC or n_pairs < 1:
                break
            entry = _BlockEntry(offset, n_pairs, fingerprint)
            try:
                lengths, payload = self._parse_layout(entry, head)
            except TraceStoreCorruption:
                break  # torn tail: the lengths or the segments never landed
            self._layouts[offset] = lengths, payload
            if not self._intact(entry):
                break
            entries.append(entry)
            offset = payload + sum(lengths)
        return entries

    def _intact(self, entry: _BlockEntry) -> bool:
        """Whether block ``entry``'s columns match its fingerprint.  Its
        key segment's histogram is then theirs: the columns are its keys
        picked by the row index, whose decode checks that the rows count
        the histogram's counts, and the histogram's keys rise strictly."""
        try:
            block = _StoreBlock(self, entry, 0)
            return column_digest(block.sources, block.repliers) == entry.fingerprint
        except TraceStoreCorruption:
            return False  # garbage where an encoded segment should be

    def _verified_prefix(self, entries: list[_BlockEntry]) -> list[_BlockEntry]:
        return list(takewhile(self._intact, entries))

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
        """The index entry of block ``i``; only ``0 <= i < n_blocks``."""
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

    def _block_head(self, offset: int) -> bytes:
        """The block header at ``offset`` with its stored lengths (short
        at the end of the file)."""
        return self._read_at(offset, _BLOCK_HEAD)

    def _parse_layout(
        self, entry: _BlockEntry, head: bytes
    ) -> tuple[tuple[int, ...], int]:
        """(stored lengths, payload offset) of block ``entry``'s header
        bytes ``head``, checked against the index entry, the one layout
        and the file.  Segment codecs other than ``(4, 4, 3)`` are a
        :class:`TraceStoreError`; any other failure is corruption."""
        if len(head) < _BLOCK_HEAD:
            raise TraceStoreCorruption(f"{self.path}: truncated block header")
        magic, codecs_word, n_pairs, _fingerprint = _BLOCK_HEADER.unpack_from(head)
        if magic != _BLOCK_MAGIC or n_pairs != entry.n_pairs:
            raise TraceStoreCorruption(
                f"{self.path}: block header at {entry.offset} disagrees with index"
            )
        codecs = tuple((codecs_word >> (8 * k)) & 0xFF for k in range(_N_SEGMENTS))
        if codecs != _CODECS:
            raise TraceStoreError(
                f"{self.path}: block at {entry.offset} has segment codecs "
                f"{codecs}, not {_CODECS}: {_REGENERATE}"
            )
        lengths = struct.unpack_from(f"<{_N_SEGMENTS}Q", head, _BLOCK_HEADER.size)
        payload = entry.offset + _BLOCK_HEAD
        if min(lengths[0], lengths[2]) < 1 or payload + sum(lengths) > self._size:
            raise TraceStoreCorruption(
                f"{self.path}: block at {entry.offset} stores segment "
                f"lengths {lengths} past the end of the file"
            )
        if lengths[1]:
            raise TraceStoreCorruption(
                f"{self.path}: segment 1 of a row-indexed block stores "
                f"{lengths[1]} bytes, not 0"
            )
        return lengths, payload

    def _layout(self, entry: _BlockEntry) -> tuple[tuple[int, ...], int]:
        """:meth:`_parse_layout` of block ``entry``, parsed once: at open,
        else (a header whose own fields failed then) on each use."""
        layout = self._layouts.get(entry.offset)
        if layout is None:
            layout = self._parse_layout(entry, self._block_head(entry.offset))
            self._layouts[entry.offset] = layout
        return layout

    def _stored(self, entry: _BlockEntry, segment: int) -> bytes:
        """The stored bytes of one of block ``entry``'s segments."""
        lengths, payload = self._layout(entry)
        return self._read_at(payload + sum(lengths[:segment]), lengths[segment])

    def _rows(self, entry: _BlockEntry, counts: np.ndarray) -> np.ndarray:
        """Block ``entry``'s row index: each pair's row of the block's
        key histogram, whose ``counts`` the rows must count."""
        stored = self._stored(entry, 0)
        return _decode_row_index(stored, entry.n_pairs, counts, self.path)

    def _key_histogram(self, entry: _BlockEntry) -> tuple[np.ndarray, np.ndarray]:
        """Block ``entry``'s key histogram, off its codec-3 key segment."""
        return _decode_histogram_rows(self._stored(entry, 2), entry.n_pairs, self.path)

    def block(self, i: int) -> PairBlock:
        """Block ``i`` (``0 <= i < n_blocks``, else :class:`IndexError`).

        The block's memoized ``fingerprint`` and id validation are
        pre-seeded from the store, so mining and testing it never
        re-hashes or re-scans.  Its header and segment layout are
        checked here; its segments are read when first asked for —
        ``key_histogram()`` reads the key segment alone, and
        ``key_inverse()`` / ``packed_keys()`` / ``sources`` /
        ``repliers`` the row index too, once between them.
        """
        entry = self._entry(i)
        self._layout(entry)
        return _StoreBlock(self, entry, i)

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
        pairs, segment codecs and stored lengths, its key histogram's
        distinct keys ``d``, its row width, and whether it is intact on
        its own.  A block whose segments fail to decode has ``error`` in
        place of ``d``, and one whose header fails has it in place of
        all three."""
        self._check_open()
        for i, entry in enumerate(self._entries):
            row = {"block": i, "pairs": entry.n_pairs}
            try:
                lengths, payload = self._layout(entry)
                row.update(codecs=_CODECS, lengths=lengths, width=None)
                if lengths[0] >= _INDEX_HEAD.size:
                    row["width"] = self._read_at(payload, _INDEX_HEAD.size)[-1]
                block = self.block(i)
                block.packed_keys()  # decodes the row index too
                row["d"] = len(block.key_histogram()[0])
            except TraceStoreCorruption as exc:
                row["error"] = str(exc)
            row["intact"] = self._intact(entry)
            yield row

    def verify_blocks(self, *, strict: bool = False) -> int:
        """Re-check every visible block; returns how many are intact.

        A block is intact when its columns match its fingerprint and its
        key segment's histogram is theirs.
        Stops counting at the first block that is not (the store is
        usable up to — not including — that block).  ``strict=True``
        raises :class:`TraceStoreCorruption` instead of returning a
        short count.
        """
        self._check_open()
        intact = len(self._verified_prefix(self._entries))
        if strict and intact != len(self._entries):
            raise TraceStoreCorruption(
                f"{self.path}: block {intact} fails its integrity check "
                f"({intact}/{len(self._entries)} blocks intact)"
            )
        return intact
