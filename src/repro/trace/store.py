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

The writer writes version 2 with header flags bit 1, every block in one
layout.  Each segment carries its own codec byte, packed into the block
header's ``codecs`` u32:

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

Legacy forms stay readable.  Earlier releases wrote raw int64 columns
(codec 0), deflated columns (codec 1: one zlib stream of a column's raw
bytes, inflated on read), version 1 (every segment raw, no stored
lengths, the codecs field zero) and version-2 key segments in codecs 0,
1 and 2.  Such a column is read whole and checked for its length; such
a key segment is never read, and the block's histogram is counted from
its two columns, as an in-memory block's is.

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
``verify=True`` and the footer-less scan) also requires a codec-3
segment's histogram to equal the columns', so a store that verifies
mines its columns' rules.  A header must set exactly one of flags bit 0
(pair-order key segments, from releases before sorted ones) and bit 1.

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
import sys
import zlib
from dataclasses import dataclass
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
#: version 1 — raw segments only (read only); version 2 — per-segment codecs.
_VERSION_RAW = 1
_VERSION_CODECS = 2
_VERSIONS = (_VERSION_RAW, _VERSION_CODECS)

#: flags bit 0 — each block's key segment is packed keys in pair order
#: (written by earlier releases).
_FLAG_PAIR_ORDER = 1
#: flags bit 1 — each block's key segment is sorted keys or their histogram.
_FLAG_SORTED = 2
#: sources, repliers and packed keys.
_N_SEGMENTS = 3

#: per-segment codec ids (one byte each inside the block header's u32).
#: a column as raw int64s, written by an earlier release.
_CODEC_RAW = 0
#: a column as one zlib stream, written by an earlier release.
_CODEC_ZLIB = 1
#: the key segment (2) only: zlib of the block's key histogram, written
#: by an earlier release; counted from the columns.
_CODEC_DEFLATED_HISTOGRAM = 2
#: the key segment (2) only: the block's key histogram as narrow rows.
_CODEC_HISTOGRAM_ROWS = 3
#: the column segments (0 and 1) only, both at once: each pair's row of
#: the histogram in segment 0, segment 1 empty.
_CODEC_ROW_INDEX = 4
#: the codecs each segment may carry.
_SEGMENT_CODECS = (
    (_CODEC_RAW, _CODEC_ZLIB, _CODEC_ROW_INDEX),
    (_CODEC_RAW, _CODEC_ZLIB, _CODEC_ROW_INDEX),
    (_CODEC_RAW, _CODEC_ZLIB, _CODEC_DEFLATED_HISTOGRAM, _CODEC_HISTOGRAM_ROWS),
)

_I8 = np.dtype("<i8")
_ITEMSIZE = _I8.itemsize
#: a codec-3 segment's head: a CRC-32 of the rest, then its plane widths.
_ROWS_HEAD = struct.Struct("<I3B")
#: each width a codec-3 or codec-4 plane may have, and its dtype.
_PLANES = {width: np.dtype(f"<u{width}") for width in (1, 2, 4)}
#: a codec-4 segment's head: a CRC-32 of the rest, then its row width.
_INDEX_HEAD = struct.Struct("<IB")
#: a version-2 block header with its stored segment lengths.
_BLOCK_HEAD_V2 = _BLOCK_HEADER.size + 8 * _N_SEGMENTS
#: the pairs a block may hold: fewer, so every codec-3 count fits 4 bytes.
_MAX_BLOCK_PAIRS = 1 << 32


class TraceStoreError(Exception):
    """The file is not a trace store (bad magic/version/arguments)."""


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


def _inflate(stored: bytes, limit: int, path: str) -> bytes:
    """The zlib stream ``stored``, refused unless it ends within ``limit``
    bytes; one byte past the limit is all it inflates, so a small segment
    cannot make a huge allocation.  A limit past what zlib can be asked
    for (a hostile pair count) is cut to it."""
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(stored, min(limit, sys.maxsize - 1) + 1)
    except zlib.error as exc:
        raise TraceStoreCorruption(
            f"{path}: segment fails to decompress: {exc}"
        ) from exc
    if not inflate.eof:
        raise TraceStoreCorruption(
            f"{path}: segment does not end within {limit} bytes"
        )
    return raw


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
                _VERSION_CODECS,
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
                _VERSION_CODECS,
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
    ``key_histogram()`` decodes the codec-3 key segment, or counts the
    columns' keys when the segment is a legacy form.  A row-indexed
    block's ``packed_keys()`` are its rows' keys of that one decoded
    histogram, and ``sources`` / ``repliers`` are split from them; a
    legacy block's columns are read when first asked for, and its keys
    packed from them.  ``len()`` is the index entry's.  The block holds
    its reader, so the reader stays open while the block lives unless
    someone closes it.
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
            if self._reader._indexed(self._entry):
                keys = self.packed_keys()
                columns = (
                    _read_only(blocks.key_sources(keys)),
                    _read_only(blocks.key_repliers(keys)),
                )
            else:
                columns = (
                    self._reader._read_segment(self._entry, 0),
                    self._reader._read_segment(self._entry, 1),
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
            if self._reader._indexed(self._entry):
                keys = self._reader._row_keys(self._entry, self.key_histogram())
            else:
                keys = _read_only(pack_keys(*self._columns()))
            object.__setattr__(self, "_packed_keys", keys)
        return keys

    def key_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        if "_key_histogram" not in self.__dict__:
            histogram = self._reader._key_histogram(self._entry)
            if histogram is not None:
                object.__setattr__(self, "_key_histogram", histogram)
        return super().key_histogram()


class TraceStoreReader:
    """Block reader over a trace store file.

    :meth:`block` reads no segment: a block reads and decodes a segment
    when something first asks for it, and reads only that segment's byte
    range, so iterating a 10GB store keeps O(block_size) bytes resident —
    each block's arrays are freed as soon as the consumer drops the
    block.  A block's key histogram comes off its codec-3 key segment, so
    mining and testing a block read neither column; a legacy block's is
    counted from its columns.

    Opening prefers the footer index (O(1), trusted after its CRC
    check).  A missing or corrupt footer triggers a header scan that
    verifies each block and stops at the first torn or corrupt block
    (``recovered`` is then True).  ``verify=True`` forces the same check
    even when the footer is intact, truncating the visible store at the
    first block that fails it.

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
        self._layouts: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self.path = os.fspath(path)
        self._size = os.path.getsize(self.path)
        self.recovered = False
        self._fh = open(self.path, "rb")
        header = self._read_at(0, _HEADER.size)
        if len(header) < _HEADER.size:
            self.close()
            raise TraceStoreError(f"{self.path}: too short for a trace store")
        magic, version, flags, block_size, meta = _HEADER.unpack(header)
        if magic != _MAGIC:
            self.close()
            raise TraceStoreError(f"{self.path}: bad magic {magic!r}")
        if version not in _VERSIONS:
            self.close()
            raise TraceStoreError(f"{self.path}: unsupported version {version}")
        order = flags & (_FLAG_PAIR_ORDER | _FLAG_SORTED)
        if not order:
            self.close()
            raise TraceStoreError(f"{self.path}: no packed-key segments")
        if order == _FLAG_PAIR_ORDER | _FLAG_SORTED:
            self.close()
            raise TraceStoreError(
                f"{self.path}: packed-key segments flagged both pair-order and sorted"
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
        if self.version == _VERSION_RAW:
            # raw blocks tile the file from the header to the index, so
            # every entry's pair count is its block's
            end = _HEADER.size
            for entry in entries:
                if entry.offset != end:
                    return None
                end += self._block_extent(entry.n_pairs)
            if end != index_offset:
                return None
        else:
            # v2 blocks tile it too, each ending where its header's stored
            # lengths say, and each header counts its entry's pairs.  A
            # header whose own fields fail (a stored length past the file,
            # an unknown codec) places nothing: its block stays indexed
            # and raises when read, as a corrupt segment does, and the
            # next entry's offset is not checked.
            layouts = {}
            end = _HEADER.size
            for entry in entries:
                if end is not None and entry.offset != end:
                    return None
                head = self._block_head(entry.offset)
                if len(head) < _BLOCK_HEAD_V2:
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
                _codecs, lengths, payload = layout
                end = payload + sum(lengths)
            if end is not None and end != index_offset:
                return None
            self._layouts.update(layouts)
        return entries

    def _block_extent(self, n_pairs: int) -> int:
        return _BLOCK_HEADER.size + _N_SEGMENTS * n_pairs * _ITEMSIZE

    def _scan_blocks(self) -> list[_BlockEntry]:
        """Walk block headers from the top, keeping verified blocks.

        Mirrors WAL torn-tail recovery: the first header that is
        truncated, mis-tagged or out of bounds, or whose block fails
        :meth:`_intact`, ends the store.
        """
        entries: list[_BlockEntry] = []
        offset = _HEADER.size
        while True:
            raw = self._read_at(offset, _BLOCK_HEADER.size)
            if len(raw) < _BLOCK_HEADER.size:
                break
            magic, _codecs, n_pairs, fingerprint = _BLOCK_HEADER.unpack(raw)
            if magic != _BLOCK_MAGIC or n_pairs < 1:
                break
            if self.version == _VERSION_RAW:
                extent = self._block_extent(n_pairs)
            else:
                lengths_raw = self._read_at(
                    offset + _BLOCK_HEADER.size, 8 * _N_SEGMENTS
                )
                if len(lengths_raw) < 8 * _N_SEGMENTS:
                    break  # torn tail inside the length area
                lengths = struct.unpack(f"<{_N_SEGMENTS}Q", lengths_raw)
                if min(lengths[0], lengths[2]) < 1 or max(lengths) > self._size:
                    break
                extent = _BLOCK_HEAD_V2 + sum(lengths)
            if offset + extent > self._size:
                break  # torn tail: the block's columns never fully landed
            entry = _BlockEntry(offset, n_pairs, fingerprint)
            if not self._intact(entry):
                break
            entries.append(entry)
            offset += extent
        return entries

    def _intact(self, entry: _BlockEntry) -> bool:
        """Whether block ``entry``'s columns match its fingerprint and a
        codec-3 key segment's histogram is theirs — so every rule mined
        off a block that passes is its columns' rule.  A legacy key
        segment is never read, so only the columns are checked."""
        try:
            block = _StoreBlock(self, entry, 0)
            if column_digest(block.sources, block.repliers) != entry.fingerprint:
                return False
            if not self._has_rows(entry):
                return True
            want = np.unique(block.packed_keys(), return_counts=True)
            return all(map(np.array_equal, block.key_histogram(), want))
        except TraceStoreCorruption:
            return False  # garbage where an encoded segment should be

    def _verified_prefix(self, entries: list[_BlockEntry]) -> list[_BlockEntry]:
        good: list[_BlockEntry] = []
        for entry in entries:
            if not self._intact(entry):
                break
            good.append(entry)
        return good

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
        return os.pread(self._fh.fileno(), size, offset)

    def _block_head(self, offset: int) -> bytes:
        """The version-2 block header at ``offset`` with its stored
        lengths (short at the end of the file)."""
        return self._read_at(offset, _BLOCK_HEAD_V2)

    def _parse_layout(
        self, entry: _BlockEntry, head: bytes
    ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(per-segment codecs, stored lengths, payload offset) of block
        ``entry``'s header bytes ``head``, checked against the index entry
        and the file."""
        if len(head) < _BLOCK_HEAD_V2:
            raise TraceStoreCorruption(f"{self.path}: truncated block header")
        magic, codecs_word, n_pairs, _fingerprint = _BLOCK_HEADER.unpack_from(head)
        if magic != _BLOCK_MAGIC or n_pairs != entry.n_pairs:
            raise TraceStoreCorruption(
                f"{self.path}: block header at {entry.offset} disagrees with index"
            )
        lengths = struct.unpack_from(
            f"<{_N_SEGMENTS}Q", head, _BLOCK_HEADER.size
        )
        payload = entry.offset + _BLOCK_HEAD_V2
        codecs = tuple((codecs_word >> (8 * k)) & 0xFF for k in range(_N_SEGMENTS))
        # a row index leaves segment 1 empty; every other segment stores bytes
        stored = lengths[::2] if codecs[1] == _CODEC_ROW_INDEX else lengths
        if min(stored) < 1 or payload + sum(lengths) > self._size:
            raise TraceStoreCorruption(
                f"{self.path}: block at {entry.offset} stores segment "
                f"lengths {lengths} past the end of the file"
            )
        for codec, known in zip(codecs, _SEGMENT_CODECS):
            if codec not in known:
                raise TraceStoreCorruption(
                    f"{self.path}: unknown segment codec {codec}"
                )
        if _CODEC_ROW_INDEX in codecs[:2]:
            if codecs[:2] != (_CODEC_ROW_INDEX, _CODEC_ROW_INDEX):
                raise TraceStoreCorruption(
                    f"{self.path}: column codecs {codecs[:2]} index one column"
                )
            if codecs[2] != _CODEC_HISTOGRAM_ROWS:
                raise TraceStoreCorruption(
                    f"{self.path}: a row index beside a codec-{codecs[2]} "
                    "key segment has no histogram to index"
                )
            if lengths[1]:
                raise TraceStoreCorruption(
                    f"{self.path}: segment 1 of a row-indexed block stores "
                    f"{lengths[1]} bytes, not 0"
                )
        nbytes = entry.n_pairs * _ITEMSIZE
        for codec, length in zip(codecs, lengths):
            if codec == _CODEC_RAW and length != nbytes:
                raise TraceStoreCorruption(
                    f"{self.path}: raw segment length {length} != {nbytes}"
                )
        return codecs, lengths, payload

    def _layout(
        self, entry: _BlockEntry
    ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """:meth:`_parse_layout` of block ``entry`` — v2 only — parsed
        once: at open for a footer's blocks, else on first use."""
        layout = self._layouts.get(entry.offset)
        if layout is None:
            layout = self._parse_layout(entry, self._block_head(entry.offset))
            self._layouts[entry.offset] = layout
        return layout

    def _read_segment(self, entry: _BlockEntry, segment: int) -> np.ndarray:
        """One legacy column (segment 0 or 1) of a block that is not
        row-indexed: raw int64s read as they are, or a zlib column
        inflated, either refused unless it holds exactly the block's
        pairs."""
        self._check_open()
        nbytes = entry.n_pairs * _ITEMSIZE
        if self.version == _VERSION_RAW:
            data = entry.offset + _BLOCK_HEADER.size
            raw = self._read_at(data + segment * nbytes, nbytes)
        elif self._layout(entry)[0][segment] == _CODEC_RAW:
            raw = self._stored(entry, segment)
        else:
            raw = _inflate(self._stored(entry, segment), nbytes, self.path)
        if len(raw) != nbytes:
            raise TraceStoreCorruption(
                f"{self.path}: column segment does not hold exactly {nbytes} bytes"
            )
        return np.frombuffer(raw, dtype=_I8)

    def _stored(self, entry: _BlockEntry, segment: int) -> bytes:
        """The stored bytes of one of a version-2 block's segments."""
        _codecs, lengths, payload = self._layout(entry)
        return self._read_at(payload + sum(lengths[:segment]), lengths[segment])

    def _indexed(self, entry: _BlockEntry) -> bool:
        """Whether block ``entry``'s columns are a codec-4 row index."""
        return (
            self.version == _VERSION_CODECS
            and self._layout(entry)[0][0] == _CODEC_ROW_INDEX
        )

    def _row_keys(
        self, entry: _BlockEntry, histogram: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Row-indexed block ``entry``'s packed keys in pair order: each
        pair's row of the block's decoded ``histogram``."""
        keys, counts = histogram
        stored = self._stored(entry, 0)
        rows = _decode_row_index(stored, entry.n_pairs, counts, self.path)
        return _read_only(np.take(keys, rows))

    def _has_rows(self, entry: _BlockEntry) -> bool:
        """Whether block ``entry``'s key segment is codec 3."""
        return (
            self.version == _VERSION_CODECS
            and self._layout(entry)[0][2] == _CODEC_HISTOGRAM_ROWS
        )

    @property
    def histogram_rows(self) -> bool:
        """Whether this is a version-2 store whose every key segment is
        codec 3, so that no block's histogram is counted from its columns."""
        return self.version == _VERSION_CODECS and all(
            map(self._has_rows, self._entries)
        )

    def _key_histogram(
        self, entry: _BlockEntry
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Block ``entry``'s key histogram off its codec-3 key segment;
        None for a legacy key segment, which is never read."""
        if not self._has_rows(entry):
            return None
        self._check_open()
        return _decode_histogram_rows(self._stored(entry, 2), entry.n_pairs, self.path)

    def block(self, i: int) -> PairBlock:
        """Block ``i`` (``0 <= i < n_blocks``, else :class:`IndexError`).

        The block's memoized ``fingerprint`` and id validation are
        pre-seeded from the store, so mining and testing it never
        re-hashes or re-scans.  Its header and segment layout are
        checked here; its segments are read when first asked for —
        ``key_histogram()`` reads the key segment alone, and
        ``sources`` / ``repliers`` / ``packed_keys()`` the two columns.
        """
        entry = self._entry(i)
        if self.version == _VERSION_CODECS:
            self._layout(entry)
        return _StoreBlock(self, entry, i)

    def blocks(self) -> list[PairBlock]:
        """Every block at once, its keys read.

        For a caller that keeps the whole trace: a row-indexed block
        decodes its histogram and keys now, and a legacy block reads its
        columns, as :meth:`block` would on first use.  A legacy block's
        key histogram is still counted when first asked for.
        """
        self._check_open()
        held = list(self.iter_blocks())
        for block in held:
            block.packed_keys()
        return held

    def columns(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(sources, repliers) of block ``i``: split from its row index,
        or a legacy block's columns as stored."""
        block = self.block(i)
        return block.sources, block.repliers

    def iter_blocks(self) -> Iterator[PairBlock]:
        """Yield blocks in trace order, reading each only when asked."""
        for i in range(len(self._entries)):
            yield self.block(i)

    def describe_blocks(self) -> Iterator[dict]:
        """One row per block, as ``repro trace-inspect`` prints it: its
        pairs, segment codecs and stored lengths (a version-1 block's
        three raw columns), its key histogram's distinct keys ``d``, its
        row width (None without a row index), and whether it is intact
        on its own.  A block whose segments fail to decode has ``error``
        in place of ``d``."""
        self._check_open()
        for i, entry in enumerate(self._entries):
            row = {"block": i, "pairs": entry.n_pairs}
            try:
                if self.version == _VERSION_CODECS:
                    codecs, lengths, payload = self._layout(entry)
                else:
                    codecs = (_CODEC_RAW,) * _N_SEGMENTS
                    lengths = (entry.n_pairs * _ITEMSIZE,) * _N_SEGMENTS
                row.update(codecs=codecs, lengths=lengths, width=None)
                if codecs[0] == _CODEC_ROW_INDEX and lengths[0] >= _INDEX_HEAD.size:
                    row["width"] = self._read_at(payload, _INDEX_HEAD.size)[-1]
                block = self.block(i)
                block.packed_keys()  # decodes a row index too
                row["d"] = len(block.key_histogram()[0])
            except TraceStoreCorruption as exc:
                row["error"] = str(exc)
            row["intact"] = self._intact(entry)
            yield row

    def verify_blocks(self, *, strict: bool = False) -> int:
        """Re-check every visible block; returns how many are intact.

        A block is intact when its columns match its fingerprint and a
        codec-3 key segment's histogram is theirs.
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
