"""Hostile bytes into the decoders behind a store of record.

One seeded, structure-aware sweep per format — trace store v1 and v2 as
written before key segments were sorted, v1 as written before every
store held histograms, v2 as written before they were histograms, before
histograms were narrow rows, before zlib columns were a row index and
with raw columns before every store was row-indexed (the committed bytes
under ``tests/trace/data``), and v2 as written now, with targeted edits
of the narrow-rows histogram segment (codec 3, under a CRC) and of the
row index (codec 4, under a CRC) and its layout that must each raise,
and hostile legacy key segments (raw sorted keys, zlib keys, deflated
histograms) beside raw columns that must each be counted from the
columns, never read, pair WAL, snapshot (exact and lossy), the
RDG1 rule digest, the Prometheus text a cluster collector scrapes, the
query and reply TSV trace files of ``repro.trace.io``, one Gnutella
descriptor (``decode_message``) and a run of them through the live
servent's ``StreamDecoder.feed``, which must also never buffer more than
it was fed.  Every 4- and 8-byte field of the file header, the first block (or record) header and the trailer
is overwritten with each boundary value; then a fixed number of seeded
single-bit flips and truncations follow, and for the text formats seeded
edits of single lines.  Each outcome must be a valid decode or that
format's typed error — never a ``MemoryError``, ``OverflowError``,
``struct.error``, ``KeyError``, ``IndexError`` or any other exception
escaping the decoder.
"""

from __future__ import annotations

import random
import struct
import tracemalloc
import zlib
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.live.framing import StreamDecoder
from repro.network.hier.digest import (
    DigestEntry,
    DigestError,
    RuleDigest,
    decode_digest,
)
from repro.network.protocol import (
    PingMessage,
    PongMessage,
    ProtocolError,
    QueryHitMessage,
    QueryMessage,
    decode_message,
    encode_message,
    read_header,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.scrape import parse_histograms, parse_samples
from repro.persist.snapshot import (
    SnapshotError,
    load_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.persist.wal import WalError, WalWriter, read_wal, wal_header
from repro.trace.io import (
    iter_query_rows,
    iter_reply_rows,
    read_queries,
    read_replies,
    write_queries,
    write_replies,
)
from repro.trace.blocks import PairBlock
from repro.trace.records import QueryRecord, ReplyRecord
from repro.trace.store import (
    TraceStoreCorruption,
    TraceStoreError,
    TraceStoreReader,
    TraceStoreWriter,
)

#: overwrite values; a 4-byte field takes each masked to 32 bits.
VALUES = (0, 1, 2**32 - 1, 2**63 - 1, 2**64 - 1)
N_FLIPS = 128
N_TRUNCATIONS = 32
N_LINE_EDITS = 256
SEED = 2006
#: bytes in a Gnutella descriptor header.
_DESCRIPTOR_HEADER = 23


class Format(NamedTuple):
    build: Callable  # tmp_path -> valid file bytes
    fields: Callable  # bytes -> [(offset, width)]
    decode: Callable  # path -> None; reads everything the format serves
    error: type
    edits: Callable = lambda data: ()  # bytes -> [(label, mutated bytes)]


# -- trace store -----------------------------------------------------------
#: stores written before key segments were sorted (pair-order keys).
_LEGACY = Path(__file__).parent / "trace" / "data"


def _build_trace(tmp_path):
    rng = np.random.default_rng(1)
    sources = rng.integers(0, 50, size=300).astype(np.int64)
    repliers = rng.integers(100, 150, size=300).astype(np.int64)
    path = tmp_path / "valid.rptrace"
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(sources, repliers)
    return path.read_bytes()


def _legacy_trace(name):
    return lambda _tmp_path: (_LEGACY / name).read_bytes()


#: a version-1 store of 100-pair blocks with raw sorted key segments.
_V1_SORTED = _legacy_trace("parent_v1_sorted.rptrace")
#: block 0's key segment in a version-1 store of 100-pair blocks: after
#: the file header, the block header and the two columns.
_KEYS_AT = 32 + 32 + 2 * 100 * 8


def _key_segment_edits(data):
    """Edits of a version-1 store that leave block 0's key segment no
    valid sorted keys — never read, so the block is counted from its
    columns — and header flags that name neither or both segment
    orders."""
    keys = np.frombuffer(data, dtype="<i8", count=100, offset=_KEYS_AT).copy()
    swapped = keys.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    negative = keys.copy()
    negative[0] = -1
    wide_replier = keys.copy()
    wide_replier[-1] = (wide_replier[-1] >> 32 << 32) | (1 << 31)
    for label, edited in (
        ("swapped", swapped),
        ("negative first key", negative),
        ("replier half 2**31", wide_replier),
    ):
        out = bytearray(data)
        out[_KEYS_AT : _KEYS_AT + 800] = edited.tobytes()
        yield label, bytes(out)
    for flags in (0, 3):
        out = bytearray(data)
        struct.pack_into("<I", out, 12, flags)
        yield f"flags {flags}", bytes(out)


def _trace_fields(lengths):
    def fields(data):
        header = [(0, 8), (8, 4), (12, 4), (16, 8), (24, 8)]
        block = [(32, 4), (36, 4), (40, 8), (48, 8), (56, 8)]
        block += [(64 + 8 * k, 8) for k in range(lengths)]
        t = len(data) - 40
        trailer = [(t, 8), (t + 8, 8), (t + 16, 8), (t + 24, 8), (t + 32, 4), (t + 36, 4)]
        return header + block + trailer

    return fields


def _touch(block):
    """Read every byte a block serves (a bad mapping faults here)."""
    keys, counts = block.key_histogram()
    for column in (block.sources, block.repliers, block.packed_keys(), keys, counts):
        int(column.sum())


def _decode_trace(path):
    with TraceStoreReader(path) as reader:
        for i in range(reader.n_blocks):
            _touch(reader.block(i))
        for block in reader.blocks():
            _touch(block)
        reader.verify_blocks()
    with TraceStoreReader(path, verify=True) as reader:
        for block in reader.iter_blocks():
            _touch(block)


# -- write-ahead log -------------------------------------------------------
def _build_wal(tmp_path):
    path = str(tmp_path / "valid.wal")
    writer = WalWriter(path, fsync="never")
    for k in range(12):
        writer.append(k % 4, 100 + k % 3)
    writer.close()
    return open(path, "rb").read()


def _wal_fields(data):
    s = len(data)
    return [(0, 4), (4, 4), (0, 8), (8, 4), (12, 4), (16, 8), (24, 8)] + [
        (s - 24, 4),
        (s - 20, 4),
        (s - 16, 8),
        (s - 8, 8),
    ]


def _decode_wal(path):
    read_wal(str(path))
    wal_header(str(path))


# -- snapshot ----------------------------------------------------------------
def _build_snapshot(backend):
    def build(tmp_path):
        rules = StreamingRules(
            min_support_count=2, window_pairs=64, backend=backend, epsilon=0.01
        )
        counts = rules.make_counts()
        for k in range(60):
            counts.observe(k % 5, 100 + k % 3)
        path = str(tmp_path / "valid.snap")
        write_snapshot(path, counts, meta={"node": "wall"})
        return open(path, "rb").read()

    return build


def _snapshot_fields(data):
    (header_len,) = struct.unpack_from("<I", data, 8)
    s = len(data)
    payload = 16 + header_len
    return [(0, 4), (4, 4), (0, 8), (8, 4), (12, 4), (16, 4), (16, 8)] + [
        (payload, 8),
        (s - 8, 8),
        (s - 4, 4),
    ]


def _decode_snapshot(path):
    load_snapshot(str(path))
    read_snapshot_header(str(path))


# -- RDG1 digest -------------------------------------------------------------
def _build_digest(_tmp_path):
    entries = [DigestEntry(c, 10 + c % 3, 5 + c) for c in range(6)]
    return RuleDigest(origin=3, epoch=9, total=400, entries=entries).encode()


def _digest_fields(data):
    return [(0, 4), (4, 4), (8, 4), (12, 8), (20, 4)] + [
        (24, 4),
        (28, 4),
        (32, 8),
        (len(data) - 4, 4),
    ]


def _decode_digest(path):
    decode_digest(path.read_bytes())


# -- Prometheus text exposition ----------------------------------------------
def _build_exposition(_tmp_path):
    registry = MetricsRegistry()
    frames = registry.counter("repro_frames_total", "frames", ("node", "direction"))
    frames.labels("0", "in").inc(10)
    frames.labels("0", "out").inc(5)
    events = registry.counter("repro_peer_events_total", "events", ("peer",))
    events.labels('a"b\\c\nd').inc()  # every escape the format has
    decode = registry.histogram("repro_decode_seconds", "decode", ("node",))
    decode.labels("0").observe(0.5)
    return registry.render().encode("utf-8")


#: bytes the exposition grammar gives a meaning to.
_SYNTAX = b'{}=",\\ #\n'


def _line_edits(data, syntax=_SYNTAX):
    """Seeded edits of one line each: a byte dropped, doubled or replaced
    by a syntax byte, or the line cut short."""
    lines = data.split(b"\n")
    rng = random.Random(SEED)
    for _ in range(N_LINE_EDITS):
        k = rng.randrange(len(lines))
        line = lines[k]
        at = rng.randrange(len(line) + 1)
        kind = rng.choice(("drop", "double", "replace", "cut"))
        if kind == "drop":
            line = line[:at] + line[at + 1 :]
        elif kind == "double":
            line = line[:at] + line[at : at + 1] * 2 + line[at + 1 :]
        elif kind == "replace":
            line = line[:at] + bytes([rng.choice(syntax)]) + line[at + 1 :]
        else:
            line = line[:at]
        mutated = b"\n".join([*lines[:k], line, *lines[k + 1 :]])
        yield f"line {k}: {kind} at {at}", mutated


def _decode_exposition(path):
    text = path.read_bytes().decode("utf-8")
    parse_samples(text)
    parse_histograms(text)


# -- TSV query and reply trace files ------------------------------------------
#: bytes the TSV rows give a meaning to: separators, signs, number syntax.
_TSV_SYNTAX = b"\t\n\r-+.e_0123456789 "


def _build_queries(tmp_path):
    path = tmp_path / "valid.queries.tsv"
    write_queries(
        path,
        [
            QueryRecord(0.5, 2**128 - 1, 2**63 - 1, "kw0001 kw0002"),
            QueryRecord(1.25, 7, 0, "caf\u00e9\rmix"),
            QueryRecord(3.0, 1 << 64, 12, ""),
        ],
    )
    return path.read_bytes()


def _build_replies(tmp_path):
    path = tmp_path / "valid.replies.tsv"
    write_replies(
        path,
        [
            ReplyRecord(0.75, 2**128 - 1, 3, 2**63 - 1, "kw0001.mp3"),
            ReplyRecord(2.0, 7, 0, 4, "two words \u00e9.ogg"),
        ],
    )
    return path.read_bytes()


def _decode_queries(path):
    read_queries(path).records()
    list(iter_query_rows(path))


def _decode_replies(path):
    read_replies(path).records()
    list(iter_reply_rows(path))


def _tsv_edits(data):
    return _line_edits(data, _TSV_SYNTAX)


# -- Gnutella descriptors and the live stream decoder -------------------------
_GUIDS = (0x0123456789ABCDEF0123456789ABCDEF, 7, 2**128 - 1, 1 << 64)
_PAYLOADS = (
    PingMessage(),
    PongMessage(port=6346, ip="10.0.0.1", n_files=12, n_kilobytes=4096),
    QueryMessage(min_speed=0, search="kw0001 kw0002"),
    QueryHitMessage(
        port=6346,
        ip="192.168.1.9",
        speed=56,
        file_index=3,
        file_size=1 << 20,
        file_name="kw0001.mp3",
        servent_guid=2**127 + 5,
    ),
)


def _build_descriptor(_tmp_path):
    """One QueryHit: the payload with the most fields to get wrong."""
    return encode_message(_GUIDS[0], 7, 0, _PAYLOADS[-1])


def _build_stream(_tmp_path):
    return b"".join(
        encode_message(guid, 7, hops, payload)
        for hops, (guid, payload) in enumerate(zip(_GUIDS, _PAYLOADS))
    )


def _descriptor_fields(data):
    """Each descriptor's GUID halves, type/TTL/hops and length; the tail."""
    fields, at = [], 0
    while at + _DESCRIPTOR_HEADER <= len(data):
        fields += [(at, 8), (at + 8, 8), (at + 16, 4), (at + 19, 4)]
        at += _DESCRIPTOR_HEADER + read_header(data, at)[4]
    s = len(data)
    return fields + [(s - 20, 4), (s - 16, 8), (s - 8, 8)]


def _decode_descriptor(path):
    decode_message(path.read_bytes())


def _decode_stream(path):
    """Whole, in 7-byte chunks and byte by byte; what the decoder buffers
    never exceeds what it was fed, nor one header plus the payload cap."""
    data = path.read_bytes()
    for chunk in (max(len(data), 1), 7, 1):
        decoder = StreamDecoder()
        cap = _DESCRIPTOR_HEADER + decoder.max_payload_length
        for fed in range(chunk, len(data) + chunk, chunk):
            decoder.feed(data[fed - chunk : fed])
            if decoder.pending > min(fed, len(data), cap):
                raise AssertionError(f"{decoder.pending} bytes buffered after {fed}")


FORMATS = {
    "trace-v1": Format(
        _legacy_trace("parent_v1.rptrace"),
        _trace_fields(0),
        _decode_trace,
        TraceStoreError,
    ),
    "trace-v2": Format(
        _legacy_trace("parent_v2_zlib.rptrace"),
        _trace_fields(3),
        _decode_trace,
        TraceStoreError,
    ),
    "trace-v1-sorted": Format(
        _V1_SORTED,
        _trace_fields(0),
        _decode_trace,
        TraceStoreError,
        _key_segment_edits,
    ),
    "trace-v2-raw": Format(
        _legacy_trace("parent_v2_raw.rptrace"),
        _trace_fields(3),
        _decode_trace,
        TraceStoreError,
    ),
    "trace-v2-sorted": Format(
        _build_trace, _trace_fields(3), _decode_trace, TraceStoreError
    ),
    "trace-v2-sorted-zlib": Format(
        _legacy_trace("parent_v2_sorted_zlib.rptrace"),
        _trace_fields(3),
        _decode_trace,
        TraceStoreError,
    ),
    "trace-v2-histogram": Format(
        _legacy_trace("parent_v2_histogram.rptrace"),
        _trace_fields(3),
        _decode_trace,
        TraceStoreError,
    ),
    "trace-v2-rows-zlib": Format(
        _legacy_trace("parent_v2_rows_zlib.rptrace"),
        _trace_fields(3),
        _decode_trace,
        TraceStoreError,
    ),
    "wal": Format(_build_wal, _wal_fields, _decode_wal, WalError),
    "snapshot-exact": Format(
        _build_snapshot("exact"), _snapshot_fields, _decode_snapshot, SnapshotError
    ),
    "snapshot-lossy": Format(
        _build_snapshot("lossy"), _snapshot_fields, _decode_snapshot, SnapshotError
    ),
    "digest": Format(_build_digest, _digest_fields, _decode_digest, DigestError),
    "scrape": Format(
        _build_exposition, lambda data: [], _decode_exposition, ValueError, _line_edits
    ),
    "tsv-queries": Format(
        _build_queries, lambda data: [], _decode_queries, ValueError, _tsv_edits
    ),
    "tsv-replies": Format(
        _build_replies, lambda data: [], _decode_replies, ValueError, _tsv_edits
    ),
    "descriptor": Format(
        _build_descriptor, _descriptor_fields, _decode_descriptor, ProtocolError
    ),
    "stream": Format(_build_stream, _descriptor_fields, _decode_stream, ProtocolError),
}


def mutations(data: bytes, fields):
    """(label, mutated bytes): field overwrites, then seeded flips and cuts."""
    for offset, width in fields:
        fmt = "<I" if width == 4 else "<Q"
        for value in sorted({v & ((1 << 8 * width) - 1) for v in VALUES}):
            out = bytearray(data)
            struct.pack_into(fmt, out, offset, value)
            yield f"{width}-byte field at {offset} = {value}", bytes(out)
    rng = random.Random(SEED)
    for _ in range(N_FLIPS):
        bit = rng.randrange(len(data) * 8)
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(out)
    for _ in range(N_TRUNCATIONS):
        cut = rng.randrange(len(data))
        yield f"truncated to {cut} bytes", data[:cut]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_mutation_decodes_or_raises_the_typed_error(tmp_path, name):
    fmt = FORMATS[name]
    data = fmt.build(tmp_path)
    fmt.decode(_write(tmp_path, data))  # the unmutated file is valid
    escapes = []
    for label, mutated in chain(mutations(data, fmt.fields(data)), fmt.edits(data)):
        path = _write(tmp_path, mutated)
        try:
            fmt.decode(path)
        except fmt.error:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize("edit", ["flags 0", "flags 3"])
def test_key_segment_edits_raise(tmp_path, edit):
    """A header that names neither or both key-segment orders is refused
    with the typed error, never served."""
    data = _V1_SORTED(tmp_path)
    (mutated,) = [out for label, out in _key_segment_edits(data) if label == edit]
    with pytest.raises(TraceStoreError):
        _decode_trace(_write(tmp_path, mutated))


def _zlib_bomb(n_bytes):
    """A valid zlib stream of ``n_bytes`` zeros, deflated a MiB at a time."""
    deflate = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    parts = [deflate.compress(chunk) for _ in range(n_bytes >> 20)]
    return b"".join([*parts, deflate.flush()])


#: the one block's sorted keys: sources 0..99, each to replier 7.
_ONE_BLOCK_KEYS = np.arange(100, dtype=np.int64) << 32 | 7
#: the one block's two columns as raw int64 segments (codec 0).
_ONE_BLOCK_SOURCES = np.arange(100, dtype="<i8").tobytes()
_ONE_BLOCK_REPLIERS = np.full(100, 7, dtype="<i8").tobytes()


def _histogram_rows(*edits):
    """The one block's histogram as a legacy codec-2 segment holds it
    before deflation — each key's step from the one before, then each
    key's count — after each ``(column, at, value)`` edit, where column 0
    is the steps and 1 the counts."""
    rows = np.concatenate(
        (np.diff(_ONE_BLOCK_KEYS, prepend=0), np.ones(100, dtype=np.int64))
    )
    for column, at, value in edits:
        rows[100 * column + at] = value
    return rows.astype("<i8").tobytes()


def _narrow_rows(*edits, rows=100, widths=(1, 1, 1)):
    """The one block's histogram as a codec-3 segment holds it after its
    CRC — the three plane widths, then ``rows`` source steps, repliers
    and counts — after each ``(plane, at, value)`` edit, where plane 0 is
    the steps, 1 the repliers and 2 the counts."""
    planes = [
        np.diff(np.arange(rows, dtype=np.int64), prepend=0),
        np.full(rows, 7, dtype=np.int64),
        np.ones(rows, dtype=np.int64),
    ]
    for plane, at, value in edits:
        planes[plane][at] = value
    return bytes(widths) + b"".join(
        plane.astype(f"<u{width}").tobytes() for width, plane in zip(widths, planes)
    )


def _with_crc(body):
    """A codec-3 segment: ``body`` after its CRC-32."""
    return struct.pack("<I", zlib.crc32(body)) + body


def _pairs_store(tmp_path, n_blocks=1, codec="zlib"):
    """The bytes of a store of ``n_blocks`` 100-pair blocks, each sources
    0..99 to replier 7: as the writer writes it, or, with ``codec=None``,
    as earlier releases wrote it raw — each block's row index spliced out
    for its two int64 columns (codec 0)."""
    path = tmp_path / "one-block.rptrace"
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(
            np.tile(np.arange(100, dtype=np.int64), n_blocks),
            np.full(100 * n_blocks, 7, dtype=np.int64),
        )
    data = path.read_bytes()
    if codec is None:
        for block in range(n_blocks):
            data = _with_segment(data, 0, _ONE_BLOCK_SOURCES, 0, block)
            data = _with_segment(data, 1, _ONE_BLOCK_REPLIERS, 0, block)
    return data


def _with_segment(data, segment, stored, codec=None, block=0):
    """``data`` with block ``block``'s segment ``segment`` replaced by
    ``stored`` and, unless ``codec`` is None, its codec byte set to
    ``codec``."""
    # each block: header, three segment lengths, segments; every later
    # block, the index and the trailer move by the change
    head = 32
    for _ in range(block):
        head += 56 + sum(struct.unpack_from("<3Q", data, head + 32))
    codecs = struct.unpack_from("<I", data, head + 4)[0]
    lengths = struct.unpack_from("<3Q", data, head + 32)
    at = head + 56 + sum(lengths[:segment])
    shift = len(stored) - lengths[segment]
    out = bytearray(data[:at] + stored + data[at + lengths[segment] :])
    if codec is not None:
        byte = 8 * segment
        word = codecs & ~(0xFF << byte) | codec << byte
        struct.pack_into("<I", out, head + 4, word)
    struct.pack_into("<Q", out, head + 32 + 8 * segment, len(stored))
    t = len(out) - 40
    index_offset = struct.unpack_from("<Q", out, t + 8)[0] + shift
    for at in range(index_offset + 32 * (block + 1), t, 32):
        struct.pack_into("<Q", out, at, struct.unpack_from("<Q", out, at)[0] + shift)
    struct.pack_into("<Q", out, t + 8, index_offset)
    struct.pack_into("<I", out, t + 32, zlib.crc32(out[index_offset:t]))
    return bytes(out)


def _one_block_store(tmp_path, key_segment, codec=1, n_blocks=1):
    """A store of :func:`_pairs_store`'s blocks whose block 0 key
    segment is replaced by ``key_segment(plain)`` under segment codec
    ``codec``: ``plain`` is the sorted keys for codec 1, the histogram
    rows for 2 — each then a zlib stream, as earlier releases wrote,
    beside raw columns — and the narrow rows after their CRC for 3,
    beside a zlib store's row index."""
    data = _pairs_store(tmp_path, n_blocks, "zlib" if codec == 3 else None)
    plain = {
        1: _ONE_BLOCK_KEYS.astype("<i8").tobytes(),
        2: _histogram_rows(),
        3: _narrow_rows(),
    }[codec]
    return _with_segment(data, 2, key_segment(plain), codec)


#: one hostile edit per check the deleted codec-2 decoder made, each a
#: stream that inflates and ends within the block's bound.
_HISTOGRAM_EDITS = {
    "no rows": b"",
    "negative first key": _histogram_rows((0, 0, -1)),
    "repeated key": _histogram_rows((0, 1, 0)),
    "falling key": _histogram_rows((0, 1, -1)),
    "key wraps int64": _histogram_rows((0, 1, 2**63 - 1)),
    "zero count": _histogram_rows((1, 0, 0), (1, 1, 2)),
    "negative count": _histogram_rows((1, 0, -1), (1, 1, 3)),
    "counts sum past the block": _histogram_rows((1, 0, 2)),
    # 2 * (2**63 - 1) + 5 + 97 ones wraps int64 to exactly 100
    "counts wrap to the block": _histogram_rows(
        (1, 0, 2**63 - 1), (1, 1, 2**63 - 1), (1, 2, 5)
    ),
    "replier half 2**31": _histogram_rows((0, 99, (1 << 32) - 7 + 2**31)),
}


def _legacy_segment(codec, key_segment):
    return lambda tmp_path: _one_block_store(tmp_path, key_segment, codec, n_blocks=2)


def _edited_v1(label):
    return lambda tmp_path: dict(_key_segment_edits(_V1_SORTED(tmp_path)))[label]


#: hostile key segments of each legacy form: a codec-1 (zlib keys) or
#: codec-2 (deflated histogram) segment that is a 64 MiB bomb, a stream
#: cut before its end, short or long, each codec-2 edit, and each edit
#: of a version-1 store's raw sorted keys.
_LEGACY_KEY_SEGMENTS = {
    "codec 1 bomb": _legacy_segment(1, lambda _keys: _zlib_bomb(64 << 20)),
    "codec 1 cut before its end": _legacy_segment(
        1, lambda keys: zlib.compress(keys)[:-4]
    ),
    "codec 1 a key short": _legacy_segment(1, lambda keys: zlib.compress(keys[:-8])),
    "codec 1 a key long": _legacy_segment(
        1, lambda keys: zlib.compress(keys + keys[-8:])
    ),
    "codec 2 bomb": _legacy_segment(2, lambda _rows: _zlib_bomb(64 << 20)),
    "codec 2 cut before its end": _legacy_segment(
        2, lambda rows: zlib.compress(rows)[:-4]
    ),
    "codec 2 half a row short": _legacy_segment(
        2, lambda rows: zlib.compress(rows[:-8])
    ),
    "codec 2 a row long": _legacy_segment(
        2, lambda rows: zlib.compress(rows + rows[-16:])
    ),
    **{
        f"codec 2 {edit}": _legacy_segment(
            2, lambda _rows, rows=rows: zlib.compress(rows)
        )
        for edit, rows in _HISTOGRAM_EDITS.items()
    },
    **{
        f"version 1 {label}": _edited_v1(label)
        for label in ("swapped", "negative first key", "replier half 2**31")
    },
}
_STRATEGIES = (StaticRuleset, SlidingWindow, LazySlidingWindow, AdaptiveSlidingWindow)


@pytest.mark.parametrize("case", sorted(_LEGACY_KEY_SEGMENTS))
def test_a_legacy_key_segment_is_counted_from_the_columns(tmp_path, case):
    """A legacy key segment, however hostile, is never read: the store
    serves its columns' histogram and runs, every block verifies, and a
    bomb inflates nothing (a traced peak under 2 MiB)."""
    path = _write(tmp_path, _LEGACY_KEY_SEGMENTS[case](tmp_path))
    tracemalloc.start()
    try:
        with TraceStoreReader(path) as reader:
            assert not reader.recovered and not reader.histogram_rows
            assert reader.verify_blocks(strict=True) == reader.n_blocks
            memory = [
                PairBlock(np.array(b.sources), np.array(b.repliers), index=b.index)
                for b in reader.iter_blocks()
            ]
            for block, want in zip(reader.iter_blocks(), memory):
                oracle = np.unique(want.packed_keys(), return_counts=True)
                for got, expected in zip(block.key_histogram(), oracle):
                    np.testing.assert_array_equal(got, expected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    for run_on in [cls().run for cls in _STRATEGIES] + [
        StreamingRules(backend=backend).run for backend in ("exact", "lossy")
    ]:
        with TraceStoreReader(path) as reader:
            assert run_on(reader.iter_blocks()) == run_on(memory)


def test_an_unedited_rows_segment_is_served(tmp_path):
    """The codec-3 segment the edits below start from is the block's
    histogram: read, it is the block's keys once each, and it verifies."""
    data = _one_block_store(tmp_path, _with_crc, codec=3)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        keys, counts = reader.block(0).key_histogram()
        np.testing.assert_array_equal(keys, _ONE_BLOCK_KEYS)
        np.testing.assert_array_equal(counts, np.ones(100))
        assert reader.verify_blocks(strict=True) == 1


_ROWS = _narrow_rows()
#: one hostile edit per check of the codec-3 decoder, and the message of
#: the check that must refuse it; each but the flipped byte carries its
#: own CRC, so the CRC check passes it on.
_ROWS_EDITS = {
    "width 0": (_with_crc(b"\x00" + _ROWS[1:]), "widths"),
    "width 3": (_with_crc(_ROWS[:1] + b"\x03" + _ROWS[2:]), "widths"),
    "width 8": (_with_crc(_ROWS[:2] + b"\x08" + _ROWS[3:]), "widths"),
    "partial row": (_with_crc(_ROWS + b"\x00"), "not whole rows"),
    "zero rows": (_with_crc(_ROWS[:3]), "holds 0 rows"),
    "more rows than pairs": (_with_crc(_narrow_rows(rows=101)), "holds 101 rows"),
    "source half 2**31": (
        _with_crc(_narrow_rows((0, 99, 2**31 - 98), widths=(4, 1, 1))),
        "keys are not",
    ),
    "replier half 2**31": (
        _with_crc(_narrow_rows((1, 99, 2**31), widths=(1, 4, 1))),
        "replier id",
    ),
    "repeated key": (_with_crc(_narrow_rows((0, 1, 0))), "keys are not"),
    "falling replier": (
        _with_crc(_narrow_rows((0, 1, 0), (1, 1, 6))),
        "keys are not",
    ),
    "zero count": (_with_crc(_narrow_rows((2, 0, 0), (2, 1, 2))), "counts are not"),
    "counts sum past the block": (
        _with_crc(_narrow_rows((2, 0, 2))),
        "counts are not",
    ),
    # row 50's replier 7 -> 6: a histogram every other check would serve
    "flipped byte": (
        _with_crc(_ROWS)[:4] + _ROWS[:153] + b"\x06" + _ROWS[154:],
        "CRC",
    ),
}


@pytest.mark.parametrize("edit", sorted(_ROWS_EDITS))
def test_a_rows_segment_edit_raises(tmp_path, edit):
    """Every check of the codec-3 decoder refuses its edit with the typed
    error, on a read and on verification."""
    stored, message = _ROWS_EDITS[edit]
    data = _one_block_store(tmp_path, lambda _rows: stored, codec=3)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        with pytest.raises(TraceStoreCorruption, match=message):
            reader.block(0).key_histogram()
        assert reader.verify_blocks() == 0


def _segment(data, segment):
    """Block 0's stored segment ``segment``."""
    lengths = struct.unpack_from("<3Q", data, 64)
    at = 88 + sum(lengths[:segment])
    return data[at : at + lengths[segment]]


#: the one block's row index as its codec-4 segment holds it after the
#: CRC: the width byte, then each pair's row (pair k holds key k, once).
_INDEX = b"\x01" + bytes(range(100))


def _index_segment(body):
    return lambda data: _with_segment(data, 0, _with_crc(body))


#: one hostile edit per check of the codec-4 layout and decoder, and the
#: message of the check that must refuse it.  Each index carries its own
#: CRC but the swapped rows: one changed row changes the counts, two
#: swapped rows keep them, so only the CRC can refuse those.
_INDEX_EDITS = {
    "no head": (lambda data: _with_segment(data, 0, bytes(4)), "has no head"),
    "width 0": (_index_segment(b"\x00" + _INDEX[1:]), "index width 0 is not"),
    "width 3": (_index_segment(b"\x03" + _INDEX[1:]), "index width 3 is not"),
    "width 8": (_index_segment(b"\x08" + _INDEX[1:]), "index width 8 is not"),
    "short plane": (_index_segment(_INDEX[:-1]), "is not 100 rows"),
    "long plane": (_index_segment(_INDEX + b"\x00"), "is not 100 rows"),
    "row equal to d": (
        _index_segment(_INDEX[:6] + b"\x64" + _INDEX[7:]),
        "index row 100 is past the histogram's 100 rows",
    ),
    "counts disagree": (
        _index_segment(_INDEX[:6] + b"\x04" + _INDEX[7:]),
        "do not count the histogram's counts",
    ),
    "segment 1 not empty": (
        lambda data: _with_segment(data, 1, bytes(8)),
        "segment 1 of a row-indexed block stores 8 bytes",
    ),
    "segment 0 not indexed": (
        lambda data: _with_segment(data, 0, _segment(data, 0), codec=0),
        "index one column",
    ),
    "beside a codec-1 key segment": (
        lambda data: _with_segment(data, 2, _segment(data, 2), codec=1),
        "beside a codec-1 key segment",
    ),
    "rows swapped under the old CRC": (
        lambda data: _with_segment(
            data, 0, _with_crc(_INDEX)[:4] + _INDEX[:1] + b"\x01\x00" + _INDEX[3:]
        ),
        "index segment fails its CRC",
    ),
}


def test_an_unedited_index_segment_is_served(tmp_path):
    """The codec-4 segment the edits below start from is what they
    think: served, it is the block's keys in pair order, and it
    verifies."""
    data = _pairs_store(tmp_path)
    assert _segment(data, 0) == _with_crc(_INDEX) and not _segment(data, 1)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        block = reader.block(0)
        np.testing.assert_array_equal(block.packed_keys(), _ONE_BLOCK_KEYS)
        np.testing.assert_array_equal(block.sources, np.arange(100))
        np.testing.assert_array_equal(block.repliers, np.full(100, 7))
        assert reader.verify_blocks(strict=True) == 1


@pytest.mark.parametrize("edit", sorted(_INDEX_EDITS))
def test_an_index_segment_edit_raises(tmp_path, edit):
    """Every check of the codec-4 layout and decoder refuses its edit
    with the typed error, on a read and on verification."""
    change, message = _INDEX_EDITS[edit]
    data = change(_pairs_store(tmp_path))
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        with pytest.raises(TraceStoreCorruption, match=message):
            reader.block(0).packed_keys()
        assert reader.verify_blocks() == 0


def _recount(data, block, n_pairs):
    """``data`` with its footer saying block ``block`` holds ``n_pairs``
    pairs, the total and the index CRC rewritten to match."""
    out = bytearray(data)
    t = len(out) - 40
    index_offset, _n_blocks, total = struct.unpack_from("<QQQ", out, t + 8)
    at = index_offset + 32 * block + 8
    (was,) = struct.unpack_from("<Q", out, at)
    struct.pack_into("<Q", out, at, n_pairs)
    struct.pack_into("<Q", out, t + 24, total - was + n_pairs)
    struct.pack_into("<I", out, t + 32, zlib.crc32(out[index_offset:t]))
    return bytes(out)


@pytest.mark.parametrize(
    "build, n_pairs",
    [
        (_V1_SORTED, 0),
        (_V1_SORTED, 50),
        (_build_trace, 0),
        (_build_trace, 50),
    ],
    ids=["v1-0", "v1-50", "v2-0", "v2-50"],
)
def test_a_footer_that_miscounts_a_block_is_not_trusted(tmp_path, build, n_pairs):
    """A CRC-valid footer whose pair count for block 1 is not the block's
    falls back to the verifying scan, which serves every block as
    written — never half of one column as another, or an empty block."""
    data = build(tmp_path)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        want = [(np.array(b.sources), np.array(b.repliers)) for b in reader.blocks()]
    with TraceStoreReader(_write(tmp_path, _recount(data, 1, n_pairs))) as reader:
        assert reader.recovered
        assert reader.block_pairs() == [100, 100, 100]
        for block, (sources, repliers) in zip(reader.iter_blocks(), want):
            np.testing.assert_array_equal(block.sources, sources)
            np.testing.assert_array_equal(block.repliers, repliers)
            assert block.key_histogram()[1].sum() == 100


def _skip(data, block):
    """``data`` with its footer's entry for block ``block`` left out, the
    block count, total and index CRC rewritten to match."""
    t = len(data) - 40
    magic, index_offset, n_blocks, total, _crc, version = struct.unpack_from(
        "<8sQQQII", data, t
    )
    index = bytearray(data[index_offset:t])
    (n_pairs,) = struct.unpack_from("<Q", index, 32 * block + 8)
    del index[32 * block : 32 * (block + 1)]
    trailer = struct.pack(
        "<8sQQQII",
        magic,
        index_offset,
        n_blocks - 1,
        total - n_pairs,
        zlib.crc32(index),
        version,
    )
    return data[:index_offset] + bytes(index) + trailer


@pytest.mark.parametrize("build", [_V1_SORTED, _build_trace], ids=["v1", "v2"])
def test_a_footer_that_skips_a_block_is_not_trusted(tmp_path, build):
    """A CRC-valid footer that leaves block 1 out does not tile the file,
    so the verifying scan serves all three blocks."""
    data = _skip(build(tmp_path), 1)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        assert reader.recovered
        assert reader.block_pairs() == [100, 100, 100]
        assert reader.verify_blocks(strict=True) == 3


def _write(tmp_path, data):
    path = tmp_path / "mutant.bin"
    path.write_bytes(data)
    return path
