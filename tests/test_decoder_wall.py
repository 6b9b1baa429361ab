"""Hostile bytes into the decoders behind a store of record.

One seeded, structure-aware sweep per format — the trace store in its
one layout, whose every decode stays under a traced 2 MiB peak, with
targeted edits of the narrow-rows histogram segment (codec 3, under a
CRC) and of the row index (codec 4, under a CRC) that must each raise,
and of the trailer that must each open the store recovered; every form
an earlier release wrote (the committed bytes under
``tests/trace/data``, and key segments that are 64 MiB zlib bombs)
refused when the store is opened, having inflated nothing; pair WAL, snapshot (exact and lossy), the
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
    peak: int | None = None  # bytes a decode's traced peak stays under


# -- trace store -----------------------------------------------------------
#: stores in the forms earlier releases wrote, each refused at open.
_LEGACY = Path(__file__).parent / "trace" / "data"


def _build_trace(tmp_path):
    rng = np.random.default_rng(1)
    sources = rng.integers(0, 50, size=300).astype(np.int64)
    repliers = rng.integers(100, 150, size=300).astype(np.int64)
    path = tmp_path / "valid.rptrace"
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(sources, repliers)
    return path.read_bytes()


def _trace_fields(data):
    header = [(0, 8), (8, 8), (16, 8), (24, 8)]
    block = [(32, 4), (36, 4), (40, 8), (48, 8), (56, 8), (64, 8)]
    t = len(data) - 24
    return header + block + [(t, 8), (t + 8, 8), (t + 16, 8)]


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
    "trace-store": Format(
        _build_trace, _trace_fields, _decode_trace, TraceStoreError, peak=2 << 20
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
    if fmt.peak is not None:
        tracemalloc.start()
    try:
        for label, mutated in chain(
            mutations(data, fmt.fields(data)), fmt.edits(data)
        ):
            path = _write(tmp_path, mutated)
            tracemalloc.reset_peak()
            try:
                fmt.decode(path)
            except fmt.error:
                pass
            except Exception as exc:  # noqa: BLE001 - the escape is the finding
                escapes.append(f"{label}: {type(exc).__name__}: {exc}")
            if fmt.peak is not None:
                peak = tracemalloc.get_traced_memory()[1]
                if peak >= fmt.peak:
                    escapes.append(f"{label}: a traced peak of {peak:,} bytes")
    finally:
        tracemalloc.stop()
    assert not escapes, "\n".join(escapes)


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


def _pairs_store(tmp_path, n_blocks=1):
    """The bytes of a store of ``n_blocks`` 100-pair blocks, each sources
    0..99 to replier 7, as the writer writes it."""
    path = tmp_path / "one-block.rptrace"
    with TraceStoreWriter(path, block_size=100) as writer:
        writer.append(
            np.tile(np.arange(100, dtype=np.int64), n_blocks),
            np.full(100 * n_blocks, 7, dtype=np.int64),
        )
    return path.read_bytes()


def _with_segment(data, segment, stored, block=0):
    """``data`` with block ``block``'s segment ``segment`` (0 the index,
    1 the histogram) replaced by ``stored``, and its header's stored
    length set to match."""
    # each block: a 40-byte header ending in its two stored lengths, then
    # its segments; every later block and the trailer move by the change
    head = 32
    for _ in range(block):
        head += 40 + sum(struct.unpack_from("<2Q", data, head + 24))
    lengths = struct.unpack_from("<2Q", data, head + 24)
    at = head + 40 + sum(lengths[:segment])
    out = bytearray(data[:at] + stored + data[at + lengths[segment] :])
    struct.pack_into("<Q", out, head + 24 + 8 * segment, len(stored))
    return bytes(out)


def _one_block_store(tmp_path, key_segment):
    """A store of one of :func:`_pairs_store`'s blocks whose histogram
    segment is replaced by ``key_segment(rows)``, where ``rows`` are the
    block's narrow rows before their CRC."""
    return _with_segment(_pairs_store(tmp_path), 1, key_segment(_narrow_rows()))


def _parent_layout_bomb(codec):
    """A one-block store in the layout the previous release wrote
    (version 2, header flags 0x2, a codec word in each block header and
    a stored length per segment of three) whose raw columns (codec 0) sit
    beside a key segment that is a 64 MiB zlib bomb under ``codec``."""
    segments = (_ONE_BLOCK_SOURCES, _ONE_BLOCK_REPLIERS, _zlib_bomb(64 << 20))
    return (
        struct.pack("<8sIIQQ", b"RPTRACE1", 2, 2, 100, 0)
        + struct.pack("<4sIQ16s", b"RPTB", codec << 16, 100, bytes(16))
        + struct.pack("<3Q", *map(len, segments))
        + b"".join(segments)
    )


#: every form an earlier release wrote, each refused at open: the
#: committed stores, and stores in the previous release's layout whose
#: key segment is a 64 MiB zlib bomb under codec 1 (sorted keys) and
#: codec 2 (a deflated histogram).
_REFUSED = sorted(p.name for p in _LEGACY.glob("parent_*.rptrace"))
_REFUSED += ["codec 1 bomb", "codec 2 bomb"]


def _refused_bytes(case):
    if case.endswith(".rptrace"):
        return (_LEGACY / case).read_bytes()
    return _parent_layout_bomb(int(case.split()[1]))


@pytest.mark.parametrize("case", _REFUSED)
def test_a_legacy_store_is_refused(tmp_path, case):
    """A store in a form an earlier release wrote is refused when it is
    opened, with the typed error itself (not a corruption), naming its
    version and how to regenerate it — and reads no block, so a bomb
    inflates nothing (a traced peak under 2 MiB)."""
    path = _write(tmp_path, _refused_bytes(case))
    tracemalloc.start()
    try:
        with pytest.raises(TraceStoreError, match="store version 0x") as refusal:
            TraceStoreReader(path)
        with pytest.raises(TraceStoreError, match=r", not 0x3: "):
            TraceStoreReader(path, verify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refusal.type is TraceStoreError
    assert "regenerate the trace with `repro tracegen`" in str(refusal.value)
    assert peak < 2 << 20


def test_an_unedited_rows_segment_is_served(tmp_path):
    """The codec-3 segment the edits below start from is the block's
    histogram: read, it is the block's keys once each, and it verifies."""
    data = _one_block_store(tmp_path, _with_crc)
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
    data = _one_block_store(tmp_path, lambda _rows: stored)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        with pytest.raises(TraceStoreCorruption, match=message):
            reader.block(0).key_histogram()
        assert reader.verify_blocks() == 0


def _segment(data, segment):
    """Block 0's stored segment ``segment``."""
    lengths = struct.unpack_from("<2Q", data, 56)
    at = 72 + sum(lengths[:segment])
    return data[at : at + lengths[segment]]


#: the one block's row index as its codec-4 segment holds it after the
#: CRC: the width byte, then each pair's row (pair k holds key k, once).
_INDEX = b"\x01" + bytes(range(100))


def _index_segment(body):
    return lambda data: _with_segment(data, 0, _with_crc(body))


#: one hostile edit per check of the codec-4 decoder, and the message of
#: the check that must refuse it.  Each index carries its own CRC but the
#: swapped rows: one changed row changes the counts, two swapped rows
#: keep them, so only the CRC can refuse those.
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
    assert _segment(data, 0) == _with_crc(_INDEX)
    assert _segment(data, 1) == _with_crc(_narrow_rows())
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        block = reader.block(0)
        np.testing.assert_array_equal(block.packed_keys(), _ONE_BLOCK_KEYS)
        np.testing.assert_array_equal(block.sources, np.arange(100))
        np.testing.assert_array_equal(block.repliers, np.full(100, 7))
        assert reader.verify_blocks(strict=True) == 1


@pytest.mark.parametrize("edit", sorted(_INDEX_EDITS))
def test_an_index_segment_edit_raises(tmp_path, edit):
    """Every check of the codec-4 decoder refuses its edit with the
    typed error, on a read and on verification."""
    change, message = _INDEX_EDITS[edit]
    path = _write(tmp_path, change(_pairs_store(tmp_path)))
    with TraceStoreReader(path) as reader:
        with pytest.raises(TraceStoreCorruption, match=message):
            reader.block(0).packed_keys()
        assert reader.verify_blocks() == 0


def _recount(data, block, n_pairs):
    """``data`` with its trailer's pair total counting ``n_pairs`` for
    block ``block``, each block of ``data`` holding 100."""
    out = bytearray(data)
    t = len(out) - 24
    (total,) = struct.unpack_from("<Q", out, t + 16)
    struct.pack_into("<Q", out, t + 16, total - 100 + n_pairs)
    return bytes(out)


@pytest.mark.parametrize("n_pairs", [0, 50], ids=["v2-0", "v2-50"])
def test_a_footer_that_miscounts_a_block_is_not_trusted(tmp_path, n_pairs):
    """A trailer whose pair total is not the walked blocks' (as if block
    1 held another count) does not close the store: it opens recovered,
    every block verified, and serves every block as written — never
    half of one column as another, or an empty block."""
    data = _build_trace(tmp_path)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        want = [(np.array(b.sources), np.array(b.repliers)) for b in reader.blocks()]
    with TraceStoreReader(_write(tmp_path, _recount(data, 1, n_pairs))) as reader:
        assert reader.recovered
        assert reader.block_pairs() == [100, 100, 100]
        for block, (sources, repliers) in zip(reader.iter_blocks(), want):
            np.testing.assert_array_equal(block.sources, sources)
            np.testing.assert_array_equal(block.repliers, repliers)
            assert block.key_histogram()[1].sum() == 100


def _skip(data, blocks):
    """``data`` with its trailer's block count ``blocks`` short and its
    pair total as it was."""
    out = bytearray(data)
    t = len(out) - 24
    (n_blocks,) = struct.unpack_from("<Q", out, t + 8)
    struct.pack_into("<Q", out, t + 8, n_blocks - blocks)
    return bytes(out)


@pytest.mark.parametrize("blocks", [1], ids=["v2"])
def test_a_footer_that_skips_a_block_is_not_trusted(tmp_path, blocks):
    """A trailer that counts one block fewer than the walk, with the
    walk's pair total, does not close the store: it opens recovered and
    serves all three blocks."""
    data = _skip(_build_trace(tmp_path), blocks)
    with TraceStoreReader(_write(tmp_path, data)) as reader:
        assert reader.recovered
        assert reader.block_pairs() == [100, 100, 100]
        assert reader.verify_blocks(strict=True) == 3


def _write(tmp_path, data):
    path = tmp_path / "mutant.bin"
    path.write_bytes(data)
    return path
