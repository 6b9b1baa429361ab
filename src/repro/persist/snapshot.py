"""Versioned, fingerprinted snapshots of streaming-rule count state.

A snapshot freezes one :mod:`repro.core.counts` table — the exact
sliding window (:class:`~repro.core.counts.WindowCounts`) or the lossy
sketch (:class:`~repro.core.counts.SketchCounts`) — so a restarted
servent resumes from learned state instead of re-flooding while the
window refills.

Layout::

    snapshot := magic(8) u32 header_len u32 crc32(header) header payload
    magic    := b"RPSN" u16 version u16 reserved
    header   := JSON (backend + parameters + payload_len +
                payload_blake2b + state fingerprint + caller metadata)
    payload  := exact:  i64 source, i64 replier   per window entry
                lossy:  i64 source, i64 replier, i64 count, i64 delta
                        per sketch entry, sorted

Two integrity layers: the CRC-32 guards the header against torn
writes, the blake2b-128 digest guards the payload against corruption.
A snapshot that fails either check is *invalid*, never half-loaded —
recovery skips it and falls back to an older one.

:func:`fingerprint_counts` hashes the canonical state (parameters +
payload, caches excluded), so two count objects with identical learned
state — e.g. the original and its crash-recovered twin — produce the
same hex digest.  That equality is the warm-recovery acceptance check
in the fault soak and the persistence tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib

from repro.core.counts import SketchCounts, WindowCounts

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotError",
    "fingerprint_counts",
    "load_snapshot",
    "read_snapshot_header",
    "write_snapshot",
]

SNAPSHOT_VERSION = 1
SNAPSHOT_MAGIC = b"RPSN" + struct.pack("<HH", SNAPSHOT_VERSION, 0)

#: backend name -> (counts class, state key of the payload, record layout)
_BACKENDS = {
    "exact": (WindowCounts, "window", struct.Struct("<qq")),
    "lossy": (SketchCounts, "entries", struct.Struct("<qqqq")),
}

#: header fields the reader relies on, with their JSON types.
_HEADER_FIELDS = {"payload_len": int, "payload_blake2b": str, "backend": str}


class SnapshotError(Exception):
    """A snapshot file that cannot be trusted (torn, corrupt, unknown)."""


def _encode_state(state: dict) -> tuple[dict, bytes]:
    """Split a counts ``state()`` dict into (scalar params, packed payload)."""
    _cls, payload_key, record = _BACKENDS[state["backend"]]
    params = {key: value for key, value in state.items() if key != payload_key}
    if state["backend"] == "lossy":
        # A version-1 header field — the first writer's cache-refresh
        # clock, a function of n_seen.  Nothing reads it; it stays so
        # snapshot bytes and fingerprints are what they always were.
        params["since_refresh"] = state["n_seen"] % max(
            1000, int(1.0 / state["epsilon"])
        )
    payload = b"".join(record.pack(*entry) for entry in state[payload_key])
    return params, payload


def fingerprint_counts(counts) -> str:
    """blake2b-128 hex digest of the canonical learned state."""
    params, payload = _encode_state(counts.state())
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(params, sort_keys=True).encode())
    digest.update(payload)
    return digest.hexdigest()


def write_snapshot(path: str, counts, *, meta: dict | None = None) -> dict:
    """Atomically write ``counts`` to ``path``; returns the header.

    The snapshot lands via write-to-temp + fsync + rename, so ``path``
    either holds the complete old snapshot or the complete new one —
    never a torn hybrid — whatever instant a crash hits.
    """
    params, payload = _encode_state(counts.state())
    header = {
        "version": SNAPSHOT_VERSION,
        **params,
        "n_rules": counts.n_rules(),
        "payload_len": len(payload),
        "payload_blake2b": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        "fingerprint": fingerprint_counts(counts),
        **(meta or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", len(header_bytes), zlib.crc32(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return header


def _read(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(SNAPSHOT_MAGIC) + 8:
        raise SnapshotError(f"{path}: truncated snapshot")
    if data[:4] != SNAPSHOT_MAGIC[:4]:
        raise SnapshotError(f"{path}: not a snapshot (bad magic)")
    (version, _reserved) = struct.unpack("<HH", data[4:8])
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported snapshot version {version}")
    header_len, header_crc = struct.unpack("<II", data[8:16])
    header_end = 16 + header_len
    if header_end > len(data):
        raise SnapshotError(f"{path}: truncated snapshot header")
    header_bytes = data[16:header_end]
    if zlib.crc32(header_bytes) != header_crc:
        raise SnapshotError(f"{path}: snapshot header checksum mismatch")
    try:
        header = json.loads(header_bytes)
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"{path}: snapshot header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: snapshot header is not a JSON object")
    for key, kind in _HEADER_FIELDS.items():
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SnapshotError(
                f"{path}: snapshot header field {key!r} is missing or not "
                f"{kind.__name__}"
            )
    payload = data[header_end:]
    if len(payload) != header["payload_len"]:
        raise SnapshotError(
            f"{path}: payload is {len(payload)} bytes, "
            f"header promises {header['payload_len']}"
        )
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header["payload_blake2b"]:
        raise SnapshotError(f"{path}: snapshot payload digest mismatch")
    return header, payload


def read_snapshot_header(path: str) -> dict:
    """The validated header alone (for ``repro persist inspect``)."""
    header, _payload = _read(path)
    return header


def load_snapshot(path: str):
    """Reconstruct the counts object; returns ``(counts, header)``.

    Raises :class:`SnapshotError` on any integrity failure — a caller
    holding several generations retries the next-older file.
    """
    header, payload = _read(path)
    if header["backend"] not in _BACKENDS:
        raise SnapshotError(f"{path}: unknown backend {header['backend']!r}")
    cls, payload_key, record = _BACKENDS[header["backend"]]
    if len(payload) % record.size:
        raise SnapshotError(
            f"{path}: payload of {len(payload)} bytes is not whole "
            f"{record.size}-byte records"
        )
    state = {**header, payload_key: list(record.iter_unpack(payload))}
    return cls.from_state(state), header
