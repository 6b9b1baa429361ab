"""Compact, versioned rule digests exchanged between super-peers.

A super-peer's mined rule table can be large; its *digest* is the
top-k rules per category, each reduced to four integers: the category
(the rule antecedent), the consequent super-peer that answered, the
support count, and the total number of observations behind the table
(so receivers can recompute confidence = support / total without
shipping floats).

Digests are versioned by ``(origin, epoch)``.  A super-peer bumps its
epoch every time it publishes, and receivers keep only the newest
epoch per origin — so digest exchange is idempotent and gossip-safe:
duplicates, reordering, and stale retransmits all converge to the same
table.  When a super-peer dies, receivers *invalidate* its origin,
dropping every rule it contributed.

Determinism contract (property-tested): merging any permutation of the
same digest set into :class:`MergedRuleTable` yields a bit-identical
canonical encoding, hence an identical blake2b fingerprint.  This is
what makes the exchange safe to run over an unordered overlay.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DigestEntry",
    "DigestError",
    "MergedRuleTable",
    "RuleDigest",
    "decode_digest",
]

_MAGIC = b"RDG1"
# origin u32 | epoch u32 | total u64 | n_entries u32
_HEADER = struct.Struct("<4sIIQI")
# category u32 | consequent u32 | support u64
_ENTRY = struct.Struct("<IIQ")
_CRC = struct.Struct("<I")


class DigestError(ValueError):
    """A digest failed to decode (truncated, bad magic, or bad CRC)."""


class DigestEntry(NamedTuple):
    """One rule in a digest: {category} -> {consequent super-peer}.

    A named tuple, so its field order is its sort key: a digest's
    canonical order is the entries sorted as plain tuples."""

    category: int
    consequent: int
    support: int

    def confidence(self, total: int) -> float:
        return self.support / total if total else 0.0


@dataclass(frozen=True)
class RuleDigest:
    """One super-peer's published rule summary at one epoch.

    ``entries`` are stored in canonical (category, consequent, support)
    order regardless of the order the constructor received them, so two
    digests with the same logical content encode identically, and one
    category's entries are one stretch of them.
    """

    origin: int
    epoch: int
    total: int  # observations behind the table; confidence denominator
    entries: tuple[DigestEntry, ...]

    def __init__(
        self,
        origin: int,
        epoch: int,
        total: int,
        entries: Iterable[DigestEntry],
    ) -> None:
        object.__setattr__(self, "origin", int(origin))
        object.__setattr__(self, "epoch", int(epoch))
        object.__setattr__(self, "total", int(total))
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    def encode(self) -> bytes:
        """Binary wire form: header + entries + CRC32 trailer."""
        body = _HEADER.pack(
            _MAGIC, self.origin, self.epoch, self.total, len(self.entries)
        ) + b"".join(
            _ENTRY.pack(e.category, e.consequent, e.support) for e in self.entries
        )
        return body + _CRC.pack(zlib.crc32(body))

    def fingerprint(self) -> bytes:
        return hashlib.blake2b(self.encode(), digest_size=8).digest()


def decode_digest(data: bytes) -> RuleDigest:
    """Inverse of :meth:`RuleDigest.encode`; raises :class:`DigestError`."""
    if len(data) < _HEADER.size + _CRC.size:
        raise DigestError("digest truncated")
    body, crc_bytes = data[: -_CRC.size], data[-_CRC.size :]
    (expected,) = _CRC.unpack(crc_bytes)
    if zlib.crc32(body) != expected:
        raise DigestError("digest CRC mismatch")
    magic, origin, epoch, total, n_entries = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise DigestError(f"bad digest magic {magic!r}")
    if len(body) != _HEADER.size + n_entries * _ENTRY.size:
        raise DigestError("digest entry count does not match payload size")
    entries = map(DigestEntry._make, _ENTRY.iter_unpack(body[_HEADER.size :]))
    return RuleDigest(origin, epoch, total, entries)


class MergedRuleTable:
    """A super-peer's view of its neighbors' published rules.

    Keeps at most one digest per origin (the highest epoch wins;
    equal-epoch republishes are idempotent because digests are
    canonical).  Lookups aggregate across origins: for a category, the
    candidate consequents ranked by total support, ties broken by the
    smaller consequent id — a deterministic function of table content
    alone, never of arrival order.
    """

    def __init__(self) -> None:
        self._by_origin: dict[int, RuleDigest] = {}

    def __len__(self) -> int:
        return len(self._by_origin)

    def merge(self, digest: RuleDigest) -> bool:
        """Absorb one digest; returns True when the table changed.

        Keeps the maximum per origin by ``(epoch, canonical encoding)``.
        The encoding tie-break matters only for equal-epoch digests with
        *different* content — a publisher that forgot to bump its epoch —
        but without it two receivers seeing those in opposite orders
        would disagree forever, breaking the order-independence
        contract.
        """
        current = self._by_origin.get(digest.origin)
        if current is not None:
            if current.epoch > digest.epoch:
                return False
            if current.epoch == digest.epoch and current.encode() >= digest.encode():
                return False
        self._by_origin[digest.origin] = digest
        return True

    def invalidate(self, origin: int) -> bool:
        """Drop every rule published by ``origin`` (it left or died)."""
        return self._by_origin.pop(origin, None) is not None

    def epoch_of(self, origin: int) -> int | None:
        digest = self._by_origin.get(origin)
        return digest.epoch if digest is not None else None

    def consequents(self, category: int) -> list[int]:
        """Every super-peer the merged rules point at for a category, best
        first, uncut: the rule rung cuts once, in ``forward_picks``."""
        support: dict[int, int] = {}
        after = (category + 1,)
        for digest in self._by_origin.values():
            # canonical order: the category's entries are one stretch
            entries = digest.entries
            at = bisect_left(entries, (category,))
            end = bisect_left(entries, after, at)
            for _category, consequent, count in entries[at:end]:
                support[consequent] = support.get(consequent, 0) + count
        ranked = sorted(support.items(), key=lambda cs: (-cs[1], cs[0]))
        return [consequent for consequent, _support in ranked]

    def encode(self) -> bytes:
        """Canonical encoding: digests concatenated in origin order.

        Because each digest is itself canonical and origins are unique
        keys, this is a pure function of the table's logical content —
        the bit-identity the merge determinism tests assert.
        """
        return b"".join(
            self._by_origin[origin].encode() for origin in sorted(self._by_origin)
        )

    def fingerprint(self) -> bytes:
        return hashlib.blake2b(self.encode(), digest_size=8).digest()
