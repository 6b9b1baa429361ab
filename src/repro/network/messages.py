"""Query descriptors for the overlay simulator.

The simulator is hop-synchronous, so a query is a descriptor passed
around by the engine rather than a serialized wire message; the fields
mirror a Gnutella Query: GUID, the file searched for, a TTL, and the
issuing node (used only for bookkeeping — forwarding nodes do not learn
the origin, preserving the anonymity property the paper highlights).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Query"]


@dataclass(frozen=True, slots=True)
class Query:
    """One query issued into the overlay."""

    guid: int
    origin: int
    file_id: int
    category: int
    ttl: int

    def __post_init__(self) -> None:
        # a Gnutella TTL is one byte (protocol.DescriptorHeader)
        if not 1 <= self.ttl <= 255:
            raise ValueError(f"ttl must be in 1..255, got {self.ttl}")
        if self.file_id < 0 or self.category < 0:
            raise ValueError("file_id and category must be non-negative")
