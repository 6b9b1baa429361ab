"""Trace record types.

Field-for-field these follow the paper's methodology section: for queries,
"the query string, the time of the query, the IP address of the node that
forwarded the query, and a globally-unique identifier"; for replies, "the
time the reply was received, the GUID of the query, the neighbor from which
the reply was sent, the host of the matching file, and the name of the
file".  Neighbor identities are integer ids in this reproduction (rendered
as synthetic IPs only for display).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "QueryRecord",
    "ReplyRecord",
    "QueryReplyPair",
    "render_ip",
]


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """A query message observed at the monitor node."""

    time: float
    guid: int
    source: int  # neighbor that forwarded the query to the monitor
    query_string: str

    def as_row(self) -> tuple:
        return (self.time, self.guid, self.source, self.query_string)


@dataclass(frozen=True, slots=True)
class ReplyRecord:
    """A reply message observed at the monitor node."""

    time: float
    guid: int
    replier: int  # neighbor that sent the reply back to the monitor
    host: int  # remote node actually sharing the file
    file_name: str

    def as_row(self) -> tuple:
        return (self.time, self.guid, self.replier, self.host, self.file_name)


@dataclass(frozen=True, slots=True)
class QueryReplyPair:
    """One joined query–reply pair: the unit the rule simulator consumes."""

    guid: int
    query_time: float
    source: int
    query_string: str
    reply_time: float
    replier: int
    host: int

    def as_row(self) -> tuple:
        return (
            self.guid,
            self.query_time,
            self.source,
            self.query_string,
            self.reply_time,
            self.replier,
            self.host,
        )


def render_ip(node_id: int) -> str:
    """Render an integer node id as a stable synthetic IPv4 address."""
    if node_id < 0:
        raise ValueError("node id must be non-negative")
    x = (node_id * 2654435761) % (1 << 32)  # Knuth multiplicative hash
    return f"{10}.{(x >> 16) & 0xFF}.{(x >> 8) & 0xFF}.{x & 0xFF}"
