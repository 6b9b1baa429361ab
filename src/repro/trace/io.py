"""Trace (de)serialization.

Tab-separated persistence for query and reply logs, so traces can be
generated once and replayed across experiment runs (the paper's 2.6 GB
database served the same purpose).  The format is line-oriented and
append-friendly; strings are the last field so they may contain spaces.
Files are opened with ``newline="\\n"``: a line ends at ``\\n`` and nowhere
else, so a captured string holding a carriage return (the wire codec
allows one) comes back as the bytes it went in as.

:func:`iter_query_rows` / :func:`iter_reply_rows` yield decoded row tuples
one at a time; :func:`read_queries` / :func:`read_replies` collect them
into the column logs of :mod:`repro.trace.capture`.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from repro.trace.capture import QueryLog, ReplyLog
from repro.trace.records import QueryRecord, ReplyRecord

__all__ = [
    "write_queries",
    "read_queries",
    "iter_query_rows",
    "write_replies",
    "read_replies",
    "iter_reply_rows",
]

_QUERY_HEADER = "time\tguid\tsource\tquery_string"
_REPLY_HEADER = "time\tguid\treplier\thost\tfile_name"


def _bounded_int(lo: int, hi: int):
    """A field decoder: an int in ``[lo, hi)``, the range its column holds."""

    def decode(text: str) -> int:
        value = int(text)
        if not lo <= value < hi:
            raise ValueError(f"{text!r} outside [{lo}, {hi})")
        return value

    return decode


_ID128 = _bounded_int(0, 1 << 128)  # guid, host
_PEER = _bounded_int(-(1 << 63), 1 << 63)  # source, replier: int64


def _iter_rows(
    path: str | os.PathLike, header: str, kind: str, decoders: tuple
) -> Iterator[tuple]:
    """Yield one decoded tuple per line after the header; the last field is text."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"not a {kind} trace file: header {found!r}")
        for lineno, line in enumerate(fh, start=2):
            *numbers, text = line.rstrip("\n").split("\t", len(decoders))
            try:
                if len(numbers) != len(decoders):
                    raise ValueError(f"{len(numbers) + 1} tab-separated fields")
                row = (*(decode(s) for decode, s in zip(decoders, numbers)), text)
            except ValueError as exc:
                raise ValueError(
                    f"{os.fspath(path)}:{lineno}: bad {kind} trace line ({exc})"
                ) from None
            yield row


def _write_rows(path: str | os.PathLike, header: str, what: str, records) -> int:
    """Write the header and one line per record; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for rec in records:
            time, *ids, text = rec.as_row()
            if "\t" in text or "\n" in text:
                raise ValueError(f"{what} may not contain tabs or newlines")
            fh.write("\t".join([repr(time), *map(str, ids), text]) + "\n")
            n += 1
    return n


def write_queries(path: str | os.PathLike, records: Iterable[QueryRecord]) -> int:
    """Write query records; returns the number written."""
    return _write_rows(path, _QUERY_HEADER, "query strings", records)


def iter_query_rows(path: str | os.PathLike) -> Iterator[tuple]:
    """Yield decoded ``(time, guid, source, query_string)`` rows lazily."""
    return _iter_rows(path, _QUERY_HEADER, "query", (float, _ID128, _PEER))


def read_queries(path: str | os.PathLike) -> QueryLog:
    """Read a query trace file into a :class:`~repro.trace.capture.QueryLog`."""
    return QueryLog.from_records(QueryRecord(*row) for row in iter_query_rows(path))


def write_replies(path: str | os.PathLike, records: Iterable[ReplyRecord]) -> int:
    """Write reply records; returns the number written."""
    return _write_rows(path, _REPLY_HEADER, "file names", records)


def iter_reply_rows(path: str | os.PathLike) -> Iterator[tuple]:
    """Yield decoded ``(time, guid, replier, host, file_name)`` rows lazily."""
    return _iter_rows(path, _REPLY_HEADER, "reply", (float, _ID128, _PEER, _ID128))


def read_replies(path: str | os.PathLike) -> ReplyLog:
    """Read a reply trace file into a :class:`~repro.trace.capture.ReplyLog`."""
    return ReplyLog.from_records(ReplyRecord(*row) for row in iter_reply_rows(path))
