"""A capture held as columns, and the paper's §IV import over them.

The original study imported its capture into a relational database and
cleaned it there: "only the record corresponding to the first use of that
GUID was kept", then "the join of these data produced 3,254,274
query-reply pairs".  Here the capture is three column sets —
:class:`QueryLog`, :class:`ReplyLog` and the joined :class:`PairLog` — and
the import is three array passes over them: :func:`dedup_queries` /
:func:`dedup_replies`, :func:`join_pairs`, and
:func:`repro.trace.blocks.partition_pairs`.  The relational form of the
same import is kept in ``tests/store/relational`` as the oracle these
passes are held to.

GUIDs and hosts are 128-bit (a QueryHit's host is the replying servent's
GUID), so both are held in :data:`ID128`: two little-endian ``u8`` words,
high word first so that field order is numeric order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable

import numpy as np

from repro.trace.records import QueryRecord, QueryReplyPair, ReplyRecord

__all__ = [
    "ID128",
    "PairLog",
    "QueryLog",
    "ReplyLog",
    "dedup_queries",
    "dedup_replies",
    "join_pairs",
    "pack_ids",
    "unpack_ids",
]

#: one 128-bit id; comparing (hi, lo) field by field is comparing the ints.
ID128 = np.dtype([("hi", "<u8"), ("lo", "<u8")])
_F8 = np.dtype(np.float64)
_I8 = np.dtype(np.int64)
_LOW_WORD = (1 << 64) - 1


def pack_ids(values: Iterable[int]) -> np.ndarray:
    """Python ints in ``[0, 2**128)`` as an :data:`ID128` array."""
    values = [operator.index(v) for v in values]
    if any(v >> 128 for v in values):  # a negative shifts down to -1
        raise ValueError("ids must be in [0, 2**128)")
    ids = np.empty(len(values), dtype=ID128)
    ids["hi"] = np.array([v >> 64 for v in values], dtype=np.uint64)
    ids["lo"] = np.array([v & _LOW_WORD for v in values], dtype=np.uint64)
    return ids


def unpack_ids(ids: np.ndarray) -> list[int]:
    """An :data:`ID128` array back as Python ints (inverse of :func:`pack_ids`)."""
    return [
        (hi << 64) | lo for hi, lo in zip(ids["hi"].tolist(), ids["lo"].tolist())
    ]


def _column(dtype, values) -> np.ndarray | list[str]:
    """One column of record fields in the form a log holds it."""
    if dtype is ID128:
        return pack_ids(values)
    if dtype is _I8:  # operator.index: a float is an error, not a truncation
        return np.fromiter(map(operator.index, values), dtype=_I8, count=len(values))
    if dtype is _F8:
        return np.array(values, dtype=_F8)
    strings = list(values)
    if not all(isinstance(s, str) for s in strings):
        raise TypeError("string columns hold str")
    return strings


def _values(column) -> list:
    """A log column back as the Python values it was built from."""
    if isinstance(column, list):
        return column
    return unpack_ids(column) if column.dtype == ID128 else column.tolist()


class _ColumnLog:
    """What the three logs share: one check, one gather, records in and out.

    A subclass is a frozen dataclass whose fields are the columns, named
    and ordered as its record class's fields; ``_dtypes`` gives each
    column's dtype, ``str`` for a ``list[str]`` column.
    """

    _record: ClassVar[type]
    _dtypes: ClassVar[tuple]

    def __post_init__(self) -> None:
        for field, dtype in zip(fields(self), self._dtypes):
            column = getattr(self, field.name)
            if dtype is str:
                if not isinstance(column, list):
                    raise TypeError(f"{field.name} must be a list of str")
            elif not (
                isinstance(column, np.ndarray)
                and column.dtype == dtype
                and column.ndim == 1
            ):
                raise TypeError(f"{field.name} must be a 1-D {dtype} array")
            if len(column) != len(self):
                raise ValueError("log columns must have equal lengths")

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def _columns(self) -> list:
        return [getattr(self, field.name) for field in fields(self)]

    def take(self, rows: np.ndarray):
        """The log of the given rows, in the given order."""
        return type(self)(
            *(
                [column[i] for i in rows.tolist()]
                if isinstance(column, list)
                else column[rows]
                for column in self._columns()
            )
        )

    @classmethod
    def from_records(cls, records: Iterable):
        """Build the log from its record type, in iteration (arrival) order."""
        rows = [record.as_row() for record in records]
        columns = list(zip(*rows)) if rows else [()] * len(cls._dtypes)
        return cls(*map(_column, cls._dtypes, columns))

    def records(self) -> list:
        """Every row as its record type (inverse of :meth:`from_records`)."""
        return [self._record(*row) for row in zip(*map(_values, self._columns()))]


@dataclass(frozen=True, eq=False)
class QueryLog(_ColumnLog):
    """Captured queries in arrival order, one column per record field."""

    time: np.ndarray
    guid: np.ndarray
    source: np.ndarray
    query_string: list[str]

    _record = QueryRecord
    _dtypes = (_F8, ID128, _I8, str)


@dataclass(frozen=True, eq=False)
class ReplyLog(_ColumnLog):
    """Captured replies in arrival order, one column per record field."""

    time: np.ndarray
    guid: np.ndarray
    replier: np.ndarray
    host: np.ndarray
    file_name: list[str]

    _record = ReplyRecord
    _dtypes = (_F8, ID128, _I8, ID128, str)


@dataclass(frozen=True, eq=False)
class PairLog(_ColumnLog):
    """Joined query–reply pairs: the rows the rule simulator is cut from."""

    guid: np.ndarray
    query_time: np.ndarray
    source: np.ndarray
    query_string: list[str]
    reply_time: np.ndarray
    replier: np.ndarray
    host: np.ndarray

    _record = QueryReplyPair
    _dtypes = (ID128, _F8, _I8, str, _F8, _I8, ID128)


def _first_per_guid(log):
    """Keep the first row for each GUID; rows stay in arrival order."""
    _, first = np.unique(log.guid, return_index=True)
    first.sort()
    return log.take(first)


def dedup_queries(queries: QueryLog) -> QueryLog:
    """Deduplicate a query log by GUID (first record kept)."""
    return _first_per_guid(queries)


def dedup_replies(replies: ReplyLog) -> ReplyLog:
    """Deduplicate a reply log by GUID (first record kept).

    The paper joins each query with the replies to that query; multiple
    replies to one query can legitimately exist, but its cleaned dataset
    kept one pair per GUID (3,254,274 replies -> 3,254,274 pairs), so the
    canonical pipeline also reduces replies to one per GUID.
    """
    return _first_per_guid(replies)


def join_pairs(queries: QueryLog, replies: ReplyLog) -> PairLog:
    """Equi-join queries with replies on GUID (the paper's pair table).

    The query side drives: pairs come in query-arrival order and, under
    one query, in reply-arrival order.  A query without a reply and a
    reply without a query are dropped; logs that were not de-duplicated
    join many-to-many.
    """
    n_queries = len(queries)
    # One code per distinct GUID across both logs, so the match itself is
    # a sort and a binary search over plain integers.
    _, codes = np.unique(
        np.concatenate([queries.guid, replies.guid]), return_inverse=True
    )
    query_codes, reply_codes = codes[:n_queries], codes[n_queries:]
    by_code = np.argsort(reply_codes, kind="stable")  # arrival order within a GUID
    sorted_codes = reply_codes[by_code]
    start = np.searchsorted(sorted_codes, query_codes, side="left")
    matches = np.searchsorted(sorted_codes, query_codes, side="right") - start
    q = np.repeat(np.arange(n_queries), matches)
    # position of each pair among its query's matches: 0, 1, ... per query
    nth = np.arange(len(q)) - np.repeat(np.cumsum(matches) - matches, matches)
    r = by_code[start[q] + nth]
    return PairLog(
        guid=queries.guid[q],
        query_time=queries.time[q],
        source=queries.source[q],
        query_string=[queries.query_string[i] for i in q.tolist()],
        reply_time=replies.time[r],
        replier=replies.replier[r],
        host=replies.host[r],
    )
