"""The paper's §IV import in its relational form — the oracle.

The original study imported its capture into MySQL, kept "only the record
corresponding to the first use of that GUID", and joined queries with
replies on GUID into the pair table its simulator read.  This module is
that method row by row over ``tests.store.relational`` (typed tables, a
``HashIndex`` equi-join): it was ``repro.trace.dedup`` /
``repro.trace.pairing`` until the array passes in
:mod:`repro.trace.capture` replaced them, and stays here as the reference
those passes are held to (``test_import_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.trace.blocks import PairBlock, blocks_from_arrays
from repro.trace.records import QueryReplyPair
from tests.store.relational import Column, Table, inner_join

QUERY_COLUMNS = (
    Column("time", float),
    Column("guid", int),
    Column("source", int),
    Column("query_string", str),
)

REPLY_COLUMNS = (
    Column("time", float),
    Column("guid", int),
    Column("replier", int),
    Column("host", int),
    Column("file_name", str),
)

PAIR_COLUMNS = (
    Column("guid", int),
    Column("query_time", float),
    Column("source", int),
    Column("query_string", str),
    Column("reply_time", float),
    Column("replier", int),
    Column("host", int),
)


def query_table(records) -> Table:
    table = Table("queries", QUERY_COLUMNS)
    table.extend(rec.as_row() for rec in records)
    return table


def reply_table(records) -> Table:
    table = Table("replies", REPLY_COLUMNS)
    table.extend(rec.as_row() for rec in records)
    return table


def dedup_by_first_guid(table: Table, out_name: str, columns) -> Table:
    """Copy ``table`` keeping only the first row for each GUID.

    Rows are processed in insertion order, which for trace tables is
    arrival order — so "first" means earliest observed, matching the paper.
    """
    out = Table(out_name, columns)
    seen: set[int] = set()
    guid_col = table.column("guid")
    for rowid, guid in enumerate(guid_col):
        if guid in seen:
            continue
        seen.add(guid)
        out.append(table.row(rowid))
    return out


def dedup_queries(queries: Table) -> Table:
    return dedup_by_first_guid(queries, "queries_dedup", QUERY_COLUMNS)


def dedup_replies(replies: Table) -> Table:
    return dedup_by_first_guid(replies, "replies_dedup", REPLY_COLUMNS)


def build_pair_table(queries: Table, replies: Table) -> Table:
    """Join query and reply tables on GUID, the query side driving."""
    joined = inner_join(
        queries,
        replies,
        on="guid",
        left_columns=["time", "source", "query_string"],
        right_columns=["time", "replier", "host"],
    )
    # The join names the right side's colliding "time" column
    # "<replies.name>.time"; normalize into the canonical pair schema.
    right_time = f"{replies.name}.time"
    out = Table("pairs", PAIR_COLUMNS)
    cols = [
        joined.column("guid"),
        joined.column("time"),
        joined.column("source"),
        joined.column("query_string"),
        joined.column(right_time),
        joined.column("replier"),
        joined.column("host"),
    ]
    for row in zip(*cols):
        out.append(row)
    return out


def reference_import(queries, replies, *, dedup: bool = True) -> list[QueryReplyPair]:
    """Records in, joined pair records out, by the relational method."""
    queries, replies = query_table(queries), reply_table(replies)
    if dedup:
        queries, replies = dedup_queries(queries), dedup_replies(replies)
    pairs = build_pair_table(queries, replies)
    return [QueryReplyPair(*row) for row in pairs.iter_rows()]


def reference_blocks(
    pairs: list[QueryReplyPair], *, block_size: int, drop_partial: bool
) -> list[PairBlock]:
    """The pair rows lifted into blocks one value at a time."""
    return blocks_from_arrays(
        np.fromiter((p.source for p in pairs), dtype=np.int64),
        np.fromiter((p.replier for p in pairs), dtype=np.int64),
        block_size=block_size,
        drop_partial=drop_partial,
    )
