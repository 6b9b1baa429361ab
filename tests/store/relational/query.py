"""Relational operations used by the trace pipeline.

Only the two operations the paper's DB pipeline actually performs are
provided: the GUID equi-join that produces query–reply pairs, and the
group-by count that tallies (query source, reply source) pair frequencies
for rule generation.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from tests.store.relational.table import Table

__all__ = ["inner_join", "group_count"]


def inner_join(
    left: Table,
    right: Table,
    on: str,
    *,
    left_columns: Sequence[str] | None = None,
    right_columns: Sequence[str] | None = None,
) -> Table:
    """Equi-join ``left`` and ``right`` on the column named ``on``.

    Returns a new table whose columns are ``on``, then the requested
    ``left_columns``, then the requested ``right_columns`` (defaults: all
    non-key columns of each side).  Right-side columns whose names collide
    with the output so far are prefixed with ``"<right.name>."``.

    The right table's index on ``on`` is used if present (and created if
    not), making the join O(|left| + |right|) — the same trick the paper
    used to get its joins down to practical time.
    """
    if left_columns is None:
        left_columns = [c for c in left.column_names if c != on]
    if right_columns is None:
        right_columns = [c for c in right.column_names if c != on]

    taken = {on, *left_columns}
    out_right_names = []
    for name in right_columns:
        out_name = name if name not in taken else f"{right.name}.{name}"
        out_right_names.append(out_name)
        taken.add(out_name)

    out = Table(
        f"{left.name}_join_{right.name}",
        [on, *left_columns, *out_right_names],
    )

    index = right.index(on) or right.create_index(on)
    left_key = left.column(on)
    left_cols = [left.column(n) for n in left_columns]
    right_cols = [right.column(n) for n in right_columns]

    for rowid, key in enumerate(left_key):
        for rrow in index.lookup(key):
            out.append(
                [key]
                + [col[rowid] for col in left_cols]
                + [col[rrow] for col in right_cols]
            )
    return out


def group_count(table: Table, by: Sequence[str]) -> Counter:
    """Count rows grouped by the tuple of columns named in ``by``.

    Returns a :class:`collections.Counter` keyed by value tuples.  This is
    the aggregation behind GENERATE-RULESET: how many times each
    (query-source, reply-source) pair occurred within a block.
    """
    if not by:
        raise ValueError("group_count needs at least one grouping column")
    cols = [table.column(n) for n in by]
    return Counter(zip(*cols)) if len(table) else Counter()
