"""Exact-match hash indices over table columns."""

from __future__ import annotations

from typing import Any

__all__ = ["HashIndex"]


class HashIndex:
    """Hash index mapping a column value to the ids of rows holding it.

    The index is built eagerly from the current table contents and kept
    consistent by the table on every subsequent append.  Lookups are O(1)
    per key; this is what makes the GUID join over millions of trace rows
    feasible, just as the paper's database indices did.
    """

    def __init__(self, table, column_name: str) -> None:
        self.table = table
        self.column_name = column_name
        self._buckets: dict[Any, list[int]] = {}
        column = table.column(column_name)
        for rowid, value in enumerate(column):
            self._buckets.setdefault(value, []).append(rowid)

    def notify_append(self, rowid: int) -> None:
        """Called by the owning table after a row append."""
        value = self.table.column(self.column_name)[rowid]
        self._buckets.setdefault(value, []).append(rowid)

    def lookup(self, value: Any) -> list[int]:
        """Return the (possibly empty) list of row ids matching ``value``."""
        return list(self._buckets.get(value, ()))

    def first(self, value: Any) -> int | None:
        """Return the first row id matching ``value``, or ``None``."""
        rows = self._buckets.get(value)
        return rows[0] if rows else None

    def contains(self, value: Any) -> bool:
        return value in self._buckets

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    def keys(self):
        return self._buckets.keys()
