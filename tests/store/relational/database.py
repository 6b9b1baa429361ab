"""A named collection of tables.

A :class:`Database` can be round-tripped through a JSON-lines file with
:meth:`Database.save` / :meth:`Database.load`: one header line naming the
database, then for each table a schema line followed by one line per row.
Hash indexes are derived state and are not persisted — recreate them with
:meth:`~tests.store.relational.table.Table.create_index` after loading.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from tests.store.relational.table import Column, Table

__all__ = ["Database"]


class Database:
    """Container for the trace pipeline's tables.

    Mirrors the paper's relational database: a ``queries`` table, a
    ``replies`` table, the joined ``pairs`` table and assorted temporary
    tables created by the simulator all live in one of these.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, columns: Sequence[Column | str]) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists in database {self.name!r}")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def add_table(self, table: Table) -> Table:
        """Register an externally constructed table (e.g. a join result)."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no table named {name!r}")
        del self._tables[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r} in database {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> Iterable[str]:
        return tuple(self._tables)

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    # -- persistence ------------------------------------------------------
    def save(self, path: str | os.PathLike) -> int:
        """Write the database to ``path`` as JSON lines; return rows written.

        Layout: a ``{"database": ...}`` header, then for each table a
        ``{"table": ..., "columns": [...]}`` schema line followed by one
        ``{"table": ..., "row": [...]}`` line per row.  Only columns whose
        dtype is JSON-nameable (int/float/str/bool, or untyped) can be
        saved; anything else raises :class:`ValueError` before any output
        is written.
        """
        lines = [json.dumps({"database": self.name, "tables": list(self._tables)})]
        written = 0
        for table in self._tables.values():
            specs = [col.spec() for col in table.columns]
            lines.append(json.dumps({"table": table.name, "columns": specs}))
            for row in table.iter_rows():
                lines.append(json.dumps({"table": table.name, "row": list(row)}))
                written += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return written

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Database":
        """Rebuild a database saved by :meth:`save`."""
        db: Database | None = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    entry = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
                if "database" in entry:
                    if db is not None:
                        raise ValueError(f"{path}:{lineno}: duplicate database header")
                    db = cls(entry["database"])
                elif db is None:
                    raise ValueError(f"{path}:{lineno}: missing database header line")
                elif "columns" in entry:
                    columns = [Column.from_spec(spec) for spec in entry["columns"]]
                    db.create_table(entry["table"], columns)
                elif "row" in entry:
                    db.table(entry["table"]).append(entry["row"])
                else:
                    raise ValueError(f"{path}:{lineno}: unrecognized entry {entry!r}")
        if db is None:
            raise ValueError(f"{path}: empty file, no database header")
        return db

    def __repr__(self) -> str:  # pragma: no cover
        return f"Database({self.name!r}, tables={list(self._tables)})"
