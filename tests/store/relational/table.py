"""Append-oriented typed tables.

A :class:`Table` stores rows column-wise in plain Python lists, with an
optional declared Python type per column that is checked on insert.  Columnar
storage keeps the trace pipeline cache-friendly when a whole column (e.g.
every GUID) is scanned, and lets :mod:`repro.core.generation` lift columns
straight into numpy arrays for the vectorized rule-counting fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = ["Column", "Table"]

#: dtypes the JSON-lines round trip (:meth:`Database.save` /
#: :meth:`Database.load`) can name; everything the trace pipeline's
#: schemas use is here.
DTYPE_NAMES: dict[type, str] = {int: "int", float: "float", str: "str", bool: "bool"}
DTYPES_BY_NAME: dict[str, type] = {name: t for t, name in DTYPE_NAMES.items()}


@dataclass(frozen=True)
class Column:
    """Schema entry: a column name and an optional expected Python type."""

    name: str
    dtype: type | None = None

    def check(self, value: Any) -> None:
        if self.dtype is not None and not isinstance(value, self.dtype):
            raise TypeError(
                f"column {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__}: {value!r}"
            )

    def spec(self) -> dict:
        """JSON-able schema entry (inverse of :meth:`from_spec`)."""
        if self.dtype is None:
            return {"name": self.name, "dtype": None}
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"column {self.name!r} dtype {self.dtype.__name__} has no "
                f"JSON name; serializable dtypes: "
                f"{sorted(DTYPES_BY_NAME)}"
            )
        return {"name": self.name, "dtype": DTYPE_NAMES[self.dtype]}

    @classmethod
    def from_spec(cls, spec: dict) -> "Column":
        dtype_name = spec.get("dtype")
        if dtype_name is None:
            return cls(spec["name"])
        if dtype_name not in DTYPES_BY_NAME:
            raise ValueError(
                f"unknown column dtype name {dtype_name!r}; expected one "
                f"of {sorted(DTYPES_BY_NAME)}"
            )
        return cls(spec["name"], DTYPES_BY_NAME[dtype_name])


class Table:
    """A named, schema-checked, append-only columnar table."""

    def __init__(self, name: str, columns: Sequence[Column | str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(
            c if isinstance(c, Column) else Column(c) for c in columns
        )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._order = {c.name: i for i, c in enumerate(self.columns)}
        self._data: list[list[Any]] = [[] for _ in self.columns]
        self._indexes: dict[str, "HashIndex"] = {}

    # -- shape ------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __len__(self) -> int:
        return len(self._data[0])

    def column(self, name: str) -> list[Any]:
        """Return the backing list for ``name`` (treat as read-only)."""
        return self._data[self._col_index(name)]

    def _col_index(self, name: str) -> int:
        try:
            return self._order[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    # -- mutation ---------------------------------------------------------
    def append(self, row: Sequence[Any]) -> int:
        """Append one row (positional, matching the schema); return its id."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{len(self.columns)} columns"
            )
        for col, value in zip(self.columns, row):
            col.check(value)
        rowid = len(self)
        for store, value in zip(self._data, row):
            store.append(value)
        for index in self._indexes.values():
            index.notify_append(rowid)
        return rowid

    def append_dict(self, row: dict) -> int:
        """Append one row given as a mapping from column name to value."""
        return self.append([row[c.name] for c in self.columns])

    def extend(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows; return the number appended."""
        n = 0
        for row in rows:
            self.append(row)
            n += 1
        return n

    # -- access -----------------------------------------------------------
    def row(self, rowid: int) -> tuple:
        """Return row ``rowid`` as a tuple in schema order."""
        if not 0 <= rowid < len(self):
            raise IndexError(f"row {rowid} out of range for table {self.name!r}")
        return tuple(store[rowid] for store in self._data)

    def row_dict(self, rowid: int) -> dict:
        return dict(zip(self.column_names, self.row(rowid)))

    def iter_rows(self) -> Iterator[tuple]:
        for rowid in range(len(self)):
            yield self.row(rowid)

    def to_rows(self) -> list[dict]:
        """Return every row as a dict, in insertion order."""
        return [self.row_dict(i) for i in range(len(self))]

    def select(self, predicate: Callable[[dict], bool]) -> list[int]:
        """Return ids of rows whose dict form satisfies ``predicate``."""
        return [i for i in range(len(self)) if predicate(self.row_dict(i))]

    def project(self, names: Sequence[str]) -> list[tuple]:
        """Return all rows restricted to ``names`` (in the given order)."""
        cols = [self.column(n) for n in names]
        return list(zip(*cols)) if cols and len(self) else []

    # -- indexing ---------------------------------------------------------
    def create_index(self, column_name: str) -> "HashIndex":
        """Create (or return an existing) hash index on ``column_name``.

        Mirrors the paper's note that simulations only became practical
        "after creating indices to frequently-searched fields".
        """
        from tests.store.relational.index import HashIndex

        if column_name in self._indexes:
            return self._indexes[column_name]
        index = HashIndex(self, column_name)
        self._indexes[column_name] = index
        return index

    def index(self, column_name: str) -> "HashIndex | None":
        return self._indexes.get(column_name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Table({self.name!r}, rows={len(self)}, cols={self.column_names})"
