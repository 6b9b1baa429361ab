"""Minimal in-memory relational store.

The original study imported its 7-day Gnutella trace into a relational
database (MySQL) and drove a PHP simulator against it: deduplicating records
by GUID, *joining* queries with replies to form query–reply pairs, keeping
temporary tables for the current rule set, and speeding up frequent lookups
with indices.  This subpackage provides the minimal relational substrate the
reproduction needs for the same pipeline:

* :class:`~tests.store.relational.table.Table` — typed columns, row append/extend,
  predicate selection, projection;
* :class:`~tests.store.relational.index.HashIndex` — exact-match index on a column,
  kept consistent as rows are appended;
* :func:`~tests.store.relational.query.inner_join` / :func:`~tests.store.relational.query.group_count`
  — the two relational operations the paper's pipeline actually performs
  (GUID equi-join, pair-frequency aggregation);
* :class:`~tests.store.relational.database.Database` — a named collection of tables,
  round-trippable through a JSON-lines file (``save`` / ``load``).

The store favours clarity over generality: it is append-oriented (trace
import never updates rows in place) and deliberately small.
"""

from tests.store.relational.database import Database
from tests.store.relational.index import HashIndex
from tests.store.relational.query import group_count, inner_join
from tests.store.relational.table import Column, Table

__all__ = ["Column", "Database", "HashIndex", "Table", "group_count", "inner_join"]
