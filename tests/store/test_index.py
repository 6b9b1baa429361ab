"""Tests for tests.store.relational.index."""

from tests.store.relational.index import HashIndex
from tests.store.relational.table import Table


def make_table():
    table = Table("t", ["guid", "value"])
    table.extend([(10, "a"), (20, "b"), (10, "c")])
    return table


class TestHashIndex:
    def test_lookup_multiple_rows(self):
        idx = HashIndex(make_table(), "guid")
        assert idx.lookup(10) == [0, 2]
        assert idx.lookup(20) == [1]

    def test_lookup_missing_is_empty(self):
        idx = HashIndex(make_table(), "guid")
        assert idx.lookup(999) == []

    def test_first(self):
        idx = HashIndex(make_table(), "guid")
        assert idx.first(10) == 0
        assert idx.first(999) is None

    def test_contains(self):
        idx = HashIndex(make_table(), "guid")
        assert idx.contains(20)
        assert not idx.contains(21)

    def test_len_is_distinct_keys(self):
        idx = HashIndex(make_table(), "guid")
        assert len(idx) == 2

    def test_keys(self):
        idx = HashIndex(make_table(), "guid")
        assert set(idx.keys()) == {10, 20}

    def test_lookup_returns_copy(self):
        idx = HashIndex(make_table(), "guid")
        rows = idx.lookup(10)
        rows.append(999)
        assert idx.lookup(10) == [0, 2]
