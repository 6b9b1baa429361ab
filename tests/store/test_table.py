"""Tests for tests.store.relational.table."""

import pytest

from tests.store.relational.table import Column, Table


def make_people():
    table = Table("people", [Column("name", str), Column("age", int)])
    table.append(("alice", 30))
    table.append(("bob", 25))
    return table


class TestSchema:
    def test_column_names(self):
        table = make_people()
        assert table.column_names == ("name", "age")

    def test_string_columns_are_untyped(self):
        table = Table("t", ["a", "b"])
        table.append((1, "x"))
        table.append(("y", 2))  # no dtype declared, anything goes
        assert len(table) == 2

    def test_rejects_duplicate_column_names(self):
        with pytest.raises(ValueError):
            Table("t", ["a", "a"])

    def test_rejects_empty_schema(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_type_check_on_insert(self):
        table = make_people()
        with pytest.raises(TypeError):
            table.append((42, 30))


class TestMutation:
    def test_append_returns_rowid(self):
        table = make_people()
        assert table.append(("carol", 40)) == 2

    def test_append_dict(self):
        table = make_people()
        table.append_dict({"age": 50, "name": "dora"})
        assert table.row(2) == ("dora", 50)

    def test_extend_counts(self):
        table = make_people()
        n = table.extend([("e", 1), ("f", 2)])
        assert n == 2
        assert len(table) == 4

    def test_wrong_arity_rejected(self):
        table = make_people()
        with pytest.raises(ValueError):
            table.append(("too", 1, "many"))


class TestAccess:
    def test_row_and_row_dict(self):
        table = make_people()
        assert table.row(0) == ("alice", 30)
        assert table.row_dict(1) == {"name": "bob", "age": 25}

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            make_people().row(99)

    def test_iter_rows(self):
        assert list(make_people().iter_rows()) == [("alice", 30), ("bob", 25)]

    def test_column_access(self):
        assert make_people().column("age") == [30, 25]

    def test_missing_column(self):
        with pytest.raises(KeyError):
            make_people().column("salary")

    def test_select(self):
        table = make_people()
        assert table.select(lambda r: r["age"] > 26) == [0]

    def test_project(self):
        table = make_people()
        assert table.project(["age", "name"]) == [(30, "alice"), (25, "bob")]

    def test_project_empty_table(self):
        table = Table("t", ["a"])
        assert table.project(["a"]) == []


class TestIndexing:
    def test_index_reflects_existing_rows(self):
        table = make_people()
        idx = table.create_index("name")
        assert idx.lookup("alice") == [0]

    def test_index_updated_on_append(self):
        table = make_people()
        idx = table.create_index("age")
        table.append(("carol", 30))
        assert idx.lookup(30) == [0, 2]

    def test_create_index_idempotent(self):
        table = make_people()
        a = table.create_index("name")
        b = table.create_index("name")
        assert a is b

    def test_index_lookup_missing(self):
        table = make_people()
        assert table.index("name") is None
        table.create_index("name")
        assert table.index("name") is not None
