"""Tests for tests.store.relational.database."""

import pytest

from tests.store.relational.database import Database
from tests.store.relational.table import Column, Table


class TestDatabase:
    def test_create_and_get(self):
        db = Database("test")
        table = db.create_table("queries", ["guid"])
        assert db.table("queries") is table

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_table("t", ["a"])
        with pytest.raises(ValueError):
            db.create_table("t", ["b"])

    def test_add_external_table(self):
        db = Database()
        table = Table("pairs", ["guid"])
        db.add_table(table)
        assert "pairs" in db

    def test_add_duplicate_rejected(self):
        db = Database()
        db.add_table(Table("t", ["a"]))
        with pytest.raises(ValueError):
            db.add_table(Table("t", ["b"]))

    def test_drop(self):
        db = Database()
        db.create_table("t", ["a"])
        db.drop_table("t")
        assert "t" not in db

    def test_drop_missing(self):
        with pytest.raises(KeyError):
            Database().drop_table("nope")

    def test_missing_table(self):
        with pytest.raises(KeyError):
            Database().table("nope")

    def test_total_rows(self):
        db = Database()
        t1 = db.create_table("a", ["x"])
        t1.append((1,))
        t2 = db.create_table("b", ["y"])
        t2.extend([(1,), (2,)])
        assert db.total_rows() == 3

    def test_table_names(self):
        db = Database()
        db.create_table("a", ["x"])
        db.create_table("b", ["y"])
        assert set(db.table_names()) == {"a", "b"}


class TestSaveLoad:
    def _capture_db(self):
        db = Database("capture")
        queries = db.create_table(
            "queries",
            [Column("guid", int), Column("keywords", str), Column("ttl", int)],
        )
        queries.extend([(1, "jazz", 7), (2, "mesa", 5), (3, "tundra", 7)])
        replies = db.create_table(
            "replies", [Column("guid", int), Column("score", float)]
        )
        replies.extend([(1, 0.5), (3, 1.0)])
        db.create_table("empty", [Column("x")])
        return db

    def test_round_trip_preserves_everything(self, tmp_path):
        db = self._capture_db()
        path = tmp_path / "capture.jsonl"
        assert db.save(path) == 5
        loaded = Database.load(path)
        assert loaded.name == "capture"
        assert set(loaded.table_names()) == set(db.table_names())
        for name in db.table_names():
            original, copy = db.table(name), loaded.table(name)
            assert copy.column_names == original.column_names
            assert [c.dtype for c in copy.columns] == [c.dtype for c in original.columns]
            assert list(copy.iter_rows()) == list(original.iter_rows())

    def test_loaded_tables_still_type_check(self, tmp_path):
        db = self._capture_db()
        path = tmp_path / "db.jsonl"
        db.save(path)
        loaded = Database.load(path)
        with pytest.raises(TypeError):
            loaded.table("queries").append(("oops", "jazz", 7))

    def test_unserializable_dtype_rejected_before_writing(self, tmp_path):
        db = Database()
        t = db.create_table("t", [Column("payload", bytes)])
        t.append((b"\x00",))
        path = tmp_path / "db.jsonl"
        with pytest.raises(ValueError, match="dtype"):
            db.save(path)
        assert not path.exists()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            Database.load(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"table": "t", "columns": [{"name": "x", "dtype": null}]}\n')
        with pytest.raises(ValueError, match="missing database header"):
            Database.load(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no database header"):
            Database.load(path)

    def test_load_rejects_unknown_dtype_name(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"database": "d"}\n'
            '{"table": "t", "columns": [{"name": "x", "dtype": "complex"}]}\n'
        )
        with pytest.raises(ValueError, match="unknown column dtype"):
            Database.load(path)

    def test_to_rows(self):
        t = Table("t", [Column("a", int), Column("b", str)])
        t.extend([(1, "x"), (2, "y")])
        assert t.to_rows() == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        assert Table("e", ["a"]).to_rows() == []
