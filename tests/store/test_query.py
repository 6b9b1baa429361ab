"""Tests for tests.store.relational.query (join and aggregation)."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tests.store.relational.query import group_count, inner_join
from tests.store.relational.table import Table


def make_sides():
    left = Table("queries", ["guid", "source"])
    left.extend([(1, "a"), (2, "b"), (3, "c"), (2, "b2")])
    right = Table("replies", ["guid", "replier"])
    right.extend([(2, "x"), (3, "y"), (2, "z"), (9, "w")])
    return left, right


class TestInnerJoin:
    def test_basic_join(self):
        left, right = make_sides()
        out = inner_join(left, right, on="guid")
        rows = set(out.iter_rows())
        assert rows == {
            (2, "b", "x"),
            (2, "b", "z"),
            (3, "c", "y"),
            (2, "b2", "x"),
            (2, "b2", "z"),
        }

    def test_column_selection(self):
        left, right = make_sides()
        out = inner_join(left, right, on="guid", left_columns=[], right_columns=["replier"])
        assert out.column_names == ("guid", "replier")

    def test_name_collision_prefixed(self):
        left = Table("l", ["guid", "time"])
        left.append((1, 10.0))
        right = Table("r", ["guid", "time"])
        right.append((1, 20.0))
        out = inner_join(left, right, on="guid")
        assert out.column_names == ("guid", "time", "r.time")
        assert out.row(0) == (1, 10.0, 20.0)

    def test_empty_result(self):
        left = Table("l", ["guid", "v"])
        left.append((1, "a"))
        right = Table("r", ["guid", "w"])
        right.append((2, "b"))
        out = inner_join(left, right, on="guid")
        assert len(out) == 0

    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 100)), max_size=40),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 100)), max_size=40),
    )
    def test_matches_nested_loop_join(self, left_rows, right_rows):
        left = Table("l", ["guid", "lv"])
        left.extend(left_rows)
        right = Table("r", ["guid", "rv"])
        right.extend(right_rows)
        out = inner_join(left, right, on="guid")
        expected = Counter(
            (lg, lv, rv)
            for lg, lv in left_rows
            for rg, rv in right_rows
            if lg == rg
        )
        assert Counter(out.iter_rows()) == expected


class TestGroupCount:
    def test_single_column(self):
        table = Table("t", ["source"])
        table.extend([("a",), ("b",), ("a",)])
        assert group_count(table, ["source"]) == Counter({("a",): 2, ("b",): 1})

    def test_pair_grouping(self):
        table = Table("t", ["source", "replier"])
        table.extend([(1, 2), (1, 2), (1, 3)])
        counts = group_count(table, ["source", "replier"])
        assert counts[(1, 2)] == 2
        assert counts[(1, 3)] == 1

    def test_empty_table(self):
        table = Table("t", ["a"])
        assert group_count(table, ["a"]) == Counter()

    def test_requires_columns(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            group_count(table, [])
