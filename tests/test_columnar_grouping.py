"""The grouping kernel: GROUP BY ids are assigned a batch at a time.

``Aggregate`` numbers the keys a batch holds that no earlier batch did,
in the order they first appear, grows every fold by that many groups at
once and looks each row's group id up; counts are tallied per batch.
What must hold: groups come out in first-seen order however the input
is cut into batches, a key evaluated per row keeps the first spelling
seen of its group, each group's DISTINCT and GROUP_CONCAT state is its
own, an empty input gives one row without GROUP BY and none with it,
and the answers are sqlite3's.  The tests fix small batch sizes
themselves; CI also runs this file at three rows a batch.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, batch
from repro.relational.parser import SqlParser
from repro.relational.table import BoundView


@contextmanager
def batch_size(size: int):
    saved, batch.BATCH_SIZE = batch.BATCH_SIZE, size
    try:
        yield
    finally:
        batch.BATCH_SIZE = saved


def table(rows: list[tuple]) -> Database:
    """``t (g TEXT, k INTEGER, u INTEGER, v REAL)`` holding *rows*."""
    db = Database()
    db.execute("CREATE TABLE t (g TEXT, k INTEGER, u INTEGER, v REAL)")
    db.insert_rows("t", (dict(zip("gkuv", row)) for row in rows))
    return db


def test_groups_come_out_in_first_seen_order_across_batches():
    rows = [("c", 1, 1, 0.5), ("a", 2, 2, 1.5), ("c", 1, 3, 2.5),
            ("b", 2, 4, None), ("a", 1, 5, 3.5), ("d", 2, 6, 4.5),
            ("b", 2, 7, 5.5)]
    db = table(rows)
    for size in (1, 2, 3, 100):
        with batch_size(size):
            assert db.query("SELECT g, COUNT(*), SUM(u) FROM t GROUP BY g"
                            ).rows == [("c", 2, 4), ("a", 2, 7),
                                       ("b", 2, 11), ("d", 1, 6)]
            assert db.query("SELECT g, k, MAX(v) FROM t GROUP BY g, k"
                            ).rows == [("c", 1, 2.5), ("a", 2, 1.5),
                                       ("b", 2, 5.5), ("a", 1, 3.5),
                                       ("d", 2, 4.5)]
            # An expression key is evaluated per row: the generic path.
            assert db.query("SELECT k * 10 AS e, COUNT(v) FROM t "
                            "GROUP BY k * 10").rows == [(10, 3), (20, 3)]


def test_the_generic_key_keeps_the_first_seen_spelling():
    """An untyped column groups by ``sql_keys``: ``1`` and ``1.0`` are
    one group, ``TRUE`` another; each group shows its first row's key,
    also when a later batch holds an earlier spelling."""
    db = Database()
    for values, shown in (([1.0, True, 1, 1.0, True, 1], [1.0, True]),
                          ([1, 1.0, True, 1.0, 1], [1, True]),
                          ([True, 1.0, 1, True], [True, 1.0])):
        view = BoundView.of("w", ["x"], [values], [set(map(type, values))],
                            coerce=False)
        assert view.schema.columns[0].data_type is None
        statement = SqlParser("SELECT x, COUNT(*) FROM w GROUP BY x",
                              first_param=0).parse_statement()
        for size in (1, 2, 100):
            with batch_size(size):
                rows = db.execute_ast(statement, (), {"w": view}).rows
            assert [type(key) for key, _count in rows] \
                == list(map(type, shown))
            assert [key for key, _count in rows] == shown
            assert sum(count for _key, count in rows) == len(values)


def test_distinct_and_concat_state_is_fresh_for_each_group():
    """The same value in two groups counts, sums and concatenates in
    each: a column fold (``u``), an expression's generic fold
    (``u + 0``) and GROUP_CONCAT."""
    db = table([("a", 1, 5, 1.0), ("b", 1, 5, 2.0), ("a", 1, 5, 3.0),
                ("b", 1, 7, 4.0), ("a", 1, None, 5.0), ("c", 1, 5, None)])
    sql = ("SELECT g, COUNT(DISTINCT u), SUM(DISTINCT u), "
           "COUNT(DISTINCT u + 0), SUM(DISTINCT u + 0), GROUP_CONCAT(v) "
           "FROM t GROUP BY g ORDER BY g")
    for size in (1, 2, 100):
        with batch_size(size):
            assert db.query(sql).rows == [
                ("a", 1, 5, 1, 5, "1.0,3.0,5.0"),
                ("b", 2, 12, 2, 12, "2.0,4.0"),
                ("c", 1, 5, 1, 5, None)]


def test_an_empty_input_gives_one_row_without_group_by_and_none_with_it():
    db = table([("a", 1, 5, 1.0)])
    where = " FROM t WHERE k > 9"
    items = ("COUNT(*), COUNT(u), SUM(u), AVG(v), MIN(g), "
             "COUNT(DISTINCT u), GROUP_CONCAT(g)")
    assert db.query(f"SELECT {items}{where}").rows == [
        (0, 0, None, None, None, 0, None)]
    for group_by in ("g", "g, k", "k * 2"):
        assert db.query(f"SELECT {items}{where} GROUP BY {group_by}"
                        ).rows == []


#: Aggregations whose ORDER BY is total over the groups (group keys are
#: never NULL, so the NULL ordering of the two engines does not show).
#: Sums and averages are over integers: sqlite may sum floats in
#: another order.
ORACLE_QUERIES = [
    "SELECT g, COUNT(*), COUNT(u), SUM(u), MIN(v), MAX(v) FROM t "
    "GROUP BY g ORDER BY g",
    "SELECT g, k, COUNT(DISTINCT u), SUM(DISTINCT u), AVG(u), MIN(g) "
    "FROM t GROUP BY g, k ORDER BY k DESC, g",
    "SELECT k + 1 AS e, COUNT(*), SUM(u), MAX(v) FROM t GROUP BY k + 1 "
    "ORDER BY e",
    "SELECT g, COUNT(*) AS n FROM t WHERE u > 1 GROUP BY g "
    "ORDER BY n DESC, g",
    "SELECT COUNT(*), COUNT(DISTINCT g), SUM(u), AVG(u), MAX(v) FROM t",
]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
           st.sampled_from(["a", "b", "c", "d", ""]), st.integers(0, 3),
           st.none() | st.integers(-2, 4),
           st.none() | st.sampled_from([0.0, -0.0, 1.5, 2.0, 7.25])),
           max_size=25),
       sql=st.sampled_from(ORACLE_QUERIES), size=st.integers(1, 4))
def test_grouping_agrees_with_sqlite(rows, sql, size):
    db = table(rows)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (g TEXT, k INTEGER, u INTEGER, v REAL)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    with batch_size(size):
        assert db.query(sql).rows == oracle.execute(sql).fetchall()
