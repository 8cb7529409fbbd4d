"""Property-based planner equivalence: for generated multi-join queries
over generated data, the planner-on and planner-off executions must
return identical row multisets (and identical column headers).

There is no fall-back to the written plan, so these tests cannot pass
vacuously: any internal planner error raises and fails the test.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import PlannerOptions
from repro.relational import (Database, ExecutionError, TypeMismatchError,
                              ast)

ON = PlannerOptions()
OFF = PlannerOptions(enabled=False)

values = st.one_of(st.none(), st.integers(0, 4))
table_rows = st.lists(st.tuples(values, values), min_size=0, max_size=12)
join_column = st.sampled_from(["x", "y"])


def build(planner: PlannerOptions, data: dict[str, list],
          indexed: bool) -> Database:
    db = Database(planner=planner)
    for name, rows in data.items():
        db.execute(f"CREATE TABLE {name} (x INTEGER, y INTEGER)")
        for x, y in rows:
            db.table(name).insert_row({"x": x, "y": y})
    if indexed:
        db.execute("CREATE INDEX idx_tb_x ON tb (x)")
    db.analyze()
    return db


def equivalent(data: dict[str, list], sql: str,
               indexed: bool = False) -> None:
    on = build(ON, data, indexed)
    off = build(OFF, data, indexed)
    got = on.query(sql)
    expected = off.query(sql)
    assert got.columns == expected.columns
    assert Counter(got.rows) == Counter(expected.rows)


@given(ta=table_rows, tb=table_rows, tc=table_rows,
       left=join_column, right=join_column,
       threshold=st.integers(0, 4), indexed=st.booleans())
@settings(max_examples=50, deadline=None)
def test_three_way_inner_join_equivalence(ta, tb, tc, left, right,
                                          threshold, indexed):
    sql = (f"SELECT ta.x, tb.y, tc.x FROM ta "
           f"JOIN tb ON ta.{left} = tb.{right} "
           f"JOIN tc ON tb.y = tc.y "
           f"WHERE tc.x > {threshold} AND 1 = 1")
    equivalent({"ta": ta, "tb": tb, "tc": tc}, sql, indexed)


@given(ta=table_rows, tb=table_rows, tc=table_rows,
       threshold=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_left_join_mix_equivalence(ta, tb, tc, threshold):
    sql = (f"SELECT ta.x, tb.y, tc.y FROM ta "
           f"JOIN tb ON ta.x = tb.x "
           f"LEFT JOIN tc ON tb.y = tc.y "
           f"WHERE ta.y >= {threshold}")
    equivalent({"ta": ta, "tb": tb, "tc": tc}, sql)


@given(ta=table_rows, tb=table_rows, indexed=st.booleans())
@settings(max_examples=40, deadline=None)
def test_star_select_equivalence(ta, tb, indexed):
    sql = ("SELECT * FROM ta JOIN tb ON ta.x = tb.x "
           "WHERE tb.y IS NOT NULL")
    equivalent({"ta": ta, "tb": tb}, sql, indexed)


@given(ta=table_rows, tb=table_rows, tc=table_rows)
@settings(max_examples=40, deadline=None)
def test_aggregate_over_joins_equivalence(ta, tb, tc):
    sql = ("SELECT ta.x, COUNT(*) AS n FROM ta "
           "JOIN tb ON ta.y = tb.y "
           "JOIN tc ON tb.x = tc.x "
           "GROUP BY ta.x ORDER BY n DESC, ta.x")
    equivalent({"ta": ta, "tb": tb, "tc": tc}, sql)


@given(ta=table_rows, tb=table_rows)
@settings(max_examples=40, deadline=None)
def test_group_key_by_meaning_equivalence(ta, tb):
    """``k`` and ``b.k`` name one column: the select item is the key
    however each is written."""
    sql = ("SELECT b.k, ta.x + 2, COUNT(*) FROM ta "
           "JOIN (SELECT x AS k, y AS j FROM tb) AS b ON ta.y = b.j "
           "GROUP BY k, ta.x + 2")
    equivalent({"ta": ta, "tb": tb}, sql)


@pytest.mark.parametrize("sql, error", [
    ("SELECT ta.x FROM ta JOIN tb ON ta.x = tb.x "
     "WHERE 1 = 0 AND NOSUCH(ta.x) = 1", ExecutionError),
    ("SELECT ta.x FROM ta JOIN tb ON ta.x = tb.x "
     "WHERE 1 = 0 AND CAST(ta.x AS BLOBBY) = 1", TypeMismatchError),
    # Folded, the key reads ``ta.x + 2``; as written it does not.
    ("SELECT ta.x + 2, COUNT(*) FROM ta JOIN tb ON ta.x = tb.x "
     "GROUP BY ta.x + (1 + 1)", ExecutionError),
])
@given(ta=table_rows, tb=table_rows)
@settings(max_examples=10, deadline=None)
def test_a_statement_is_refused_planner_on_and_off(ta, tb, sql, error):
    """Validity is decided on the statement as written, before any
    rewrite: what the planner would fold away is refused all the same."""
    for planner in (ON, OFF):
        with pytest.raises(error):
            build(planner, {"ta": ta, "tb": tb}, False).query(sql)


@given(ta=table_rows, tb=table_rows, threshold=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_derived_table_equivalence(ta, tb, threshold):
    sql = (f"SELECT s.x FROM (SELECT x, y FROM ta WHERE x <= 4) AS s "
           f"JOIN tb ON s.y = tb.y WHERE tb.x >= {threshold}")
    equivalent({"ta": ta, "tb": tb}, sql)


@given(ta=table_rows, tb=table_rows, tc=table_rows)
@settings(max_examples=40, deadline=None)
def test_on_condition_binds_in_its_own_join_equivalence(ta, tb, tc):
    """``u`` names a column of ``a`` and one of ``c``, but the first ON
    sees only ``a`` and ``tb``, where it is one — also once the planner
    pools the ON conjuncts to reorder the joins."""
    sql = ("SELECT tb.y FROM (SELECT x AS u FROM ta) AS a "
           "JOIN tb ON u = tb.x "
           "JOIN (SELECT x AS u, y AS j FROM tc) AS c ON c.j = tb.y")
    equivalent({"ta": ta, "tb": tb, "tc": tc}, sql)


@given(ta=table_rows, tb=table_rows, tc=table_rows, join=join_column,
       inner=join_column, outer=join_column,
       operator=st.sampled_from(["=", "<", ">="]),
       shape=st.sampled_from(["EXISTS", "NOT EXISTS", "IN"]),
       threshold=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_correlated_conjunct_equivalence(ta, tb, tc, join, inner, outer,
                                         operator, shape, threshold):
    """A subquery's WHERE conjunct that names an outer binding stays in
    the subquery's WHERE: it is never pushed below the subquery's join."""
    body = (f"FROM tb JOIN tc ON tb.{join} = tc.{join} "
            f"WHERE tc.{inner} {operator} ta.{outer} "
            f"AND tb.y >= {threshold}")
    where = (f"ta.x IN (SELECT tb.x {body})" if shape == "IN"
             else f"{shape} (SELECT 1 {body})")
    sql = f"SELECT ta.x, ta.y FROM ta WHERE {where}"
    data = {"ta": ta, "tb": tb, "tc": tc}
    equivalent(data, sql)
    planned = build(ON, data, False).explain(sql).query
    for node in ast.iter_query_nodes(planned):
        if isinstance(node, ast.SubqueryRef):
            assert not any(
                isinstance(ref, ast.ColumnRef) and ref.qualifier == "ta"
                for ref in ast.iter_query_nodes(node.query)), sql
