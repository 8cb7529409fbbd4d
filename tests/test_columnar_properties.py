"""Property-based column-kernel / generic-kernel equivalence.

Random tables (mixed column types, NULLs, deletes interleaved with the
inserts) crossed with random SELECT shapes: the engine's specialised
column kernels must return byte-identical results to a twin database
queried under the ``generic_kernels`` fixture (every filter, projection
and aggregate on its compiled row expression) — same column headers,
same rows, same order for ORDER BY queries, same multiset otherwise.

NaN is deliberately excluded from the generated data: SQL comparison
semantics over NaN are pinned by the deterministic kernel tests, while
here float equality would make "byte-identical" ill-defined.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database
from repro.relational.operators import Aggregate, Filter, Project

int_values = st.one_of(st.none(), st.integers(-3, 6))
real_values = st.one_of(st.none(), st.integers(-2, 4).map(float),
                        st.just(0.5), st.just(-1.25))
text_values = st.one_of(st.none(), st.sampled_from(["a", "b", "ab", ""]))
bool_values = st.one_of(st.none(), st.booleans())

table_rows = st.lists(
    st.tuples(int_values, real_values, text_values, bool_values),
    min_size=0, max_size=25)
#: Which generated rows to delete again, interleaved with the inserts.
delete_mask = st.lists(st.booleans(), min_size=25, max_size=25)

int_literal = st.integers(-3, 6)
real_literal = st.sampled_from([-2.0, -1.25, 0.0, 0.5, 2.0, 4.0])
text_literal = st.sampled_from(["'a'", "'b'", "'ab'", "''"])

comparison_op = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def predicates(draw, depth: int = 2) -> str:
    if depth > 0 and draw(st.booleans()):
        left = draw(predicates(depth=depth - 1))
        right = draw(predicates(depth=depth - 1))
        combiner = draw(st.sampled_from(["AND", "OR"]))
        clause = f"({left} {combiner} {right})"
        return f"NOT {clause}" if draw(st.booleans()) else clause
    kind = draw(st.sampled_from(
        ["int-cmp", "real-cmp", "text-cmp", "bool", "null", "in",
         "between", "like", "col-col"]))
    if kind == "int-cmp":
        return f"i {draw(comparison_op)} {draw(int_literal)}"
    if kind == "real-cmp":
        return f"r {draw(comparison_op)} {draw(real_literal)}"
    if kind == "text-cmp":
        return f"t {draw(comparison_op)} {draw(text_literal)}"
    if kind == "bool":
        return draw(st.sampled_from(["b", "NOT b"]))
    if kind == "null":
        column = draw(st.sampled_from(["i", "r", "t", "b"]))
        form = draw(st.sampled_from(["IS NULL", "IS NOT NULL"]))
        return f"{column} {form}"
    if kind == "in":
        items = draw(st.lists(int_literal, min_size=1, max_size=3))
        negated = "NOT IN" if draw(st.booleans()) else "IN"
        return f"i {negated} ({', '.join(map(str, items))})"
    if kind == "between":
        low, high = draw(int_literal), draw(int_literal)
        negated = "NOT BETWEEN" if draw(st.booleans()) else "BETWEEN"
        return f"i {negated} {low} AND {high}"
    if kind == "like":
        pattern = draw(st.sampled_from(["'a%'", "'%b'", "'a_'", "'%'"]))
        negated = "NOT LIKE" if draw(st.booleans()) else "LIKE"
        return f"t {negated} {pattern}"
    return f"i {draw(comparison_op)} i"          # col-col


@st.composite
def select_queries(draw) -> tuple[str, bool]:
    """A random SELECT over table ``t``; returns (sql, ordered)."""
    shape = draw(st.sampled_from(["star", "project", "aggregate"]))
    where = f" WHERE {draw(predicates())}" \
        if draw(st.booleans()) else ""
    if shape == "aggregate":
        # GROUP BY output order is first-seen on both paths.
        return (f"SELECT t, COUNT(*), COUNT(i), SUM(i), AVG(r), "
                f"MIN(i), MAX(r) FROM t{where} GROUP BY t"), False
    items = "*" if shape == "star" else \
        ", ".join(draw(st.permutations(["i", "r", "t", "b"]))[:3])
    sql = f"SELECT {items} FROM t{where}"
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        sql += f" ORDER BY i {direction}, r {direction}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(0, 10))}"
        return sql, True
    return sql, False


def build(rows, mask) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (i INTEGER, r REAL, t TEXT, b BOOLEAN)")
    table = db.catalog.table("t")
    pending = []
    for position, row in enumerate(rows):
        row_id = table.insert_row(
            dict(zip(("i", "r", "t", "b"), row)))
        pending.append(row_id)
        # Interleave deletes with the inserts so the deleted bitmap
        # (and its batch-boundary handling) is exercised mid-build.
        if mask[position] and len(pending) > 1:
            victim = pending.pop(position % len(pending))
            table.delete_row(victim)
    return db


@given(rows=table_rows, mask=delete_mask, query=select_queries())
@settings(max_examples=120, deadline=None)
def test_vectorized_matches_row_path(generic_kernels, rows, mask, query):
    sql, ordered = query
    vector_db = build(rows, mask)
    row_db = build(rows, mask)
    got = vector_db.query(sql)
    with generic_kernels():
        expected = row_db.query(sql)
    assert got.columns == expected.columns
    if ordered:
        assert got.rows == expected.rows
    else:
        assert Counter(got.rows) == Counter(expected.rows)
    # The two databases really took different paths: in the reference
    # no operator that chooses its kernel chose a column kernel.
    assert [node.kind for node in expected.plan.walk() if node.vectorized
            and isinstance(node, (Filter, Project, Aggregate))] == []
