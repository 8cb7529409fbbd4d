"""``[NOT] IN (subquery)`` / ``[NOT] EXISTS`` against stdlib ``sqlite3``.

The first external oracle for subquery predicates: random NULL-bearing
tables, the four predicates (with and without a residual, over plain
and expression operands), the default engine — which runs them as semi /
anti joins — and the ``generic_kernels`` closure path, each compared
with what SQLite answers over the same rows.

Two documented divergences are kept out of the comparison, the way
``benchmarks/e2e``'s oracle does: the SQLite tables are declared without
column types, so no affinity converts ``'1'`` to ``1`` (``TEXT =
INTEGER`` is false on both sides), and BOOLEAN — an integer to SQLite,
a family of its own here — is never compared with a number and is read
back as 0 / 1.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database

COLUMNS = ("k", "i", "r", "t", "b")

rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 3)),
              st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 0.5])),
              st.one_of(st.none(), st.sampled_from(["0", "1", "a"])),
              st.one_of(st.none(), st.booleans())),
    min_size=0, max_size=10).map(
        lambda found: [(k,) + row for k, row in enumerate(found)])

#: ``(operand over a, column of b)``: one family, the two numeric
#: types, TEXT against INTEGER (never equal), an expression operand.
PAIRS = [("a.i", "i"), ("a.r", "r"), ("a.t", "t"), ("a.b", "b"),
         ("a.i", "r"), ("a.r", "i"), ("a.t", "i"), ("a.i + 1", "i"),
         ("a.t || ''", "t"), ("2 / a.i", "i")]
#: Written before the predicate, so it guards the division on every
#: path (SQLite would answer NULL for ``2 / 0``, this engine raises) —
#: as a mask kernel and as a generic conjunct.
GUARDS = ["a.i <> 0 AND ", "a.i + 0 <> 0 AND "]
BUILD_FILTERS = ["1 = 1", "i IS NOT NULL AND r IS NOT NULL AND "
                 "t IS NOT NULL AND b IS NOT NULL", "i IS NULL", "r > 100.0"]


@st.composite
def queries(draw) -> str:
    operand, column = draw(st.sampled_from(PAIRS))
    keep = draw(st.sampled_from(BUILD_FILTERS))
    negated = draw(st.sampled_from(["", "NOT "]))
    if draw(st.booleans()):
        where = f"{operand} {negated}IN " \
                f"(SELECT {column} FROM b WHERE {keep})"
    else:
        residual = draw(st.sampled_from(
            ["", " AND b.k <> a.k", " AND (b.t = a.t OR a.i > 1)"]))
        where = f"{negated}EXISTS (SELECT 1 FROM b WHERE b.{column} = " \
                f"{operand} AND {keep}{residual})"
    if operand == "2 / a.i":
        where = draw(st.sampled_from(GUARDS)) + where
    if draw(st.booleans()):
        where += " AND a.k >= 1"
    return f"SELECT a.k, a.i, a.r, a.t, a.b FROM a WHERE {where} " \
           "ORDER BY a.k"


def load(left, right) -> tuple[Database, sqlite3.Connection]:
    db = Database()
    oracle = sqlite3.connect(":memory:")
    for name, found in (("a", left), ("b", right)):
        db.execute(f"CREATE TABLE {name} (k INTEGER, i INTEGER, r REAL, "
                   "t TEXT, b BOOLEAN)")
        db.insert_rows(name, (dict(zip(COLUMNS, row)) for row in found))
        oracle.execute(f"CREATE TABLE {name} ({', '.join(COLUMNS)})")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?, ?)",
                           found)
    return db, oracle


def as_sqlite(found: list[tuple]) -> list[tuple]:
    return [tuple(int(value) if isinstance(value, bool) else value
                  for value in row) for row in found]


@given(left=rows, right=rows, sql=queries())
@settings(max_examples=300, deadline=None)
def test_subquery_predicates_agree_with_sqlite(generic_kernels, left, right,
                                               sql):
    db, oracle = load(left, right)
    try:
        expected = oracle.execute(sql).fetchall()
    finally:
        oracle.close()
    result = db.query(sql)
    assert as_sqlite(result.rows) == expected, sql
    assert {"semi-join", "anti-join"} \
        & {node.kind for node in result.plan.walk()}, sql
    with generic_kernels():
        assert as_sqlite(db.query(sql).rows) == expected, sql


@pytest.mark.parametrize("sql, expected", [
    # x NOT IN (... NULL ...) returns no row; x NOT IN (empty) every row.
    ("SELECT k FROM a WHERE i NOT IN (SELECT i FROM b)", []),
    ("SELECT k FROM a WHERE i NOT IN (SELECT i FROM b WHERE i > 9)",
     [(0,), (1,), (2,)]),
    ("SELECT k FROM a WHERE i IN (SELECT i FROM b)", [(0,)]),
    ("SELECT k FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE b.i = a.i)",
     [(1,), (2,)]),
])
def test_the_pinned_cases_agree_with_sqlite(generic_kernels, sql, expected):
    db, oracle = load([(0, 1, None, None, None), (1, 2, None, None, None),
                       (2, None, None, None, None)],
                      [(0, 1, None, None, None), (1, None, None, None, None)])
    assert oracle.execute(sql).fetchall() == expected
    oracle.close()
    assert db.query(sql).rows == expected
    with generic_kernels():
        assert db.query(sql).rows == expected


@pytest.mark.parametrize("sql", [
    "SELECT a.i, COUNT(*) FROM a GROUP BY i ORDER BY 1",
    "SELECT i, COUNT(*) FROM a GROUP BY a.i ORDER BY 1"])
def test_a_group_key_written_two_ways_agrees_with_sqlite(sql):
    """A select item equals a group key by the column it names, not by
    its spelling."""
    db, oracle = load([(0, 1, None, None, None), (1, 1, None, None, None),
                       (2, 2, None, None, None)], [])
    assert oracle.execute(sql).fetchall() == [(1, 2), (2, 1)]
    oracle.close()
    assert db.query(sql).rows == [(1, 2), (2, 1)]


def test_a_values_row_does_not_see_its_own_statement():
    """Every row of an ``INSERT ... VALUES`` is evaluated before any is
    stored, so a scalar subquery in a later row reads the table as it
    was before the statement, as in SQLite."""
    insert = ("INSERT INTO a (k) VALUES ((SELECT COUNT(*) FROM a)), "
              "((SELECT COUNT(*) FROM a))")
    db, oracle = load([], [])
    oracle.execute(insert)
    expected = oracle.execute("SELECT k FROM a ORDER BY k").fetchall()
    oracle.close()
    assert expected == [(0,), (0,)]
    db.execute(insert)
    assert db.query("SELECT k FROM a ORDER BY k").rows == expected


@pytest.mark.parametrize("having", [
    # The operand of a subquery predicate is a HAVING expression like
    # any other: an aggregate, a group key, an expression over both.
    "SUM(i) IN (SELECT i FROM b)",
    "k IN (SELECT i - 2 FROM b)",
    "SUM(i) + k IN (SELECT i FROM b WHERE i IS NOT NULL)",
    # NOT IN over a subquery holding a NULL keeps no group ...
    "SUM(i) NOT IN (SELECT i FROM b)",
    # ... without it, the groups the subquery misses (a NULL sum never).
    "SUM(i) NOT IN (SELECT i FROM b WHERE i IS NOT NULL)",
    "COUNT(*) NOT IN (SELECT i FROM b WHERE i > 9)",
    # Scalar subqueries compare with aggregates and keys alike.
    "SUM(i) >= (SELECT MAX(i) FROM b)",
    "k < (SELECT COUNT(*) FROM b)",
    # Correlated: the subquery reads the group key as an outer column.
    "SUM(i) IN (SELECT i FROM b WHERE b.i > a.k)",
    "EXISTS (SELECT 1 FROM b WHERE b.i = a.k)",
    "NOT EXISTS (SELECT 1 FROM b WHERE b.i = a.k + 1)",
    "SUM(i) > (SELECT MIN(i) FROM b WHERE b.i >= a.k)",
])
def test_having_subquery_predicates_agree_with_sqlite(generic_kernels,
                                                      having):
    db, oracle = load(
        [(1, 2, None, None, None), (1, 3, None, None, None),
         (2, 5, None, None, None), (3, 1, None, None, None),
         (3, None, None, None, None), (4, None, None, None, None)],
        [(0, 5, None, None, None), (1, 3, None, None, None),
         (2, 1, None, None, None), (3, None, None, None, None)])
    sql = f"SELECT k, SUM(i), COUNT(*) FROM a GROUP BY k HAVING {having} " \
          "ORDER BY k"
    expected = oracle.execute(sql).fetchall()
    oracle.close()
    assert db.query(sql).rows == expected, sql
    with generic_kernels():
        assert db.query(sql).rows == expected, sql


def test_having_subquery_sees_group_keys_only(generic_kernels):
    db, oracle = load([(1, 2, None, None, None)], [(0, 2, None, None, None)])
    oracle.close()
    from repro.relational.errors import UnknownColumnError
    with pytest.raises(UnknownColumnError):
        db.query("SELECT k FROM a GROUP BY k "
                 "HAVING EXISTS (SELECT 1 FROM b WHERE b.i = a.i)")


# -- the benchmark's join shapes ----------------------------------------------
#
# join2 / join3 of ``benchmarks/e2e``'s sql_analytic in miniature: two
# joins, GROUP BY, ORDER BY ... LIMIT, and foreign keys that may be NULL
# or dangle.  NULL group keys are ordered through COALESCE (the two
# engines place NULLs at opposite ends); concentrations are exact binary
# fractions, so AVG agrees to the bit whatever order a plan sums in.

LAND_NAMES = ["l0", "l1", "l2", "l3"]

lands = st.lists(st.one_of(st.none(), st.sampled_from(["Lyon", "Torino"])),
                 min_size=0, max_size=4).map(
    lambda cities: [(k, LAND_NAMES[k], city)
                    for k, city in enumerate(cities)])
samples = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(LAND_NAMES + ["lx"])),
              st.integers(2010, 2013)),
    min_size=0, max_size=8).map(
        lambda found: [(k,) + row for k, row in enumerate(found)])
analyses = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 9)),
              st.sampled_from(["A", "B"]),
              st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0]))),
    min_size=0, max_size=16).map(
        lambda found: [(k,) + row for k, row in enumerate(found)])

JOIN_SHAPES = [
    # join2
    "SELECT s.land_name, COUNT(*) AS n, AVG(a.conc) AS c "
    "FROM anal a JOIN samp s ON a.samp_id = s.id WHERE a.lab = 'A' "
    "GROUP BY s.land_name ORDER BY n DESC, COALESCE(s.land_name, '') "
    "LIMIT 3",
    # join3
    "SELECT l.city, COUNT(*) AS n, AVG(a.conc) AS c "
    "FROM anal a JOIN samp s ON a.samp_id = s.id "
    "JOIN land l ON s.land_name = l.name "
    "WHERE a.lab = 'B' AND s.year >= 2011 "
    "GROUP BY l.city ORDER BY COALESCE(l.city, '')",
    # LEFT joins: the pads are NULL rows, counted by COUNT(*) only
    "SELECT s.id, COUNT(*) AS n, COUNT(a.id) AS m, MAX(a.conc) AS c "
    "FROM samp s LEFT JOIN anal a ON a.samp_id = s.id AND a.lab = 'A' "
    "GROUP BY s.id ORDER BY s.id",
    "SELECT a.id, s.id, l.city FROM anal a "
    "LEFT JOIN samp s ON a.samp_id = s.id "
    "LEFT JOIN land l ON s.land_name = l.name ORDER BY a.id, s.id",
]


def load_smartground(land, samp, anal, analyzed: bool
                     ) -> tuple[Database, sqlite3.Connection]:
    db = Database()
    db.execute_script("""
        CREATE TABLE land (id INTEGER PRIMARY KEY, name TEXT UNIQUE,
                           city TEXT);
        CREATE TABLE samp (id INTEGER PRIMARY KEY, land_name TEXT,
                           year INTEGER);
        CREATE TABLE anal (id INTEGER PRIMARY KEY, samp_id INTEGER,
                           lab TEXT, conc REAL);
    """)
    oracle = sqlite3.connect(":memory:")
    for name, columns, found in (
            ("land", ("id", "name", "city"), land),
            ("samp", ("id", "land_name", "year"), samp),
            ("anal", ("id", "samp_id", "lab", "conc"), anal)):
        db.insert_rows(name, (dict(zip(columns, row)) for row in found))
        oracle.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            found)
    if analyzed:
        db.execute("ANALYZE")
    return db, oracle


@pytest.mark.parametrize("sql", JOIN_SHAPES)
@given(land=lands, samp=samples, anal=analyses, analyzed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_benchmark_join_shapes_agree_with_sqlite(generic_kernels, sql,
                                                     land, samp, anal,
                                                     analyzed):
    db, oracle = load_smartground(land, samp, anal, analyzed)
    try:
        expected = oracle.execute(sql).fetchall()
    finally:
        oracle.close()
    assert db.query(sql).rows == expected, sql
    with generic_kernels():
        assert db.query(sql).rows == expected, sql


# -- DISTINCT, set operations, GROUP BY ... HAVING, ORDER BY ... LIMIT --------
#
# The operators no kernel selector switches: ``generic_kernels`` leaves
# DISTINCT, set operations and LIMIT as they are, so SQLite is their
# reference.  Every column holds one type family (and NULLs),
# and a set operation's operands put the same columns side by side, so
# no column mixes families.  Where SQL leaves the order open, rows are
# compared as multisets; an ORDER BY names every column, so its order is
# total, and SQLite is told where this engine puts NULLs (last ascending,
# first descending).

family_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 2)),
              st.one_of(st.none(), st.integers(-1, 2)),
              st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
              st.one_of(st.none(), st.sampled_from(["", "a", "b"])),
              st.one_of(st.none(), st.booleans())),
    min_size=0, max_size=12)

WHERES = ["", " WHERE i IS NOT NULL", " WHERE r > 0.5", " WHERE t <> 'a'",
          " WHERE b", " WHERE k + 0 > 0"]
HAVINGS = ["COUNT(*) > 1", "SUM(i) IS NOT NULL", "MIN(t) <> 'a'",
           "MAX(r) >= 1.0", "COUNT(DISTINCT t) = 1"]
SET_OPERATIONS = ["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]


@st.composite
def unordered_queries(draw) -> str:
    """A DISTINCT, a 2-3 operand set-operation chain or a GROUP BY ...
    HAVING: SQL leaves the order of their rows open."""
    columns = ", ".join(draw(st.lists(st.sampled_from(COLUMNS), min_size=1,
                                      max_size=3, unique=True)))

    def operand() -> str:
        return f"SELECT {columns} FROM {draw(st.sampled_from('ab'))}" \
               f"{draw(st.sampled_from(WHERES))}"
    shape = draw(st.sampled_from(["distinct", "set", "group"]))
    if shape == "distinct":
        return operand().replace("SELECT", "SELECT DISTINCT", 1)
    if shape == "set":
        sql = operand()
        for _ in range(draw(st.integers(1, 2))):
            sql += f" {draw(st.sampled_from(SET_OPERATIONS))} {operand()}"
        return sql
    keys = draw(st.lists(st.sampled_from(["k", "i", "t", "b"]),
                         min_size=1, max_size=2, unique=True))

    def spelled(key: str) -> str:
        """*key* qualified or not: one column, either way it is written
        in the select list and in GROUP BY."""
        return draw(st.sampled_from([key, f"a.{key}"]))
    items = ", ".join(map(spelled, keys))
    return f"SELECT {items}, COUNT(*), SUM(i), MIN(t), MAX(r), AVG(r) " \
           f"FROM a{draw(st.sampled_from(WHERES))} " \
           f"GROUP BY {', '.join(map(spelled, keys))} " \
           f"HAVING {draw(st.sampled_from(HAVINGS))}"


@st.composite
def limited_queries(draw) -> tuple[str, str]:
    """``ORDER BY`` every column, ``LIMIT n [OFFSET m]``: this engine's
    text, and SQLite's with the NULL placement spelled out."""
    order = draw(st.permutations(COLUMNS))
    descending = draw(st.lists(st.booleans(), min_size=len(order),
                               max_size=len(order)))
    limit = f" LIMIT {draw(st.integers(0, 6))}"
    if draw(st.booleans()):
        limit += f" OFFSET {draw(st.integers(0, 5))}"
    head = f"SELECT {', '.join(COLUMNS)} FROM a" \
           f"{draw(st.sampled_from(WHERES))} ORDER BY "
    ours = ", ".join(column + " DESC" * flag
                     for column, flag in zip(order, descending))
    theirs = ", ".join(column + (" DESC NULLS FIRST" if flag
                                 else " NULLS LAST")
                       for column, flag in zip(order, descending))
    return head + ours + limit, head + theirs + limit


def as_multiset(found: list[tuple]) -> list[str]:
    return sorted(map(repr, as_sqlite(found)))


@pytest.mark.parametrize("size", [1, 3, 2048])
@given(left=family_rows, right=family_rows, sql=unordered_queries(),
       limited=limited_queries())
@settings(max_examples=80, deadline=None)
def test_distinct_set_operations_grouping_and_limits_agree_with_sqlite(
        generic_kernels, size, left, right, sql, limited):
    from repro.relational import batch
    db, oracle = load(left, right)
    try:
        expected = oracle.execute(sql).fetchall()
        ours, theirs = limited
        expected_limited = oracle.execute(theirs).fetchall()
    finally:
        oracle.close()
    saved, batch.BATCH_SIZE = batch.BATCH_SIZE, size
    try:
        for engine in (db.query, db.stream):
            assert as_multiset(list(engine(sql))) == as_multiset(expected), \
                sql
            assert as_sqlite(list(engine(ours))) == expected_limited, ours
        with generic_kernels():
            assert as_multiset(db.query(sql).rows) == as_multiset(expected), \
                sql
            assert as_sqlite(db.query(ours).rows) == expected_limited, ours
    finally:
        batch.BATCH_SIZE = saved
