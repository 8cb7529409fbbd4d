"""Equality against stdlib ``sqlite3``: one key on every path.

Tables of hostile values — NaN, ``-0.0`` and ``0.0``, ``inf``, 2**53
and 2**53 + 1 as INTEGER and as REAL, ``TRUE`` / ``1`` / ``1.0`` /
``'1'``, NULL and ``''`` — are read through every path that decides
``=``: the filter kernel and the ``generic_kernels`` closure, the
column's lookup probe, the hash join (raw typed keys and ``sql_key``
ed expression keys) and the index join, ``[NOT] IN`` / ``[NOT] EXISTS``
semi-joins, GROUP BY on typed and on expression keys, DISTINCT and
``COUNT(DISTINCT)``, UNION / INTERSECT / EXCEPT, the UNIQUE refusal, the
mediator's ``union`` / ``prefer_first`` dedup and the SESQL combine.
Each answer is compared with what sqlite answers over the same values.

The oracle's tables are declared without column types, so no affinity
converts ``'1'`` to ``1``.  A BOOLEAN — a family of its own here, an
integer to sqlite — is held there as a BLOB (``x'00'`` / ``x'01'``): a
storage class no number or text equals.  A NaN is always *bound*
(sqlite reads the text ``'nan'`` as 0.0): sqlite stores a bound NaN as
NULL and makes NULL where arithmetic or SUM would make NaN, and so does
this engine.  Rows are compared as multisets of values keyed by family
(``1 == 1.0``, ``TRUE`` apart), in order where SQL fixes one.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinManager, ResourceMapping
from repro.core.ast import BoolSchemaExtension, SchemaExtension
from repro.core.sqm import Extraction
from repro.federation import Mediator
from repro.planner import PlannerOptions
from repro.rdf import Literal
from repro.relational import Database, ResultSet
from repro.relational.errors import ConstraintViolation
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from repro.relational.table import infer_column_type
from repro.relational.types import coerce_value

NAN = float("nan")
INF = float("inf")
BIG = 2 ** 53

COLUMNS = ("k", "i", "r", "t", "b")
#: Per column of ``a`` and ``b``: what a row stores there.
POOLS = {
    "i": [None, 0, 1, -1, BIG, BIG + 1],
    "r": [None, 0.0, -0.0, 1.0, 2.5, INF, -INF, float(BIG),
          float(BIG + 1), NAN],
    "t": [None, "", "1", "1.0", "a"],
    "b": [None, True, False],
}
#: What a ``?`` is bound to: every family, NULL and NaN.
KEYS = [None, 0, 1, 1.0, -0.0, 2.5, INF, BIG, BIG + 1, float(BIG), NAN,
        True, False, "", "1", "a"]
#: The family a value orders within (NULL and NaN order with any).
FAMILIES = {bool: "b", int: "n", float: "n", str: "s"}
DDL = "(k INTEGER, i INTEGER, r REAL, t TEXT, b BOOLEAN)"

rows = st.lists(st.tuples(*(st.sampled_from(POOLS[column])
                            for column in COLUMNS[1:])),
                max_size=10).map(
    lambda found: [(k,) + row for k, row in enumerate(found)])


def to_sqlite(value):
    """*value* as the oracle holds it: a boolean as a BLOB."""
    return bytes([value]) if isinstance(value, bool) else value


def from_sqlite(value):
    return bool(value[0]) if isinstance(value, bytes) else value


def keyed(row) -> tuple:
    """A row whose values compare as SQL ``=`` does (NULL equal to NULL):
    a number beside ``"n"``, a boolean beside ``"b"``."""
    return tuple((FAMILIES.get(type(value)), value) for value in row)


def multiset(found) -> Counter:
    return Counter(map(keyed, found))


def load(left, right, planner=None) -> tuple[Database, sqlite3.Connection]:
    """``a`` and ``b`` in the engine — ``a`` a row at a time (through
    ``coerce_value``), ``b`` in one append (the REAL column as it is) —
    and in the oracle."""
    db = Database() if planner is None else Database(planner=planner)
    oracle = sqlite3.connect(":memory:")
    for name, found in (("a", left), ("b", right)):
        db.execute(f"CREATE TABLE {name} {DDL}")
        if name == "a":
            for row in found:
                db.table(name).insert_row(dict(zip(COLUMNS, row)))
        else:
            db.table(name).append_rows(found)
        oracle.execute(f"CREATE TABLE {name} ({', '.join(COLUMNS)})")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?, ?)",
                           [tuple(map(to_sqlite, row)) for row in found])
    return db, oracle


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def expected(oracle: sqlite3.Connection, sql: str, values=()) -> list:
    return [tuple(map(from_sqlite, row))
            for row in oracle.execute(sql, tuple(map(to_sqlite, values)))]


# -- plain SQL: filters, probes, joins, semi-joins, grouping, set operations --

#: ``left = right`` pairs: one family (typed keys), two numeric types,
#: two families (never equal), expressions (keys made per row).
PAIRS = [("a.i", "b.i"), ("a.r", "b.r"), ("a.t", "b.t"), ("a.b", "b.b"),
         ("a.i", "b.r"), ("a.r", "b.i"), ("a.b", "b.i"), ("a.t", "b.i"),
         ("a.i + 0", "b.r"), ("a.r * 1", "b.r"), ("a.r - a.r", "b.r"),
         ("a.t || ''", "b.t")]
GROUP_KEYS = ["i", "r", "t", "b", "i, b", "r, t", "r * 0", "r - r",
              "i + 0", "t || ''", "r * 1, b"]
SET_OPERATIONS = ["UNION", "INTERSECT", "EXCEPT"]


@st.composite
def filters(draw) -> tuple[str, str, tuple]:
    """A WHERE over ``a`` with ``?`` bound to a drawn key — or, for a
    value that has one, its literal (sqlite reads the key bound)."""
    column = draw(st.sampled_from(COLUMNS[1:]))
    shape = draw(st.sampled_from(["=", "<>", "IN", "NOT IN", "literal",
                                  "range"]))
    key = draw(st.sampled_from(KEYS))
    if shape == "range":
        # Ordered comparison across families raises here; not in sqlite.
        key = draw(st.sampled_from([value for value in KEYS
                                    if value is None or value != value
                                    or FAMILIES[type(value)]
                                    == FAMILIES[type(POOLS[column][1])]]))
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        where = f"{column} {op} ?"
        return where, where, (key,)
    if shape == "literal":
        key = draw(st.sampled_from([value for value in KEYS
                                    if value not in (INF,)
                                    and value == value]))
        return (f"{column} = {render_literal(key)}", f"{column} = ?",
                (key,))
    if shape.endswith("IN"):
        other = draw(st.sampled_from(KEYS))
        where = f"{column} {shape} (?, ?)"
        return where, where, (key, other)
    where = f"{column} {shape} ?"
    return where, where, (key,)


@st.composite
def queries(draw) -> tuple[str, str, tuple]:
    """``(engine SQL, sqlite SQL, bound values)`` of one read."""
    kind = draw(st.sampled_from(["filter", "join", "semi", "group",
                                 "distinct", "set"]))
    if kind == "filter":
        ours, theirs, values = draw(filters())
        head = "SELECT k, i, r, t, b FROM a WHERE "
        return head + ours, head + theirs, values
    if kind == "join":
        left, right = draw(st.sampled_from(PAIRS))
        join = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        sql = f"SELECT a.k, b.k FROM a {join} b ON {left} = {right}"
        return sql, sql, ()
    if kind == "semi":
        left, right = draw(st.sampled_from(PAIRS))
        negated = draw(st.sampled_from(["", "NOT "]))
        if draw(st.booleans()):
            where = f"{left} {negated}IN (SELECT {right} FROM b)"
        else:
            where = f"{negated}EXISTS (SELECT 1 FROM b WHERE {right} = {left})"
        sql = f"SELECT a.k FROM a WHERE {where}"
        return sql, sql, ()
    if kind == "group":
        keys = draw(st.sampled_from(GROUP_KEYS))
        sql = f"SELECT {keys}, COUNT(*), COUNT(DISTINCT r), " \
              f"COUNT(DISTINCT r * 1) FROM a GROUP BY {keys}"
        return sql, sql, ()
    if kind == "distinct":
        sql = draw(st.sampled_from([
            "SELECT DISTINCT i, b FROM a", "SELECT DISTINCT r FROM a",
            "SELECT DISTINCT r * 0, t FROM a",
            "SELECT COUNT(DISTINCT i), COUNT(DISTINCT r), "
            "COUNT(DISTINCT t), COUNT(DISTINCT b), COUNT(DISTINCT r - r) "
            "FROM a",
            "SELECT SUM(r), AVG(r), SUM(DISTINCT r), COUNT(r), "
            "SUM(r * 1) FROM a",
        ]))
        return sql, sql, ()
    first, second = (draw(st.sampled_from(COLUMNS[1:])) for _ in "ab")
    sql = f"SELECT {first} FROM a " \
          f"{draw(st.sampled_from(SET_OPERATIONS))} SELECT {second} FROM b"
    return sql, sql, ()


@given(left=rows, right=rows, query=queries())
@settings(max_examples=300, deadline=None)
def test_every_equality_path_agrees_with_sqlite(generic_kernels, left,
                                                right, query):
    ours, theirs, values = query
    db, oracle = load(left, right)
    try:
        answer = multiset(expected(oracle, theirs, values))
    finally:
        oracle.close()
    bound = values if "?" in ours else ()     # a literal's is written
    assert multiset(db.execute_ast(parsed(ours), bound).rows) == answer, \
        (ours, values)
    with generic_kernels():
        assert multiset(db.execute_ast(parsed(ours), bound).rows) \
            == answer, (ours, values)


@given(left=rows, right=rows,
       pair=st.sampled_from(PAIRS),
       join=st.sampled_from(["JOIN", "LEFT JOIN"]))
@settings(max_examples=150, deadline=None)
def test_the_index_join_agrees_with_sqlite(forced_joins, left, right, pair,
                                           join):
    """The planner off and the join forced to probe, on any size: the
    join reads ``b``'s column lookup per outer key."""
    outer, inner = pair
    db, oracle = load(left, right, PlannerOptions(enabled=False))
    sql = f"SELECT a.k, b.k FROM a {join} b ON {inner} = {outer}"
    try:
        answer = multiset(expected(oracle, sql))
    finally:
        oracle.close()
    result = db.query(forced_joins(parsed(sql), "index-join"))
    assert "index-join" in {node.kind for node in result.plan.walk()}
    assert multiset(result.rows) == answer, sql


# -- the UNIQUE refusal -------------------------------------------------------

UNIQUE_COLUMNS = {"i": "INTEGER", "r": "REAL", "t": "TEXT", "b": "BOOLEAN"}


@given(column=st.sampled_from(sorted(UNIQUE_COLUMNS) + ["i, r"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_unique_key_refuses_what_sqlite_refuses(column, data):
    """Rows inserted one at a time into a UNIQUE column (or pair of
    columns): the engine refuses exactly the rows sqlite refuses."""
    names = column.split(", ")
    values = data.draw(st.lists(st.tuples(*(
        st.sampled_from(POOLS[name]) for name in names)), max_size=8))
    db = Database()
    db.execute("CREATE TABLE u (" + ", ".join(
        f"{name} {UNIQUE_COLUMNS[name]}" for name in names) + ")")
    oracle = sqlite3.connect(":memory:")
    oracle.execute(f"CREATE TABLE u ({column})")
    for database in (db, oracle):
        database.execute(f"CREATE UNIQUE INDEX ux ON u ({column})")
    ours, theirs = [], []
    try:
        for row in values:
            try:
                db.table("u").insert_row(dict(zip(names, row)))
            except ConstraintViolation:
                ours.append(row)
            try:
                oracle.execute(f"INSERT INTO u VALUES "
                               f"({', '.join('?' * len(names))})",
                               tuple(map(to_sqlite, row)))
            except sqlite3.IntegrityError:
                theirs.append(row)
    finally:
        oracle.close()
    assert ours == theirs


@pytest.mark.parametrize("declared, stored, given", [
    ("REAL", 1.0, NAN), ("REAL", 1.0, "nan"), ("INTEGER", 1, NAN),
    ("TEXT", "a", NAN), ("BOOLEAN", True, NAN)])
@pytest.mark.parametrize("bulk", [False, True])
def test_a_not_null_column_refuses_a_nan_as_sqlite_does(declared, stored,
                                                        given, bulk):
    """A NaN given to a column of any type, or made from text by a REAL
    column, is NULL, so NOT NULL refuses it — a row at a time, or in a
    bulk append after the rows before it are stored."""
    oracle = sqlite3.connect(":memory:")
    try:
        oracle.execute(f"CREATE TABLE n (v {declared} NOT NULL)")
        with pytest.raises(sqlite3.IntegrityError):
            oracle.execute("INSERT INTO n VALUES (?)", (NAN,))
    finally:
        oracle.close()
    db = Database()
    db.execute(f"CREATE TABLE n (v {declared} NOT NULL)")
    table = db.table("n")
    with pytest.raises(ConstraintViolation):
        if bulk:
            table.append_rows([(stored,), (given,), (stored,)])
        else:
            table.insert_row({"v": given})
    assert list(table.rows()) == ([(stored,)] if bulk else [])


# -- the mediator's reconciliation --------------------------------------------

@given(left=rows, right=rows,
       columns=st.tuples(st.sampled_from(COLUMNS[1:]),
                         st.sampled_from(COLUMNS[1:])),
       reconciliation=st.sampled_from(["union", "prefer_first"]))
@settings(max_examples=150, deadline=None)
def test_reconciliation_dedups_as_sqlite_groups(left, right, columns,
                                                reconciliation):
    """Two sources' fragments, ``x`` one column of each (families may
    differ) and ``y`` the row number: ``union`` keeps the first of each
    distinct ``(x, y)``, ``prefer_first`` the first row of each ``x`` —
    sqlite's ``GROUP BY`` with the first row's values (``MIN`` over
    fragment and row order), then typed as the view types them."""
    mediator = Mediator()
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE f (x, y, at)")
    fragments = []
    for index, (found, column) in enumerate(zip((left, right), columns)):
        source = Database()
        source.execute(f"CREATE TABLE t {DDL}")
        source.table("t").append_rows(found)
        mediator.register_source(f"s{index}", source)
        fragments.append((f"s{index}", f"SELECT {column} AS x, k % 2 AS y "
                                       f"FROM t"))
        position = COLUMNS.index(column)
        oracle.executemany("INSERT INTO f VALUES (?, ?, ?)", [
            (to_sqlite(row[position]), row[0] % 2, index * 100 + row[0])
            for row in found])
    mediator.define_view("v", fragments, reconciliation,
                         key_columns=["x"] if reconciliation
                         == "prefer_first" else None)
    group = "x, y" if reconciliation == "union" else "x"
    try:
        kept = expected(oracle, f"SELECT x, y, MIN(at) FROM f "
                                f"GROUP BY {group} ORDER BY 3")
    finally:
        oracle.close()
    result, _report = mediator.query("SELECT x, y FROM v")
    xs = [x for x, _y, _at in kept]
    data_type = infer_column_type(xs)
    assert multiset(result.rows) == multiset(
        (coerce_value(x, data_type), y) for x, y, _at in kept)
    assert [y for _x, y in result.rows] == [y for _x, y, _at in kept]


# -- the SESQL combine --------------------------------------------------------

#: Base keys (an engine result: no NaN), extracted subjects and objects.
BASE_KEYS = [None, 0, 1, 1.0, -0.0, BIG, BIG + 1, float(BIG), INF, True,
             False, "", "1"]
SUBJECTS = [0, 1, 1.0, 0.0, -0.0, BIG, BIG + 1, float(BIG), INF, NAN,
            True, False, "1"]
OBJECTS = SUBJECTS + [""]


@given(keys=st.lists(st.sampled_from(BASE_KEYS), max_size=10),
       pairs=st.lists(st.tuples(st.sampled_from(SUBJECTS),
                                st.sampled_from(OBJECTS)), max_size=8),
       flag=st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_combine_is_the_final_sql_over_hostile_keys(keys, pairs, flag):
    """SCHEMAEXTENSION is the final SQL's LEFT JOIN and
    BOOLSCHEMAEXTENSION its EXISTS, each in extraction order — a NaN
    subject or object is NULL there."""
    mapping = ResourceMapping()
    if flag:
        extraction = Extraction("", subjects={
            mapping.to_term("elem", subject) for subject, _obj in pairs})
        enrichment = BoolSchemaExtension("elem", "isA", "Hazard")
    else:
        extraction = Extraction("", pairs=[
            (mapping.to_term("elem", subject), Literal(obj))
            for subject, obj in pairs])
        enrichment = SchemaExtension("elem", "p")
    base = ResultSet(["elem", "n"], [(key, index)
                                     for index, key in enumerate(keys)])
    got = JoinManager(mapping).combine(base, enrichment, extraction)
    oracle = sqlite3.connect(":memory:")
    try:
        oracle.execute("CREATE TABLE b (k, n)")
        oracle.executemany("INSERT INTO b VALUES (?, ?)",
                           [(to_sqlite(key), index)
                            for index, key in enumerate(keys)])
        oracle.execute("CREATE TABLE m (s, o)")
        if flag:
            oracle.executemany("INSERT INTO m VALUES (?, NULL)", [
                (to_sqlite(subject),) for subject, _obj in pairs])
            answer = [(key, n, bool(found)) for key, n, found in expected(
                oracle, "SELECT k, n, EXISTS (SELECT 1 FROM m "
                        "WHERE m.s = b.k) FROM b ORDER BY b.rowid")]
        else:
            oracle.executemany("INSERT INTO m VALUES (?, ?)", [
                tuple(map(to_sqlite, pair)) for pair in pairs])
            answer = expected(oracle, "SELECT b.k, b.n, m.o FROM b LEFT JOIN "
                                      "m ON b.k = m.s "
                                      "ORDER BY b.rowid, m.rowid")
    finally:
        oracle.close()
    assert list(map(keyed, got.rows)) == list(map(keyed, answer))


@pytest.mark.parametrize("sql, rows", [
    # A NaN is NULL: it pairs with nothing, is not IN, groups with NULL,
    # is not `>=` any number, and is what `inf - inf` makes.
    ("SELECT a.k, b.k FROM a JOIN a AS b ON b.r = a.r", [(0, 0), (1, 1)]),
    ("SELECT k FROM a WHERE r IN (SELECT r FROM a)", [(0,), (1,)]),
    ("SELECT r, COUNT(*) FROM a GROUP BY r", [(1.0, 1), (INF, 1),
                                              (None, 1)]),
    ("SELECT k FROM a WHERE r >= 5", [(1,)]),
    ("SELECT r - r FROM a WHERE k = 1", [(None,)]),
])
def test_a_stored_nan_is_null_on_every_path(generic_kernels, sql, rows):
    left = [(0, None, 1.0, None, None), (1, None, INF, None, None),
            (2, None, NAN, None, None)]
    db, oracle = load(left, [])
    try:
        assert multiset(expected(oracle, sql)) == multiset(rows)
    finally:
        oracle.close()
    assert multiset(db.query(sql).rows) == multiset(rows)
    with generic_kernels():
        assert multiset(db.query(sql).rows) == multiset(rows)
