"""Property-based column-kernel / generic-kernel equivalence.

Random tables (mixed column types, NULLs, deletes interleaved with the
inserts) crossed with random SELECT shapes: the engine's specialised
column kernels must return byte-identical results to a twin database
queried under the ``generic_kernels`` fixture (every filter, projection,
aggregate, hash join and sort on its compiled row expression) — same
column headers, same rows, same order for ORDER BY queries, same
multiset otherwise.  Join and ORDER BY shapes are compared row for row
*and in order* (a join emits in left order with matches in right-input
order; a sort is stable), and must fail with the same error when the
reference does.

Only the conjunct-narrowing rows draw NaN: a stored NaN is NULL
(``relational/types.py``), so elsewhere the NULLs drawn cover it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import PlannerOptions
from repro.relational import Database, batch
from repro.relational.batch import Batch
from repro.relational.errors import RelationalError
from repro.relational.executor import build_select
from repro.relational.operators import (Aggregate, Filter, Join, Operator,
                                        Project, Scan, Sort)
from repro.relational.parser import parse_sql

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


# -- joins and ORDER BY: compared in order, errors included -------------------


def outcome(db: Database, sql: str):
    """What running *sql* gives: the plan plus either columns and rows
    (in order) or the error's type and message."""
    try:
        result = db.query(sql)
    except RelationalError as exc:
        return None, (type(exc), str(exc))
    return result.plan, (result.columns, result.rows)


#: Few distinct values per column, so keys collide across tables and
#: families (``1`` / ``1.0`` / ``'1'`` / ``TRUE``) and sorts have ties.
colliding_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 2)),
              st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 0.5])),
              st.one_of(st.none(), st.sampled_from(["0", "1", "a"])),
              bool_values),
    min_size=2, max_size=12)


def build_pair(left_rows, right_rows) -> Database:
    db = Database()
    for name, rows in (("a", left_rows), ("b", right_rows)):
        db.execute(f"CREATE TABLE {name} "
                   "(i INTEGER, r REAL, t TEXT, b BOOLEAN)")
        db.insert_rows(name, (dict(zip(("i", "r", "t", "b"), row))
                              for row in rows))
    return db


def assert_same_as_generic(generic_kernels, make_db, sql: str) -> None:
    plan, got = outcome(make_db(), sql)
    with generic_kernels():
        reference, expected = outcome(make_db(), sql)
    assert got == expected, sql
    if reference is not None:
        assert [node.kind for node in reference.walk() if node.vectorized
                and isinstance(node, (Filter, Project, Aggregate, Join,
                                      Sort))] == []
        # Same tree either way: only the kernels differ.
        assert [node.kind for node in plan.walk()] \
            == [node.kind for node in reference.walk()]


#: ``left = right`` key pairs: same family (raw-key kernel), INTEGER
#: against REAL (one numeric family), BOOLEAN against INTEGER (never
#: equal in SQL, equal in Python: must stay on normalised keys), TEXT
#: against INTEGER, and an expression key.
KEY_PAIRS = ["a.i = b.i", "a.t = b.t", "a.b = b.b", "a.r = b.r",
             "a.i = b.r", "b.r = a.i", "a.b = b.i", "a.t = b.i",
             "a.i + 1 = b.i"]


@st.composite
def join_queries(draw, first_pair: str) -> str:
    join = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    on = first_pair
    if draw(st.booleans()):
        on += " AND " + draw(st.sampled_from(
            [pair for pair in KEY_PAIRS if pair != first_pair]))
    if draw(st.booleans()):
        on += " AND a.i > b.i"
    right = draw(st.sampled_from([
        "b", "(SELECT i, r, t, b FROM b WHERE i IS NOT NULL) AS b",
        "(SELECT i, r, t, b FROM b UNION ALL SELECT r, i, t, b FROM b) "
        "AS b"]))
    return f"SELECT * FROM a {join} {right} ON {on}"


@pytest.mark.parametrize("first_pair", KEY_PAIRS)
@given(left=colliding_rows, right=colliding_rows, data=st.data())
@settings(max_examples=40, deadline=None)
def test_joins_match_generic_keys_in_order(generic_kernels, first_pair,
                                           left, right, data):
    assert_same_as_generic(generic_kernels,
                           lambda: build_pair(left, right),
                           data.draw(join_queries(first_pair)))


sort_keys = st.sampled_from([
    "i", "r", "t", "b", "i + 1", "r * -1.0", "t || 'x'",
    "COALESCE(i, 0)", "i = 2"])
order_items = st.lists(
    st.tuples(sort_keys, st.sampled_from(["", " ASC", " DESC"])),
    min_size=1, max_size=3).map(
        lambda items: ", ".join(key + direction
                                for key, direction in items))
grouped_keys = st.lists(
    st.tuples(st.sampled_from(["t", "n", "s", "m", "n + 1"]),
              st.sampled_from(["", " DESC"])),
    min_size=1, max_size=3).map(
        lambda items: ", ".join(key + direction
                                for key, direction in items))
#: Second operand of a UNION ALL under ``SELECT i AS x``: the same
#: family, the other numeric type, and two families ORDER BY must
#: refuse to compare with integers.
union_operands = st.sampled_from(["i", "r", "t", "b"])


@st.composite
def ordered_queries(draw, shape: str) -> str:
    if shape == "plain":
        sql = f"SELECT * FROM t ORDER BY {draw(order_items)}"
    elif shape == "grouped":
        sql = ("SELECT t, COUNT(*) AS n, SUM(i) AS s, MAX(r) AS m FROM t "
               f"GROUP BY t ORDER BY {draw(grouped_keys)}")
    else:
        direction = draw(st.sampled_from(["", " DESC"]))
        sql = (f"SELECT i AS x FROM t UNION ALL "
               f"SELECT {draw(union_operands)} FROM t "
               f"ORDER BY x{direction}")
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 10))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(0, 5))}"
    return sql


@pytest.mark.parametrize("shape", ["plain", "grouped", "union"])
@given(rows=colliding_rows, mask=delete_mask, data=st.data())
@settings(max_examples=80, deadline=None)
def test_order_by_matches_comparator_in_order(generic_kernels, shape, rows,
                                              mask, data):
    assert_same_as_generic(generic_kernels, lambda: build(rows, mask),
                           data.draw(ordered_queries(shape)))


# -- WHERE-side subquery predicates: semi / anti joins vs the closure -------------

#: What is tested for membership: plain columns of each family and
#: expressions (which take the normalised-key path).
SEMI_OPERANDS = ["a.i", "a.r", "a.t", "a.b", "a.i + 1", "COALESCE(a.t, '1')",
                 "2 / a.i"]
#: Conjuncts written before the predicate: they guard it (the last two
#: keep ``2 / a.i`` from dividing by zero — one has a mask kernel, one
#: runs on the generic predicate).  Unguarded, an IN must raise with
#: both engines; an EXISTS is always guarded, because whether its key is
#: ever evaluated depends on the mask kernels the reference lacks.
GUARDS = ["", "", "a.i >= 0 AND ", "a.i <> 0 AND ", "a.i + 0 <> 0 AND "]
#: What the subquery offers: each family (so ``TEXT IN (SELECT integer)``
#: and ``BOOLEAN IN (SELECT integer)`` occur), and an expression.
BUILD_COLUMNS = ["i", "r", "t", "b", "i + 1"]
#: The build side as it is, NULL-free, all-NULL in INTEGER, and empty.
BUILD_FILTERS = ["TRUE", "i IS NOT NULL AND r IS NOT NULL AND "
                 "t IS NOT NULL AND b IS NOT NULL", "i IS NULL", "r > 100.0"]


@st.composite
def subquery_predicates(draw) -> str:
    operand = draw(st.sampled_from(SEMI_OPERANDS))
    column = draw(st.sampled_from(BUILD_COLUMNS))
    keep = draw(st.sampled_from(BUILD_FILTERS))
    negated = draw(st.sampled_from(["", "NOT "]))
    guards = GUARDS
    if draw(st.booleans()):
        where = f"{operand} {negated}IN " \
                f"(SELECT {column} FROM b WHERE {keep})"
    else:
        if operand == "2 / a.i":
            guards = GUARDS[-2:]
        inner = column.replace("i", "b.i") if column == "i + 1" \
            else f"b.{column}"
        residual = draw(st.sampled_from(
            ["", " AND b.i <> a.i", " AND (b.t = a.t OR a.b)"]))
        where = f"{negated}EXISTS (SELECT 1 FROM b WHERE {inner} = " \
                f"{operand} AND {keep}{residual})"
    where = draw(st.sampled_from(guards)) + where
    if draw(st.booleans()):
        where += " AND a.i >= 0"
    return f"SELECT * FROM a WHERE {where}"


@pytest.mark.parametrize("batch_size", [1, 3, 2048])
@given(left=colliding_rows, right=colliding_rows, data=st.data())
@settings(max_examples=120, deadline=None)
def test_subquery_predicates_match_the_closure_in_order(
        generic_kernels, batch_size, left, right, data):
    from repro.relational import batch
    sql = data.draw(subquery_predicates())
    saved, batch.BATCH_SIZE = batch.BATCH_SIZE, batch_size
    try:
        plan, got = outcome(build_pair(left, right), sql)
        with generic_kernels():
            reference, expected = outcome(build_pair(left, right), sql)
    finally:
        batch.BATCH_SIZE = saved
    assert got == expected, sql
    if reference is not None:
        assert not {"semi-join", "anti-join"} \
            & {node.kind for node in reference.walk()}
        assert {"semi-join", "anti-join"} \
            & {node.kind for node in plan.walk()}, sql


# -- the join's one emission: every strategy against a cross join -------------
#
# Each table carries its row number ``k``; the reference is the same
# condition as a WHERE over ``a CROSS JOIN b`` under the generic kernels
# at the default batch size, turned into the join's answer by hand: per
# row of ``a`` in order, its matching rows of ``b`` in order — or, for a
# LEFT join, one NULL-padded row when there are none.

EMISSION_COLUMNS = ("k", "i", "r", "t", "b")
NO_PLANNER = PlannerOptions(enabled=False)


def _distinct_keys(rows: list[tuple]) -> list[tuple]:
    """*rows* with every repeated non-NULL ``i`` made NULL: a unique
    build key (NULLs may repeat)."""
    seen: set = set()
    unique = []
    for row in rows:
        if row[0] is not None and row[0] in seen:
            row = (None,) + row[1:]
        seen.add(row[0])
        unique.append(row)
    return unique


def numbered(rows: list[tuple]) -> list[tuple]:
    return [(k,) + row for k, row in enumerate(rows)]


left_rows = colliding_rows.map(numbered)
right_rows = st.one_of(colliding_rows, colliding_rows.map(_distinct_keys)
                       ).map(numbered)

#: Residual ON conjuncts, checked on candidate pairs only.
RESIDUALS = ["", " AND a.r > b.r", " AND (b.t = a.t OR a.b)",
             " AND b.k <> a.k"]
#: ON conditions without an equality to hash on: nested loops.
LOOP_CONDITIONS = ["a.i < b.i", "a.i = b.i OR a.t = b.t",
                   "a.r >= b.r AND a.k <> b.k"]


def emission_db(left, right) -> Database:
    db = Database(planner=NO_PLANNER)
    for name, rows in (("a", left), ("b", right)):
        db.execute(f"CREATE TABLE {name} "
                   "(k INTEGER, i INTEGER, r REAL, t TEXT, b BOOLEAN)")
        db.insert_rows(name, (dict(zip(EMISSION_COLUMNS, row))
                              for row in rows))
    return db


def reference(generic_kernels, db: Database, left_join: bool,
              condition: str | None) -> list[tuple]:
    """The join's rows, from the pairs a filtered cross join finds."""
    where = f" WHERE {condition}" if condition else ""
    with generic_kernels():
        pairs = db.query(f"SELECT a.k, b.k FROM a CROSS JOIN b{where}").rows
        left = db.query("SELECT * FROM a").rows
        right = {row[0]: row for row in db.query("SELECT * FROM b").rows}
    matches: dict = {}
    for left_k, right_k in pairs:
        matches.setdefault(left_k, []).append(right_k)
    expected = []
    for row in left:
        found = sorted(matches.get(row[0], []))
        expected.extend(row + right[k] for k in found)
        if left_join and not found:
            expected.append(row + (None,) * len(EMISSION_COLUMNS))
    return expected


@contextmanager
def batch_size(size: int):
    saved, batch.BATCH_SIZE = batch.BATCH_SIZE, size
    try:
        yield
    finally:
        batch.BATCH_SIZE = saved


@st.composite
def emission_queries(draw, kind: str) -> tuple[str, bool, str | None]:
    """``(sql, left join, condition)`` for a join of strategy *kind*."""
    if kind == "cross-join":
        return "SELECT * FROM a CROSS JOIN b", False, None
    left_join = draw(st.booleans())
    if kind == "nested-loop":
        condition = draw(st.sampled_from(LOOP_CONDITIONS))
    else:
        condition = "a.i = b.i" + draw(st.sampled_from(RESIDUALS))
    join = "LEFT JOIN" if left_join else "JOIN"
    return f"SELECT * FROM a {join} b ON {condition}", left_join, condition


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("kind", ["hash-join", "index-join", "nested-loop",
                                  "cross-join"])
@given(left=left_rows, right=right_rows, data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_join_strategy_emits_the_cross_join_answer_in_order(
        generic_kernels, forced_joins, size, kind, left, right, data):
    sql, left_join, condition = data.draw(emission_queries(kind))
    db = emission_db(left, right)
    expected = reference(generic_kernels, db, left_join, condition)
    forced = forced_joins(parse_sql(sql), kind)
    with batch_size(size):
        result = db.query(forced)
        with generic_kernels():
            generic = db.query(forced).rows
    assert result.rows == expected, sql
    assert generic == expected, sql
    assert kind in {node.kind for node in result.plan.walk()}, sql


#: A left row whose key matches 20 rows of ``b``: more than a batch.
FAN_OUT_LEFT = numbered([(1, 0.5, "a", True), (2, 1.0, "b", None),
                         (None, 2.0, "a", False), (1, None, None, True)])
FAN_OUT_RIGHT = numbered([(1, float(n % 3), "ab"[n % 2], None)
                          for n in range(20)] + [(3, 1.0, "a", True)])


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("sql, kind", [
    ("SELECT * FROM a JOIN b ON a.i = b.i", "hash-join"),
    ("SELECT * FROM a LEFT JOIN b ON a.i = b.i AND b.k <> 4", "hash-join"),
    ("SELECT * FROM a JOIN b ON a.i = b.i", "index-join"),
    ("SELECT * FROM a LEFT JOIN b ON a.i = b.i AND a.r > b.r", "index-join"),
    ("SELECT * FROM a LEFT JOIN b ON a.i <= b.i", "nested-loop"),
    ("SELECT * FROM a CROSS JOIN b", "cross-join"),
])
def test_a_fan_out_beyond_a_batch_leaves_in_batches_of_at_most_its_size(
        generic_kernels, forced_joins, size, sql, kind):
    db = emission_db(FAN_OUT_LEFT, FAN_OUT_RIGHT)
    condition = sql.partition(" ON ")[2] or None
    expected = reference(generic_kernels, db, "LEFT" in sql, condition)
    with batch_size(size):
        root = build_select(forced_joins(parse_sql(sql), kind), db.catalog)
        join = next(node for node in root.walk() if isinstance(node, Join))
        assert join.kind == kind
        batches = list(join.chunks())
    assert max(map(len, batches)) == size
    assert [row for found in batches for row in found.rows] == expected


@pytest.mark.parametrize("sql, kind, fan_out", [
    ("SELECT * FROM a JOIN b ON a.i = b.i AND b.k >= 0", "hash-join", 20),
    ("SELECT * FROM a JOIN b ON a.i = b.i AND b.k >= 0", "index-join", 20),
    ("SELECT * FROM a JOIN b ON a.i <= b.i", "nested-loop", 21),
])
def test_the_first_output_batch_pairs_only_the_rows_it_needs(
        forced_joins, sql, kind, fan_out):
    """Candidate pairs are made a few left rows at a time, so a consumer
    that stops after one batch (a LIMIT) leaves the rest unpaired: the
    residual has seen about one batch plus one left row's fan-out."""
    db = emission_db(numbered([(1, 0.5, "a", True)] * 4), FAN_OUT_RIGHT)
    with batch_size(7):
        root = build_select(forced_joins(parse_sql(sql), kind), db.catalog)
        join = next(node for node in root.walk() if isinstance(node, Join))
        assert join.kind == kind
        checked = []
        check = join.check
        join.check = lambda rows: checked.append(rows) or check(rows)
        chunks = join.chunks()
        assert len(next(chunks)) == 7
        assert len(checked) <= 7 + fan_out
        assert sum(map(len, chunks)) == 4 * fan_out - 7
    assert len(checked) == 4 * fan_out


# -- a column nobody reads is never gathered ----------------------------------


class CountingColumn(list):
    """A column that counts the reads of its values."""

    def __init__(self, values) -> None:
        super().__init__(values)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class OneBatch(Operator):
    """A leaf yielding one batch of the given columns."""

    def __init__(self, schema, cols: list) -> None:
        super().__init__("stub", "", schema)
        self.cols = cols

    def _batches(self, outer_rows):
        yield Batch(cols=list(self.cols))


def plan_over(db: Database, sql: str, table: str, cols: list):
    """*sql*'s operator tree with the scan of *table* replaced by one
    batch of *cols*."""
    root = build_select(parse_sql(sql), db.catalog)
    for node in root.walk():
        for position, child in enumerate(node.children):
            if isinstance(child, Scan) and child.table.name == table:
                node.children[position] = OneBatch(child.schema, cols)
    return root


@batch_size(16)  # every input in one batch
def test_a_column_nobody_reads_is_never_gathered():
    db = emission_db(numbered([(n, None, f"v{n}", None) for n in range(5)]),
                     [])
    weights = CountingColumn([0.5 * n for n in range(6)])
    right = [list(range(6)), [None] * 6, weights, [None] * 6, [None] * 6]

    # A join's output: both sides pending until read.
    root = plan_over(db, "SELECT * FROM a JOIN b ON a.k = b.k", "b", right)
    join = next(node for node in root.walk() if isinstance(node, Join))
    joined = next(join.chunks())
    assert list(joined.column(0)) == [0, 1, 2, 3, 4]
    assert list(joined.column(5)) == [0, 1, 2, 3, 4]
    assert weights.reads == 0
    assert list(joined.column(7)) == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert weights.reads > 0

    # A selection: the mask kernel reads the column it tests only.
    weights.reads = 0
    root = plan_over(db, "SELECT * FROM b WHERE k > 2", "b", right)
    where = next(node for node in root.walk() if isinstance(node, Filter))
    selected = next(where.chunks())
    assert list(selected.column(0)) == [3, 4, 5]
    assert weights.reads == 0
    assert list(selected.column(2)) == [1.5, 2.0, 2.5]

    # End to end: a projection that drops the column never gathers it.
    weights.reads = 0
    assert plan_over(db, "SELECT a.t, b.k FROM a JOIN b ON a.k = b.k "
                     "WHERE b.k > 2", "b", right).run() \
        == [("v3", 3), ("v4", 4)]
    assert weights.reads == 0


# -- conjunct narrowing: one mask kernel per conjunct, on what is left -------
#
# NaN is in the data here, stored as NULL on both sides.

narrowing_rows = st.lists(
    st.tuples(int_values, st.one_of(real_values, st.just(float("nan"))),
              text_values, bool_values),
    min_size=0, max_size=25)
#: A conjunct no row passes: wherever it sits in the chain, the batches
#: empty there.
EMPTYING = "i > 99"


@st.composite
def mask_conjuncts(draw) -> list[str]:
    """2-4 conjuncts that each compile to a mask kernel — comparisons
    (``<=`` / ``>=`` on ``r`` included), and ANDs nested under OR or
    NOT, which keep their kernel — sometimes one of them ``EMPTYING``."""
    # A negative literal is a unary minus until the planner folds it (a
    # trivial select is not planned), and NOT cannot be pushed into a
    # bare BOOLEAN column: neither would be a mask kernel.
    atom = predicates(depth=0).filter(lambda predicate: "-" not in predicate)
    negatable = atom.filter(lambda predicate: predicate not in ("b", "NOT b"))
    conjunct = st.one_of(
        atom,
        st.sampled_from(["r >= 0.5", "r <= 2.0", "r <> 0.5",
                         "r BETWEEN 0.0 AND 2.0", "r IS NOT NULL"]),
        st.builds("({} OR ({} AND {}))".format, atom, negatable, negatable),
        st.builds("NOT ({} AND {})".format, negatable, negatable))
    conjuncts = draw(st.lists(conjunct, min_size=2, max_size=4))
    if draw(st.booleans()):
        conjuncts[draw(st.integers(0, len(conjuncts) - 1))] = EMPTYING
    return conjuncts


def shown(rows: list[tuple]) -> list[tuple]:
    return [tuple(map(repr, row)) for row in rows]


@pytest.mark.parametrize("size", [1, 3, 7])
@given(rows=narrowing_rows, mask=delete_mask, conjuncts=mask_conjuncts())
@settings(max_examples=60, deadline=None)
def test_conjuncts_narrow_to_the_generic_answer(generic_kernels, size, rows,
                                                mask, conjuncts):
    sql = f"SELECT * FROM t WHERE {' AND '.join(conjuncts)}"
    with batch_size(size):
        got = build(rows, mask).query(sql)
        # Also as written: the planner may merge range conjuncts.
        written = build_select(parse_sql(sql), build(rows, mask).catalog)
        written_rows = written.run()
        with generic_kernels():
            expected = build(rows, mask).query(sql)
    assert shown(got.rows) == shown(expected.rows), sql
    assert shown(written_rows) == shown(expected.rows), sql
    planned = next(node for node in got.plan.walk()
                   if isinstance(node, Filter))
    assert planned.kernels and planned.residual_fn is None, sql
    assert planned.actual_rows == len(expected.rows)
    where = next(node for node in written.walk() if isinstance(node, Filter))
    assert len(where.kernels) == len(conjuncts), sql


def test_a_batch_that_empties_goes_no_further():
    db = build([(n, float(n), "a", True) for n in range(10)], [False] * 25)
    # Mask kernels no access path serves: the scan reads every row.
    root = build_select(parse_sql(
        "SELECT * FROM t WHERE NOT (i <= 2) AND NOT (i <= 99) "
        "AND NOT (r >= 5.0)"), db.catalog)
    where = next(node for node in root.walk() if isinstance(node, Filter))
    seen = []
    where.kernels = [
        lambda batch, kernel=kernel, k=k:
            seen.append((k, len(batch))) or kernel(batch)
        for k, kernel in enumerate(where.kernels)]
    with batch_size(4):
        assert root.run() == []
    # Batches of 4, 4 and 2 rows: the first kernel sees each whole, the
    # second what the first kept, and the third never runs.
    assert seen == [(0, 4), (1, 1), (0, 4), (1, 4), (0, 2), (1, 2)]


def test_a_probed_scan_hands_the_kernels_only_the_rows_it_names():
    db = build([(n, float(n), "a", True) for n in range(10)], [False] * 25)
    root = build_select(parse_sql(
        "SELECT * FROM t WHERE i > 2 AND r < 5.0 AND i > 6"), db.catalog)
    where = next(node for node in root.walk() if isinstance(node, Filter))
    seen = []
    where.kernels = [
        lambda batch, kernel=kernel, k=k:
            seen.append((k, len(batch))) or kernel(batch)
        for k, kernel in enumerate(where.kernels)]
    with batch_size(2):
        assert [row[0] for row in root.run()] == []
    # `i > 6` names 3 of the 10 rows, the narrowest path: batches of 2
    # and 1 rows, the second kernel empties each, the third never runs.
    scan = next(node for node in root.walk() if node.kind == "scan")
    assert (scan.detail, scan.actual_rows) == ("range i", 3)
    assert seen == [(0, 2), (1, 2), (0, 1), (1, 1)]
