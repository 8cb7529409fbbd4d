"""Property-based tests (hypothesis) for the query analyzer.

The analyzer's severity taxonomy is a *promise*: an ``E-`` diagnostic
means the executor is certain to reject the statement, while warnings
never block anything.  Random queries check both directions of that
promise against the real engine:

* soundness — a statement that executes successfully never carries an
  error-severity diagnostic;
* the reported direction — a statement the analyzer marks with errors
  really is rejected by the executor;
* one verdict — planner on and off, a statement runs, or raises the
  exception the bind gives the analyzer's first ``E-`` code;
* totality — the analyzer itself never raises, even on garbage input.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_sql
from repro.planner import PlannerOptions
from repro.relational import Database, RelationalError
from repro.relational.bind import _RAISES


def build_db(planner: PlannerOptions | None = None,
             rows: bool = True) -> Database:
    db = Database("props", planner=planner)
    db.execute_script("""
        CREATE TABLE t (a INTEGER, b TEXT, c REAL);
        CREATE TABLE u (a INTEGER, d TEXT);
        CREATE INDEX idx_t_b ON t (b);
    """)
    if rows:
        db.execute_script("""
            INSERT INTO t (a, b, c) VALUES (1, 'x', 0.5);
            INSERT INTO t (a, b, c) VALUES (2, 'y', 1.5);
            INSERT INTO u (a, d) VALUES (1, 'z');
        """)
    return db


#: Read-only throughout: every generated statement is a SELECT.
DB = build_db()
#: No row reaches an expression, so nothing a value decides can raise:
#: what does is the statement itself.  Planner on and off.
EMPTY = build_db(rows=False)
EMPTY_OFF = build_db(PlannerOptions(enabled=False), rows=False)

COLUMNS = {"t": ["a", "b", "c"], "u": ["a", "d"],
           "d": ["a", "b"], "e": ["a", "d"]}

#: FROM clauses, each with the binding its columns are under; two
#: tables, so the planner rewrites.
TABLES = {"t": "t", "u": "u", "t, u": "t", "t AS s": "s",
          "t JOIN u ON t.a = u.a": "t",
          "(SELECT a, b FROM t) AS d": "d",
          "(SELECT * FROM u WHERE a > 0) AS e": "e"}

literals = st.one_of(
    st.integers(-5, 5).map(str),
    st.sampled_from(["0.5", "'x'", "'zz'", "NULL", "TRUE"]))

operators = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])


@st.composite
def names(draw, pool: list[str], binding: str) -> str:
    """A column of *pool* as written: maybe re-cased, maybe qualified
    by *binding* (or by a name nothing binds)."""
    name = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        name = name.upper()
    qualifier = draw(st.sampled_from(
        [None, None, binding, binding.upper(), "zz"]))
    return name if qualifier is None else f"{qualifier}.{name}"


@st.composite
def select_queries(draw) -> str:
    """A SELECT that may or may not be valid — names are sometimes
    wrong, types sometimes clash, ordinals sometimes out of range,
    calls sometimes of the wrong arity, CASTs to no type, aggregates
    misplaced, columns ungrouped, compound operands of two widths; its
    FROM may be a derived table or a join, its WHERE a correlated
    subquery or a conjunct the planner folds to FALSE."""
    table = draw(st.sampled_from(list(TABLES)))
    binding = TABLES[table]
    base = "s" if "AS s" in table else binding
    pool = COLUMNS[base if base in COLUMNS else "t"] + ["nope"]
    column = st.one_of(st.sampled_from(pool), names(pool, binding))
    expression = st.one_of(
        column,
        column.map(lambda c: f"UPPER({c})"),
        column.map(lambda c: f"{c} + 1"),
        st.tuples(column, st.sampled_from(["INTEGER", "TEXT", "BLOBBY"]))
        .map(lambda cast: "CAST({} AS {})".format(*cast)),
        st.sampled_from(["UPPER({0}, {0})", "SUBSTR({0})", "NOSUCH({0})",
                         "SUM({0})", "MAX(COUNT({0}))"])
        .flatmap(lambda call: column.map(call.format)))
    items = draw(st.one_of(
        st.just("*"),
        st.just("COUNT(*)"),
        st.lists(column, min_size=1, max_size=3).map(", ".join),
        column.map(lambda c: f"UPPER({c})"),
        st.lists(expression, min_size=1, max_size=3).map(", ".join)))
    sql = f"SELECT {items} FROM {table}"
    if draw(st.booleans()):
        outer = draw(column)
        sql += " WHERE " + draw(st.one_of(
            st.builds(lambda op, lit: f"{outer} {op} {lit}",
                      operators, literals),
            st.sampled_from(["EXISTS", "NOT EXISTS"]).map(
                lambda how: f"{how} (SELECT 1 FROM u AS i "
                            f"WHERE i.a = {outer})"),
            st.sampled_from(["d", "i.d"]).map(
                lambda inner: f"{outer} IN (SELECT {inner} FROM u AS i "
                              f"WHERE i.a = {outer})"),
            expression.map(lambda e: f"1 = 0 AND {e} = 1")))
    if draw(st.booleans()):
        sql += " GROUP BY " + draw(st.one_of(
            column, column.map(lambda c: f"{c} + 1"),
            st.integers(0, 2).map(str)))
    if draw(st.booleans()):
        sql += " UNION SELECT " + draw(st.sampled_from(
            ["a", "a, d", "*", "COUNT(*)"])) + " FROM u"
    if draw(st.booleans()):
        sql += f" ORDER BY {draw(st.integers(0, 4))}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 10))}"
    return sql


@given(select_queries())
@settings(max_examples=200, deadline=None)
def test_executing_statements_carry_no_errors(sql):
    try:
        DB.execute(sql)
    except Exception:
        return                     # invalid statements checked below
    report = analyze_sql(sql, DB)
    assert not report.has_errors, \
        f"{sql!r} executed fine but analyzer said:\n{report.format()}"


@given(select_queries())
@settings(max_examples=200, deadline=None)
def test_error_diagnostics_mean_execution_fails(sql):
    report = analyze_sql(sql, DB)
    if not report.has_errors:
        return
    try:
        DB.execute(sql)
    except Exception:
        return
    raise AssertionError(
        f"{sql!r} got {sorted(report.codes())} but executed fine")


def outcome(db: Database, sql: str) -> type | None:
    """The class of what running *sql* raises; ``None``: it runs."""
    try:
        db.execute(sql)
    except RelationalError as error:
        return type(error)
    return None


@given(select_queries())
@settings(max_examples=200, deadline=None)
def test_planner_on_and_off_raise_what_the_analyzer_reports(sql):
    errors = [diagnostic.code for diagnostic in analyze_sql(sql, EMPTY)
              if diagnostic.code.startswith("E-")]
    expected = _RAISES[errors[0]] if errors else None
    for db in (EMPTY, EMPTY_OFF):
        assert outcome(db, sql) is expected, \
            f"{sql!r}: planner {db.planner.enabled}, analyzer {errors}"


@given(select_queries())
@settings(max_examples=100, deadline=None)
def test_analyzer_is_total_on_generated_queries(sql):
    report = analyze_sql(sql, DB)
    assert report.to_dict()["statement"]


@given(st.text(
    alphabet="SELECT FROM WHERE()*,'=<>;-%?abct123 \n", max_size=80))
@settings(max_examples=150, deadline=None)
def test_analyzer_is_total_on_garbage(text):
    report = analyze_sql(text, DB)
    for diagnostic in report:
        assert diagnostic.code
