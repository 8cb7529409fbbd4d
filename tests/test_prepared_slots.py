"""A prepared SELECT is planned and built once: its ``?`` are slots.

The databank keeps a template's operator tree and re-drives it, each
run with its own values in the slots.  What that must not change:

* every run answers what the statement with its values inlined as
  literals answers — rows, columns, or the error's type and message —
  whatever the values before it bound (the type matrix runs each value
  sequence forwards and backwards through one kept tree), and every
  ``sql_analytic`` template agrees with stdlib ``sqlite3``;
* a kept tree is re-driven, not rebuilt, until DDL, ``ANALYZE``, the
  planner options or the telemetry hooks change what it was built on —
  and an enrichment's temp table coming and going changes nothing;
* a run's notes (what runs vectorized, what falls back) describe the
  values it bound, as its literals' would;
* a run starts clean (subquery results, hash builds) and a result's
  plan is its own, whoever runs the statement next.
"""

from __future__ import annotations

import gc
import importlib
import os
import random
import re
import sqlite3
import sys
import threading
from math import isclose

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.relational import Database
from repro.relational.indexes import ColumnPaths
from repro.relational.operators import Join, Subquery
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from repro.relational.result import ResultSet

ROWS = [
    (1, 1.5, "a", True, 10), (2, None, "b", False, 20),
    (3, 7.0, None, None, 10), (4, 0.0, "ab", True, None),
    (5, 12.25, "a%", False, 30), (6, 3.0, "_b", True, 20),
    (7, None, "", None, 10)]


def _database() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BOOLEAN, "
               "k INTEGER)")
    db.execute("CREATE TABLE u (x INTEGER, y TEXT)")
    db.insert_rows("t", (dict(zip("irsbk", row)) for row in ROWS))
    db.insert_rows("u", ({"x": x, "y": y} for x, y in [
        (1, "a"), (2, "b"), (2, "a"), (5, None), (6, "ab"), (9, "b")]))
    db.execute("CREATE INDEX tk ON t (k)")
    db.execute("ANALYZE")
    return db


@pytest.fixture(scope="module")
def matrix():
    db = _database()
    return db, repro.connect(db)


#: Values of every type a parameter binds (no negative numbers: "-5"
#: inlined parses as a negation, not as a literal).
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(0, 12),
    st.floats(0, 12).map(lambda value: round(value, 2)),
    st.sampled_from(["a", "b", "ab", "a%", "_b", ""]))

#: Every position a ``?`` takes; the last one's shape depends on its
#: value (a position, or a constant), so it is bound per run.
MATRIX = [
    "SELECT i, s FROM t WHERE i = ? ORDER BY i",
    "SELECT i, s FROM t WHERE r <> ? ORDER BY i",
    "SELECT i, s FROM t WHERE s < ? ORDER BY i",
    "SELECT i, s FROM t WHERE b >= ? ORDER BY i",
    "SELECT i FROM t WHERE r BETWEEN ? AND ? ORDER BY i",
    "SELECT i FROM t WHERE s NOT BETWEEN ? AND ? ORDER BY i",
    "SELECT i FROM t WHERE s IN (?, ?, 'a') ORDER BY i",
    "SELECT i FROM t WHERE i NOT IN (?, ?) ORDER BY i",
    "SELECT i FROM t WHERE s LIKE ? ORDER BY i",
    "SELECT i FROM t WHERE s NOT LIKE ? ORDER BY i",
    "SELECT i FROM t WHERE NOT (r > ?) ORDER BY i",
    "SELECT i FROM t WHERE r > ? AND s >= ? AND i <> ? ORDER BY i",
    "SELECT i FROM t WHERE r < ? OR s = ? ORDER BY i",
    "SELECT i, s FROM t ORDER BY i, s LIMIT ? OFFSET ?",
    "SELECT i, ? AS c, r FROM t ORDER BY i",
    "SELECT s, COUNT(*) AS n, ? AS c FROM t GROUP BY s "
    "HAVING COUNT(*) >= ? ORDER BY s",
    "SELECT i FROM t WHERE ? ORDER BY i",
    "SELECT i FROM t WHERE NOT ? AND i > 2 ORDER BY i",
    "SELECT i, s FROM t WHERE k = ? ORDER BY i",
    "SELECT i FROM t WHERE i IN (SELECT x FROM u WHERE y = ?) ORDER BY i",
    "SELECT i, (SELECT COUNT(*) FROM u WHERE y = ?) AS n FROM t "
    "ORDER BY i",
    "SELECT t.i, u.y FROM t JOIN u ON t.i = u.x "
    "WHERE u.y = ? AND t.r > ? ORDER BY t.i, u.y",
    "SELECT i, s FROM t ORDER BY ?, i",
]


def inline(text: str, values) -> str:
    pieces = text.split("?")
    return "".join(piece + literal for piece, literal in zip(
        pieces, [render_literal(value) for value in values] + [""]))


def outcome(run) -> tuple:
    """Columns and rows (values by ``repr``: 1, 1.0 and TRUE differ),
    or the type and message of the error."""
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return result.columns, [tuple(map(repr, row)) for row in result]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("text", MATRIX)
def test_a_run_of_the_kept_tree_equals_its_values_inlined(matrix, text, data):
    db, session = matrix
    prepared = session.prepare(text)
    runs = data.draw(st.lists(
        st.tuples(*[VALUES] * prepared.parameter_count),
        min_size=2, max_size=4))
    before = db.tree_stats()
    for values in runs + runs[::-1]:
        expected = outcome(lambda: db.query(inline(text, values)))
        assert outcome(lambda: prepared.execute(values).result) \
            == expected, values
        assert outcome(lambda: ResultSet.from_cursor(
            prepared.stream(values))) == expected, values
    after = db.tree_stats()
    if "ORDER BY ?" in text:
        assert after["built"] == before["built"]      # bound per run
    else:
        # One tree for the whole sequence, whatever was bound before.
        assert after["built"] - before["built"] <= 1
        assert after["reused"] - before["reused"] \
            >= 4 * len(runs) - 1 - (after["built"] - before["built"])


#: A slot conjunct beside a semi / anti join, written before and after
#: it: the kept tree runs the conjunct ahead of the join, where its
#: literal's kernel would, and is re-driven only for values that choose
#: one; a run whose values choose none is bound and built for itself.
BESIDE_A_SEMI_JOIN = [
    f"SELECT i, s FROM t WHERE {first} AND {second} ORDER BY i"
    for slot in ("r > ?", "s = ?", "i BETWEEN ? AND ?")
    for subquery in ("i IN (SELECT x FROM u WHERE y <> 'zz')",
                     "i IN (SELECT x FROM u WHERE y = 'zz')",
                     "EXISTS (SELECT 1 FROM u WHERE u.x = t.i)",
                     "NOT EXISTS (SELECT 1 FROM u WHERE u.x = t.i "
                     "AND u.y = 'a')")
    for first, second in ((slot, subquery), (subquery, slot))]

#: Values that choose no kernel for some slot above: NULL, a string
#: against the REAL column, an int against the TEXT one.
DECLINING = [(None, None), ("a", "b"), (3, 4), ("ab", 2.5)]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("text", BESIDE_A_SEMI_JOIN)
def test_a_slot_beside_a_semi_join_equals_its_values_inlined(matrix, text,
                                                             data):
    db, session = matrix
    prepared = session.prepare(text)
    width = prepared.parameter_count
    drawn = data.draw(st.lists(st.tuples(*[VALUES] * width),
                               min_size=2, max_size=4))
    runs = [values[:width] for values in DECLINING] + drawn
    before = db.tree_stats()
    for values in runs + runs[::-1]:
        expected = outcome(lambda: db.query(inline(text, values)))
        assert outcome(lambda: prepared.execute(values).result) \
            == expected, values
        assert outcome(lambda: ResultSet.from_cursor(
            prepared.stream(values))) == expected, values
    assert db.tree_stats()["built"] - before["built"] <= 1


def test_a_slot_beside_a_semi_join_keeps_its_tree(counted):
    db, session, calls = counted
    text = ("SELECT i FROM t WHERE i IN (SELECT x FROM u) AND r > ? "
            "ORDER BY i")
    prepared = session.prepare(text)
    for values in ([1.0], [5.0], ["a"], [None], [0.5], [2]):
        assert outcome(lambda: prepared.execute(values).result) \
            == outcome(lambda: db.query(inline(text, values))), values
    # "a" declines the kernel: bound and built for its run alone.
    assert db.tree_stats() == {"built": 1, "reused": 4}
    assert "semi-join" in prepared.execute([1.0]).db_plan.format()


# -- every sql_analytic template against sqlite3 --------------------------------


@pytest.fixture(scope="module")
def analytic():
    from repro.workloads import scaled_databank
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    try:
        workloads = importlib.import_module("benchmarks.e2e.workloads")
    finally:
        sys.path.pop(0)
    db = scaled_databank(900, seed=5)
    db.execute("ANALYZE")
    oracle = sqlite3.connect(":memory:")
    for table in ("landfill", "elem_contained", "sample", "analysis"):
        result = db.query(f"SELECT * FROM {table}")
        oracle.execute(f"CREATE TABLE {table} ({', '.join(result.columns)})")
        oracle.executemany(
            f"INSERT INTO {table} VALUES "
            f"({', '.join('?' * len(result.columns))})", result.rows)
    yield (db, repro.connect(db), oracle,
           workloads.sql_templates(len(db.table("landfill"))))
    oracle.close()


def same_rows(ours: list[tuple], theirs: list[tuple]) -> bool:
    return len(ours) == len(theirs) and all(
        len(mine) == len(other) and all(
            isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            if isinstance(a, float) or isinstance(b, float) else a == b
            for a, b in zip(mine, other))
        for mine, other in zip(ours, theirs))


@pytest.mark.parametrize("seed", range(4))
def test_every_sql_analytic_template_agrees_with_sqlite(analytic, seed):
    db, session, oracle, templates = analytic
    rng = random.Random(seed)
    for template in templates:
        prepared = session.prepare(template.text)
        draws = [template.draw(rng) for _ in range(3)]
        for params in draws + draws[::-1]:
            ours = prepared.execute(params).rows
            theirs = oracle.execute(template.text, params).fetchall()
            assert same_rows(ours, theirs), (template.key, params)
    assert db.tree_stats()["built"] == len(templates)


# -- reuse and invalidation ------------------------------------------------------

JOIN = ("SELECT t.i, u.y FROM t JOIN u ON t.i = u.x WHERE u.y = ? "
        "ORDER BY t.i, u.y")


@pytest.fixture
def counted(monkeypatch):
    """A fresh database and session, and a count of planner runs."""
    import repro.planner.plan as plan_module
    calls = []
    real = plan_module.plan_select

    def plan_select(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(plan_module, "plan_select", plan_select)
    db = _database()
    return db, repro.connect(db), calls


def test_n_runs_plan_once_and_build_once(counted):
    db, session, calls = counted
    prepared = session.prepare(JOIN)
    answers = [prepared.execute([value]).rows
               for value in ["a", "b", None, "a", "ab"] * 4]
    assert answers[0] == answers[3] == [(1, "a"), (2, "a")]
    assert answers[1] == [(2, "b")] and answers[2] == []
    assert len(calls) == 1
    assert db.tree_stats() == {"built": 1, "reused": 19}
    assert session.stats()["operator_trees"] == db.tree_stats()


def test_a_reused_tree_reports_its_own_run_only(counted):
    """Counters, per-run kernel choices and fallbacks of a re-driven
    tree are those of a tree built for the run (explain analyze)."""
    db, session, _calls = counted
    prepared = session.prepare("SELECT t.i, u.y FROM t JOIN u ON t.i = u.x "
                               "WHERE t.i >= ? AND t.r < ? ORDER BY u.y")
    for values in ([7, "x"], [1, 5.0], [1, "x"], [2, None], [0, 20]):
        try:
            executed = prepared.execute(values).db_plan
        except Exception as exc:
            assert type(exc).__name__ == "TypeMismatchError", values
            continue
        fresh = prepared.explain(values, analyze=True).db_plan.root
        assert [(node.kind, node.actual_rows, node.vectorized)
                for node in executed.walk()] \
            == [(node.kind, node.actual_rows, node.vectorized)
                for node in fresh.walk()], values
        assert executed.vectorized_fallbacks == fresh.vectorized_fallbacks
        del executed    # its tree is free for the next run
    assert db.tree_stats()["built"] == 1


def with_values(note: str, values) -> str:
    """*note* with each ``$n`` slot shown as the literal bound to it."""
    for index in range(len(values), 0, -1):
        note = note.replace(f"${index}", render_literal(values[index - 1]))
    return note


@pytest.mark.parametrize("text, runs", [
    ("SELECT t.i FROM t JOIN u ON t.i = u.x WHERE NOT ? ORDER BY t.i",
     [[1], [True], [0], [None], [1]]),
    ("SELECT t.i FROM t JOIN u ON t.i = u.x WHERE t.i >= ? AND t.r < ? "
     "ORDER BY t.i", [[1, "x"], [1, 2], ["a", 2], [1, 2]]),
])
def test_notes_describe_the_binding_as_its_literal_would(counted, text,
                                                        runs):
    """Which operators run vectorized and which conjuncts fall back is
    noted for the values bound — by ``explain`` and by the plan of each
    run of the kept tree — as for the statement with them inlined."""
    db, session, _calls = counted
    prepared = session.prepare(text)
    for values in runs:
        inlined = inline(text, values)
        assert [with_values(note, values)
                for note in prepared.explain(values).db_plan.notes] \
            == db.explain(inlined).notes, values
        expected = outcome(lambda: db.query(inlined))
        try:
            plan = prepared.execute(values).db_plan
        except Exception as exc:
            assert (type(exc).__name__, str(exc)) == expected
            continue
        assert [with_values(note, values) for note in plan.notes] \
            == db.query(inlined).plan.notes, values
        del plan    # its tree is free for the next run
    assert db.tree_stats()["built"] == 1


def test_a_planner_or_telemetry_change_between_runs_rebuilds(counted):
    """The planner options and the execution hooks a tree was built
    with are part of what it was built on."""
    from repro.telemetry import Telemetry
    db, session, _calls = counted
    # `u.y = ?` is answered by u's access path, so the filter tests it on
    # no row; `u.x <> 0`, which no path answers, shows the filter's hook.
    prepared = session.prepare(JOIN.replace("?", "? AND u.x <> 0"))

    def shape(plan) -> list:
        return [(node.kind, node.label) for node in plan.walk()]

    planned = shape(prepared.execute(["a"]).db_plan)
    db.planner = db.planner.replace(enabled=False)
    written = shape(prepared.execute(["a"]).db_plan)
    assert written == shape(prepared.explain(["a"]).db_plan.root) != planned
    assert prepared.execute(["b"]).rows == [(2, "b")]
    db.planner = db.planner.replace(enabled=True)
    assert shape(prepared.execute(["a"]).db_plan) == planned
    assert db.tree_stats() == {"built": 3, "reused": 1}
    telemetry = Telemetry()
    db.attach_telemetry(telemetry)
    assert prepared.execute(["a"]).rows == [(1, "a"), (2, "a")]
    series = telemetry.metrics.to_dict()[
        "repro_exec_vectorized_total"]["series"]
    assert {entry["labels"]["op"] for entry in series} >= {"scan", "filter"}
    assert db.tree_stats() == {"built": 4, "reused": 1}


def test_a_list_of_values_changed_in_place_is_bound_anew(counted):
    db, _session, _calls = counted
    query = SqlParser("SELECT i FROM t WHERE r > ? ORDER BY i",
                      first_param=0).parse_statement()
    values = [1.0]
    assert db.execute_ast(query, values).rows == [(1,), (3,), (5,), (6,)]
    values[0] = 5.0
    assert db.execute_ast(query, values).rows == [(3,), (5,)]
    assert db.tree_stats() == {"built": 1, "reused": 1}


def shown(plan_of) -> str:
    """The plan *plan_of* returns, formatted, each ``probe <col>``
    followed by what answered it: ``via lookup``, the column's own."""
    read = set()
    real_path = ColumnPaths.path

    def path(store, relation, position, op="="):
        if op in ("=", "in"):
            read.add("lookup")
        return real_path(store, relation, position, op)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnPaths, "path", path)
        text = plan_of().format()
    via = " via " + ", ".join(sorted(read))
    return re.sub(r"probe \w+", lambda found: found.group() + via, text)


@pytest.mark.parametrize("text, value, change, before, after", [
    ("SELECT i FROM t WHERE s = ? ORDER BY i", "a",
     "CREATE INDEX ts ON t (s)", "probe s via lookup", "probe s via lookup"),
    ("SELECT i FROM t WHERE k = ? ORDER BY i", 30, "DROP INDEX tk",
     "probe k via lookup", "probe k via lookup"),
    (JOIN, "a", "ANALYZE u", "", "hash-join"),
])
def test_ddl_and_analyze_between_runs_rebuild_once(counted, text, value,
                                                   change, before, after):
    """A DDL or ANALYZE between runs rebuilds the tree once.  The
    column's lookup answers its ``=`` whether a declared index covers
    it or not: creating or dropping one changes no read."""
    db, session, _calls = counted
    prepared = session.prepare(text)
    first = prepared.execute([value]).rows
    prepared.execute(["b"])
    assert before in shown(lambda: prepared.execute([value]).db_plan)
    db.execute(change)
    assert prepared.execute([value]).rows == first
    assert prepared.execute([value]).rows == first
    assert db.tree_stats() == {"built": 2, "reused": 3}
    assert after in shown(lambda: prepared.explain([value]).db_plan)
    assert after in shown(lambda: prepared.execute([value]).db_plan)


def test_a_dropped_and_recreated_table_rebuilds_once(counted):
    db, session, _calls = counted
    prepared = session.prepare("SELECT x FROM u WHERE y = ? ORDER BY x")
    assert prepared.execute(["a"]).rows == [(1,), (2,)]
    db.execute("DROP TABLE u")
    db.execute("CREATE TABLE u (x INTEGER, y TEXT)")
    db.execute("INSERT INTO u VALUES (8, 'a')")
    assert prepared.execute(["a"]).rows == [(8,)]
    assert prepared.execute(["a"]).rows == [(8,)]
    assert db.tree_stats() == {"built": 2, "reused": 1}


def test_an_enrichment_temp_table_coming_and_going_rebuilds_nothing(
        counted):
    db, session, calls = counted
    prepared = session.prepare(JOIN)
    prepared.execute(["a"])
    for _ in range(3):
        db.create_temp_table("__sesql_vals_0", ResultSet(["v"], [("a",)]))
        prepared.execute(["b"])
        db.drop_temp_table("__sesql_vals_0")
        prepared.execute(["a"])
    assert len(calls) == 1
    assert db.tree_stats() == {"built": 1, "reused": 6}


@pytest.mark.parametrize("text", [
    "SELECT i FROM t WHERE i IN (SELECT x FROM u WHERE y = ?) ORDER BY i",
    "SELECT i FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.i "
    "AND u.y = ?) ORDER BY i",
    "SELECT i, (SELECT COUNT(*) FROM u WHERE y = ?) AS n FROM t "
    "WHERE i < 3 ORDER BY i",
    "SELECT i FROM t WHERE i < 8 AND r IS NULL "
    "AND i + 0 IN (SELECT x FROM u WHERE y = ?) ORDER BY i",
])
def test_a_run_sees_rows_inserted_since_the_last(counted, text):
    """A subquery's rows and a semi join's build are kept for one run
    only: the next run of the same tree reads the table again."""
    db, session, _calls = counted
    prepared = session.prepare(text)
    before = prepared.execute(["a"]).rows
    db.execute("INSERT INTO u VALUES (7, 'a'), (3, 'a')")
    after = prepared.execute(["a"]).rows
    assert after == db.query(inline(text, ["a"])).rows != before
    assert db.tree_stats() == {"built": 1, "reused": 1}


def test_an_idle_tree_holds_no_rows(counted):
    db, session, _calls = counted
    text = "SELECT i FROM t WHERE i IN (SELECT x FROM u WHERE y = ?)"
    session.prepare(text).execute(["a"])
    gc.collect()
    joins = [node for node in gc.get_objects() if isinstance(node, Join)]
    subqueries = [node for node in gc.get_objects()
                  if isinstance(node, Subquery)]
    assert joins and subqueries
    assert [node for node in joins if node._built is not None] == []
    assert [node for node in subqueries
            if node.cached is not None or node.members is not None] == []


# -- isolation -------------------------------------------------------------------


def test_each_prepared_result_carries_its_own_plan(counted):
    """The prepared twin of test_concurrency's invariant: a later run —
    another thread's, or this one's — never re-drives a plan a result
    holds."""
    db, session, _calls = counted
    prepared = session.prepare(JOIN)
    mine = prepared.execute(["a"])
    counted_rows = mine.db_plan.actual_rows
    seen = []

    def other():
        seen.append(prepared.execute(["b"]))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    again = prepared.execute(["zz"])
    assert seen[0].db_plan is not mine.db_plan
    assert seen[0].db_plan.actual_rows == len(seen[0].rows) < counted_rows
    assert again.db_plan.actual_rows == len(again.rows) == 0
    assert mine.db_plan.actual_rows == counted_rows == len(mine.rows)
    assert [node.actual_rows for node in mine.db_plan.walk()][:2] \
        == [counted_rows, counted_rows]


def test_two_threads_stream_one_template_at_once(counted):
    db, session, _calls = counted
    prepared = session.prepare(JOIN)
    values = {"first": "a", "second": "b"}
    expected = {name: db.query(inline(JOIN, [value])).rows
                for name, value in values.items()}
    both_open = threading.Barrier(2)
    got = {}

    def stream(name: str) -> None:
        cursor = prepared.stream([values[name]], page_size=1)
        both_open.wait(timeout=30)
        got[name] = list(cursor)

    threads = [threading.Thread(target=stream, args=(name,))
               for name in values]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert got == expected
    assert db.tree_stats()["built"] == 2


def test_many_threads_share_the_kept_tree_without_sharing_a_run(counted):
    """More threads than cores, switching often: a tree checked out by
    two runs at once would hand one of them the other's values."""
    db, session, _calls = counted
    text = ("SELECT i, COUNT(*) AS n FROM t JOIN u ON t.i = u.x "
            "WHERE u.y = ? AND t.i >= ? GROUP BY i ORDER BY i")
    prepared = session.prepare(text)
    values = [(y, low) for y in ("a", "b", "ab", None) for low in (0, 2, 6)]
    expected = {value: db.query(inline(text, value)).rows
                for value in values}
    wrong = []

    def work(offset: int) -> None:
        for step in range(60):
            value = values[(offset + step) % len(values)]
            drain = prepared.execute if step % 2 else prepared.stream
            result = drain(value)
            rows = result.rows if step % 2 else list(result)
            if rows != expected[value]:
                wrong.append((value, rows))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    stats = db.tree_stats()
    assert stats["built"] + stats["reused"] == 8 * 60


def test_an_abandoned_cursor_neither_blocks_nor_corrupts(counted):
    db, session, _calls = counted
    prepared = session.prepare("SELECT i FROM t WHERE r > ? ORDER BY i")
    abandoned = prepared.stream([1.0], page_size=1)
    assert next(abandoned) == (1,)
    assert prepared.execute([5.0]).rows == [(3,), (5,)]
    assert list(abandoned) == [(3,), (5,), (6,)]
    del abandoned
    gc.collect()
    assert prepared.execute([0.5]).rows == [(1,), (3,), (5,), (6,)]
    assert db.tree_stats() == {"built": 2, "reused": 1}


# -- observability ---------------------------------------------------------------


def test_a_plan_span_only_on_a_build_and_reused_runs_say_so():
    db = _database()
    session = repro.connect(db, telemetry=True)
    prepared = session.prepare(JOIN)
    spans = []
    for drain in (prepared.execute, prepared.execute, prepared.stream,
                  prepared.stream):
        result = drain(["a"])
        if drain == prepared.stream:
            list(result)
        del result
        trace = session.last_trace()
        spans.append((trace.find("db.plan") is not None,
                      (trace.find("db.execute") or trace.find("db.stream"))
                      .attrs.get("reused", False)))
    assert spans == [(True, False), (False, True), (False, True),
                     (False, True)]
