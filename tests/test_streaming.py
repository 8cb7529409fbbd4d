"""The streaming execution surface: cursors end to end.

Covers the relational :class:`Cursor` protocol, lazy LIMIT early
termination, LIMIT/OFFSET validation, ``Database.stream``,
``Session.stream`` / ``PreparedQuery.stream`` with page-at-a-time
enrichment combination, and ``MediatorSession.stream``.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import CursorTokenError, Page, decode_token, encode_token
from repro.api.cursor import (paginate_cursor, paginate_sequence,
                              request_signature)
from repro.rdf import parse_turtle
from repro.relational import Cursor, Database, ExecutionError, ResultSet

KB = """
@prefix smg: <http://smartground.eu/ns#> .
smg:Mercury smg:dangerLevel "high" .
smg:Lead smg:dangerLevel "medium" .
"""


@pytest.fixture
def elems_db() -> Database:
    db = Database()
    db.execute_script("""
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO elem_contained VALUES
            ('a', 'Mercury', 12.0), ('a', 'Iron', 140.0),
            ('b', 'Lead', 7.0), ('b', 'Copper', 55.0);
    """)
    return db


# -- the Cursor protocol ------------------------------------------------------


def test_cursor_fetch_surface():
    cursor = Cursor(["x"], iter([(1,), (2,), (3,), (4,)]))
    assert cursor.columns == ["x"]
    assert cursor.fetchone() == (1,)
    assert cursor.fetchmany(2) == [(2,), (3,)]
    assert cursor.fetchall() == [(4,)]
    assert cursor.fetchone() is None
    assert cursor.closed


def test_cursor_is_iterable_and_context_manager():
    closed = []
    with Cursor(["x"], iter([(1,), (2,)]),
                on_close=lambda: closed.append(True)) as cursor:
        assert list(cursor) == [(1,), (2,)]
    assert closed == [True]          # exhaustion closed it exactly once
    assert cursor.fetchall() == []


def test_cursor_close_stops_generator():
    seen = []

    def rows():
        for i in range(100):
            seen.append(i)
            yield (i,)

    cursor = Cursor(["i"], rows())
    assert cursor.fetchone() == (0,)
    cursor.close()
    assert cursor.fetchone() is None
    assert seen == [0]


def test_resultset_from_cursor():
    cursor = Cursor(["a", "b"], iter([(1, 2), (3, 4)]))
    result = ResultSet.from_cursor(cursor)
    assert result.columns == ["a", "b"]
    assert result.rows == [(1, 2), (3, 4)]
    assert cursor.closed


# -- Database.stream ----------------------------------------------------------


def test_database_stream_matches_query(elems_db):
    sql = "SELECT elem_name, amount FROM elem_contained WHERE amount > 10"
    assert elems_db.stream(sql).fetchall() == elems_db.query(sql).rows


def test_database_stream_rejects_non_select(elems_db):
    with pytest.raises(ExecutionError):
        elems_db.stream("DELETE FROM elem_contained")


def test_stream_limit_terminates_early():
    """LIMIT stops pulling: a poisoned later row is never evaluated."""
    db = Database()
    db.execute_script("""
        CREATE TABLE t (id INTEGER, d INTEGER);
        INSERT INTO t VALUES (1, 1), (2, 1), (3, 0);
    """)
    sql = "SELECT id / d FROM t LIMIT 2"
    assert db.stream(sql).fetchall() == [(1,), (2,)]
    # The materialized path shares the lazy pipeline, so it stops
    # early too.
    assert db.query(sql).rows == [(1,), (2,)]
    with pytest.raises(ExecutionError):
        db.query("SELECT id / d FROM t")


def test_union_all_streams_lazily():
    db = Database()
    db.execute_script("""
        CREATE TABLE a (id INTEGER, d INTEGER);
        CREATE TABLE b (id INTEGER, d INTEGER);
        INSERT INTO a VALUES (1, 1);
        INSERT INTO b VALUES (2, 0);
    """)
    # The second UNION ALL operand (which would divide by zero) is
    # never started.
    sql = "SELECT id / d FROM a UNION ALL SELECT id / d FROM b LIMIT 1"
    assert db.query(sql).rows == [(1,)]


def test_stream_cursor_must_close_before_writing(elems_db):
    cursor = elems_db.stream("SELECT elem_name FROM elem_contained")
    assert cursor.fetchone() is not None
    # The open cursor holds the read lock; same-thread DML is refused
    # rather than deadlocking.
    with pytest.raises(RuntimeError):
        elems_db.execute("DELETE FROM elem_contained")
    cursor.close()
    assert elems_db.execute("DELETE FROM elem_contained") == 4


# -- LIMIT / OFFSET validation -------------------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT elem_name FROM elem_contained LIMIT -1",
    "SELECT elem_name FROM elem_contained LIMIT 'two'",
    "SELECT elem_name FROM elem_contained LIMIT 1.5",
    "SELECT elem_name FROM elem_contained LIMIT 2 OFFSET -3",
    "SELECT elem_name FROM elem_contained LIMIT 2 OFFSET 'x'",
])
def test_bad_limit_offset_raises_execution_error(elems_db, sql):
    with pytest.raises(ExecutionError) as excinfo:
        elems_db.query(sql)
    message = str(excinfo.value)
    assert "non-negative integer" in message
    # Both paths validate identically.
    with pytest.raises(ExecutionError):
        elems_db.stream(sql).fetchall()


def test_null_limit_means_unbounded(elems_db):
    assert len(elems_db.query(
        "SELECT elem_name FROM elem_contained LIMIT NULL").rows) == 4


def test_offset_without_limit_streams(elems_db):
    sql = "SELECT elem_name FROM elem_contained OFFSET 2"
    assert elems_db.stream(sql).fetchall() == elems_db.query(sql).rows
    assert len(elems_db.query(sql).rows) == 2


# -- Session / PreparedQuery streaming ----------------------------------------


def test_session_stream_plain_sql(elems_db):
    session = repro.connect(elems_db)
    cursor = session.stream(
        "SELECT elem_name FROM elem_contained WHERE amount > ?", [50.0])
    assert cursor.columns == ["elem_name"]
    assert sorted(cursor.fetchall()) == [("Copper",), ("Iron",)]


def test_session_stream_matches_query_with_enrichment(elems_db):
    kb = parse_turtle(KB)
    session = repro.connect(elems_db, knowledge_base=kb)
    sesql = ("SELECT elem_name, amount FROM elem_contained "
             "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    materialized = session.query(sesql)
    for page_size in (1, 2, 100):
        cursor = session.stream(sesql, page_size=page_size)
        assert cursor.columns == materialized.columns
        assert cursor.fetchall() == materialized.rows


def test_prepared_stream_binds_parameters(elems_db):
    kb = parse_turtle(KB)
    session = repro.connect(elems_db, knowledge_base=kb)
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE amount < ? "
        "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    low = prepared.stream([10.0]).fetchall()
    assert low == [("Lead", "medium")]
    high = prepared.stream([1000.0]).fetchall()
    assert len(high) == 4


def test_stream_where_enrichment_cleans_temp_tables(elems_db):
    """An open cursor reads its extraction as a relation bound to the
    run, not a table: there is none while it is open, and closing it —
    before any fetch, or at exhaustion — lets a writer in."""
    kb = parse_turtle(KB)
    session = repro.connect(elems_db, knowledge_base=kb)
    sesql = ("SELECT landfill_name FROM elem_contained "
             "WHERE ${elem_name = Hazard:c1} "
             "ENRICH REPLACECONSTANT(c1, Hazard, dangerLevel)")
    expected = session.execute(sesql).rows
    for drain in ("close", "fetchall"):
        cursor = session.stream(sesql)
        assert not any(name.startswith("__sesql")
                       for name in elems_db.table_names())
        assert elems_db.rwlock.active_readers == 1
        if drain == "close":
            cursor.close()                # closed before any fetch
        else:
            assert cursor.fetchall() == expected
        assert elems_db.rwlock.active_readers == 0
    session.close()


def test_session_stream_limit_stops_early(elems_db):
    session = repro.connect(elems_db)
    cursor = session.stream(
        "SELECT elem_name FROM elem_contained LIMIT 2")
    assert len(cursor.fetchall()) == 2


def test_closed_session_refuses_stream(elems_db):
    session = repro.connect(elems_db)
    session.close()
    with pytest.raises(repro.api.SessionError):
        session.stream("SELECT elem_name FROM elem_contained")


# -- mediator streaming --------------------------------------------------------


def _make_mediator():
    from repro.federation import Mediator

    north = Database("north")
    south = Database("south")
    for db, rows in ((north, [("a", 10), ("b", 20)]),
                     (south, [("c", 30), ("d", 40)])):
        db.execute("CREATE TABLE sites (name TEXT, score INTEGER)")
        db.insert_rows("sites", ({"name": n, "score": s}
                                 for n, s in rows))
    mediator = Mediator()
    mediator.register_source("north", north)
    mediator.register_source("south", south)
    mediator.define_view("all_sites", [
        ("north", "SELECT name, score FROM sites"),
        ("south", "SELECT name, score FROM sites")])
    return mediator


def test_mediator_stream_matches_execute():
    mediator = _make_mediator()
    sql = "SELECT name, score FROM all_sites ORDER BY score"
    expected = mediator.connect().query(sql)
    session = mediator.connect()
    cursor, report = session.stream(sql)
    assert cursor.columns == expected.columns
    assert cursor.fetchall() == expected.rows
    assert report.view_rows == {"all_sites": 4}
    # The materialization is cached: a second stream ships nothing.
    cursor2, report2 = session.stream(sql)
    assert cursor2.fetchall() == expected.rows
    assert report2.sub_queries == []


def test_mediator_stream_ships_full_views_no_partials():
    """Streams never leave a partial (filtered) materialization behind:
    views ship unfiltered and are cached, so an interleaved query on
    the same session cannot collide with a pushed-down copy."""
    mediator = _make_mediator()
    session = mediator.connect()
    sql = "SELECT name FROM all_sites WHERE score > 15"
    cursor, report = session.stream(sql)
    assert report.pushed_filters == {}    # unlike execute(): no pushdown
    # Before the first stream is drained, another query on the same
    # session works off the cached full materialization.
    result, report2 = session.execute("SELECT name FROM all_sites")
    assert len(result.rows) == 4
    assert report2.sub_queries == []      # served from the cache
    assert sorted(cursor.fetchall()) == [("b",), ("c",), ("d",)]
    # execute() still pushes filters down on a fresh session.
    _result, report3 = mediator.connect().execute(sql)
    assert report3.pushed_filters


# -- pagination tokens ---------------------------------------------------------


def test_token_round_trip():
    token = encode_token({"offset": 7, "sig": "abc"})
    assert decode_token(token) == {"offset": 7, "sig": "abc"}


@pytest.mark.parametrize("bad", ["", "!!!", "deadbeef", None, 42])
def test_malformed_tokens_rejected(bad):
    with pytest.raises(CursorTokenError):
        decode_token(bad)


def test_paginate_sequence_walks_to_the_end():
    signature = request_signature("users")
    items = list(range(10))
    seen, token = [], None
    for _ in range(10):
        page = paginate_sequence(items, 3, token, signature)
        seen.extend(page.items)
        token = page.next_token
        if token is None:
            break
    assert seen == items


def test_paginate_sequence_rejects_foreign_token():
    token = paginate_sequence(
        list(range(10)), 3, None, request_signature("a")).next_token
    with pytest.raises(CursorTokenError):
        paginate_sequence(list(range(10)), 3, token,
                          request_signature("b"))


def test_paginate_cursor_lookahead():
    signature = request_signature("q")
    page = paginate_cursor(Cursor(["x"], iter([(i,) for i in range(5)])),
                           5, None, signature)
    assert isinstance(page, Page)
    assert len(page.items) == 5
    assert page.next_token is None        # exactly exhausted: no token
    page = paginate_cursor(Cursor(["x"], iter([(i,) for i in range(6)])),
                           5, None, signature)
    assert page.next_token is not None
