"""Paged cursors: the consumer's fetch size flows down to the producer.

A cursor asks its producer for what its consumer asked for —
``fetchmany(n)`` for *n*, ``fetchone`` for 1, iteration and
``fetchall`` for what is at hand — and keeps any excess (a multi-valued
SCHEMAEXTENSION emits more rows than the page it combined).  The
property here is that no sequence of fetches changes what comes out:
over ``Database.stream``, an enriched ``Session.stream`` and a
telemetry-on session, the rows handed out are ``execute``'s, in its
order, ``rows_yielded`` counts them, and the read lock is gone once the
cursor closes.  The other tests pin what the demand buys: a window or
``LIMIT`` over a sort gathers only its own rows, a REST page
combines once, and the pages of many cursors over one cached
extraction are folded through one single-valued map.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import join_manager, tempdb
from repro.crosse.platform import CrossePlatform
from repro.federation import CrosseRestService
from repro.rdf import SMG, Literal, parse_turtle
from repro.relational import Database, batch
from repro.smartground.datagen import SmartGroundConfig, generate_databank

KB = """
@prefix smg: <http://smartground.eu/ns#> .
smg:Mercury smg:dangerLevel "high", "extreme" .
smg:Lead smg:dangerLevel "medium" .
smg:Copper smg:dangerLevel "low", "medium", "high" .
"""

ELEMENTS = ["Mercury", "Lead", "Iron", "Copper"]

rows_strategy = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 6)),
              st.integers(-50, 50), st.sampled_from(ELEMENTS)),
    max_size=30)

statements = st.builds(
    lambda order, limit, offset: (
        "SELECT k, a, elem_name FROM t WHERE a > ?"
        + (f" ORDER BY {order}" if order else "")
        + (f" LIMIT {limit}" if limit is not None else "")
        + (f" OFFSET {offset}" if offset is not None else "")),
    st.sampled_from([None, "k", "k DESC, a", "elem_name, a DESC"]),
    st.one_of(st.none(), st.integers(0, 12)),
    st.one_of(st.none(), st.integers(0, 8)))

fetches = st.lists(st.one_of(
    st.tuples(st.just("one")),
    st.tuples(st.just("many"), st.sampled_from([0, 1, 2, 5, 1000])),
    st.tuples(st.just("iter"), st.integers(1, 6)),
    st.tuples(st.just("close"))), max_size=6)


def _database(rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, a INTEGER, elem_name TEXT)")
    db.insert_rows("t", ({"k": k, "a": a, "elem_name": name}
                         for k, a, name in rows))
    return db


def _drive(cursor, expected: list, steps) -> bool:
    """Apply *steps* to *cursor*, then drain it, checking every fetch
    against *expected* — what ``execute`` answered.  True when a step
    closed it before the end."""
    handed, closed = 0, False
    for step in steps:
        rest = [] if closed else expected[handed:]
        if step[0] == "one":
            row = cursor.fetchone()
            assert row == (rest[0] if rest else None)
            handed += row is not None
        elif step[0] == "many":
            rows = cursor.fetchmany(step[1])
            assert rows == rest[:step[1]]
            handed += len(rows)
        elif step[0] == "iter":
            rows = list(islice(cursor, step[1]))
            assert rows == rest[:step[1]]
            handed += len(rows)
        else:
            cursor.close()
            closed = True
        assert cursor.rows_yielded == handed
    rows = cursor.fetchall()
    assert rows == ([] if closed else expected[handed:])
    assert cursor.rows_yielded == handed + len(rows)
    assert cursor.closed
    return closed


def _writer_gets_in(db: Database) -> None:
    assert db.rwlock.active_readers == 0
    db.execute("INSERT INTO t VALUES (99, 99, 'Iron')")


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, sql=statements, steps=fetches,
       bound=st.integers(-60, 40))
def test_database_stream_pages_as_execute(rows, sql, steps, bound):
    db = _database(rows)
    sql = sql.replace("?", str(bound))
    expected = db.query(sql).rows
    cursor = db.stream(sql)
    if not _drive(cursor, expected, steps):
        assert cursor.plan.actual_rows == len(expected)
    _writer_gets_in(db)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, sql=statements, steps=fetches,
       bound=st.integers(-60, 40), page_size=st.sampled_from([1, 2, 3, 256]),
       telemetry=st.booleans())
def test_enriched_session_stream_pages_as_execute(rows, sql, steps, bound,
                                                  page_size, telemetry):
    db = _database(rows)
    session = repro.connect(db, knowledge_base=parse_turtle(KB),
                            telemetry=telemetry or None)
    sesql = sql + " ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"
    expected = session.execute(sesql, [bound]).rows
    cursor = session.stream(sesql, [bound], page_size=page_size)
    _drive(cursor, expected, steps)
    if telemetry:
        assert session.last_trace().attrs["rows"] == cursor.rows_yielded
    _writer_gets_in(db)
    session.close()


# -- what the demand buys --------------------------------------------------------


@pytest.fixture
def gathered(monkeypatch):
    """Values each pending gather reads, by the column it reads."""
    reads: dict[int, int] = {}
    take = batch._take

    def counting(source, position, ids):
        reads[position] = reads.get(position, 0) + len(ids)
        return take(source, position, ids)

    monkeypatch.setattr(batch, "_take", counting)
    return reads


@pytest.fixture
def wide() -> Database:
    db = Database()
    db.execute("CREATE TABLE w (k INTEGER, a INTEGER, b TEXT, c REAL)")
    db.insert_rows("w", ({"k": i * 7919 % 2000, "a": i, "b": f"s{i}",
                          "c": i / 4} for i in range(2000)))
    return db


def test_a_window_over_a_sort_gathers_its_rows(wide, gathered):
    expected = wide.query("SELECT k, a, b, c FROM w ORDER BY k").rows
    gathered.clear()
    cursor = wide.stream("SELECT k, a, b, c FROM w ORDER BY k")
    assert cursor.fetchmany(10) == expected[:10]
    assert all(reads <= 10 for reads in gathered.values())
    assert sorted(gathered) == [0, 1, 2, 3]
    cursor.close()


def test_limit_over_a_sort_gathers_its_rows(wide, gathered):
    sql = "SELECT k, a, b, c FROM w ORDER BY k LIMIT 10"
    for drain in (lambda: wide.query(sql).rows,
                  lambda: wide.stream(sql).fetchall()):
        gathered.clear()
        assert len(drain()) == 10
        assert all(reads <= 10 for reads in gathered.values())


def test_a_rest_page_combines_once(monkeypatch):
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=12, seed=7)))
    service = CrosseRestService(platform, pool_capacity=1)
    assert service.request("POST", "/api/v1/users",
                           {"username": "anna"}).status == 200
    for subject, level in (("Mercury", "high"), ("Mercury", "extreme"),
                           ("Lead", "medium")):
        assert service.request("POST", "/api/v1/annotations", {
            "username": "anna", "subject": subject,
            "property": "dangerLevel", "object": level}).status == 200
    combined = []
    for cls in (join_manager.PreparedPairCombine,
                join_manager.PreparedFlagCombine):
        def counting(self, base, _combine=cls.combine):
            combined.append(len(base))
            return _combine(self, base)
        monkeypatch.setattr(cls, "combine", counting)
    body = {"username": "anna", "limit": 5,
            "query": "SELECT landfill_name, elem_name FROM elem_contained "
                     "ORDER BY landfill_name, elem_name "
                     "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"}
    token = None
    for _page in range(2):
        response = service.request("POST", "/api/v1/query",
                                   {**body, "next_token": token})
        assert response.status == 200
        assert len(response.payload["rows"]) == 5
        token = response.payload["next_token"]
        assert token is not None
        # One combine per page, over at most the page, its lookahead
        # and the rows a continuation skips.
        assert len(combined) == 1 and combined[0] <= 5 * (_page + 1) + 1
        combined.clear()
    service.close()


def test_the_single_valued_map_is_built_once_per_extraction(monkeypatch):
    """N cursors of a SCHEMAREPLACEMENT over one cached extraction build
    its single-valued map once; an annotate to the enrichment's
    predicate replaces the extraction, whose map is built once more."""
    built = []
    single = tempdb.SqlExtraction.single.func

    def counting(self):
        built.append(self)
        return single(self)
    counted = cached_property(counting)
    counted.__set_name__(tempdb.SqlExtraction, "single")
    monkeypatch.setattr(tempdb.SqlExtraction, "single", counted)
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=12, seed=7)))
    platform.register_user("anna")
    for subject, level in (("Mercury", "high"), ("Lead", "medium")):
        platform.annotate_free("anna", SMG[subject], SMG.dangerLevel,
                               Literal(level))
    text = ("SELECT landfill_name, elem_name FROM elem_contained "
            "WHERE amount > ? ORDER BY landfill_name, elem_name "
            "ENRICH SCHEMAREPLACEMENT(elem_name, dangerLevel)")
    session = platform.connect().as_user("anna")

    def paged(session, amount) -> list[tuple]:
        rows, cursor = [], session.stream(text, [amount])
        while page := cursor.fetchmany(7):
            rows += page
        return rows

    answers = [paged(session, amount) for amount in (0.0, 5.0, 12.5, 0.0)]
    assert len(built) == 1 and built[0].single is not None
    assert {row[1] for row in answers[0]} >= {"high", "medium", None}
    platform.annotate_free("anna", SMG.Mercury, SMG.dangerLevel,
                           Literal("extreme"))
    answers = [paged(session, amount) for amount in (0.0, 5.0, 12.5, 0.0)]
    assert len(built) == 2 and built[1].single is None
    fresh = platform.connect(repro.QueryOptions()).as_user("anna")
    assert answers == [paged(fresh, amount)
                       for amount in (0.0, 5.0, 12.5, 0.0)]
    assert len(built) == 3      # the fresh session's own extraction
    assert {"high", "extreme"} <= {row[1] for row in answers[0]}
