"""A refreshed view grows by what its sources appended.

``MediatorSession.refresh`` retires a held view; the view's next full
ship grows it in place when it is a ``union_all`` of one-table
projections whose tables only had rows appended (same floor, same
stamp, more slots) and whose rows keep their types, and assembles it
afresh otherwise.  What must hold:

* a grown view is a fresh ship's multiset, over a scan, a probe and
  the three drains, and holds each fragment's rows in its source's
  order, every new row after all the old ones;
* a run over the view as it was before the refresh — a stream cursor
  opened then and drained after the view grew — never sees a new row,
  by scan or by probe, whatever the worker pool;
* every other write (DELETE, UPDATE, truncate, compaction, DROP +
  CREATE, ``bump_generation``, a backward ``pin_generation``) and a
  suffix of another type assemble afresh;
* the fragment cache keys on the tables a fragment reads, so a write
  to one table of a source leaves the fragments over its others hits;
* a one-fragment view, which binds its cached fragment's own lists,
  copies them before it first grows, with lookups of its own: the cache
  entry keeps its length, and a lookup a run over the view as it was
  builds on those lists is not the grown view's.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.federation import FederationOptions, Mediator
from repro.relational import Database, batch
from repro.relational.parser import SqlParser

WHOLE = "SELECT k, n, s, origin FROM v"
PROBE = "SELECT k, n, s, origin FROM v WHERE k = ?"


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def source(name: str, rows: list[tuple]) -> Database:
    database = Database(name)
    database.execute("CREATE TABLE t (k INTEGER, n REAL, s TEXT)")
    database.execute("CREATE TABLE u (k INTEGER, s TEXT)")
    append(database, rows)
    database.execute("INSERT INTO u VALUES (1, 'u')")
    return database


def append(database: Database, rows: list[tuple]) -> None:
    if rows:
        database.insert_rows("t", [dict(zip("kns", row)) for row in rows])


def federation(workers: int = 1, one: bool = False):
    """Two sources behind a mediator; ``v`` is a ``union_all`` of their
    ``t`` s (the second filtered), or of the first alone when *one*."""
    sources = [source("s0", [(1, 0.5, "a"), (2, 1.5, "b"), (3, 2.5, "c")]),
               source("s1", [(2, 0.5, "x"), (4, 9.5, "y"), (0, 1.0, "z")])]
    mediator = Mediator(FederationOptions(max_workers=workers))
    for database in sources:
        mediator.register_source(database.name, database)
    fragments = [("s0", "SELECT k, n, s, 's0' AS origin FROM t"),
                 ("s1", "SELECT k, n, s, 's1' AS origin FROM t "
                        "WHERE k <> 4")]
    mediator.define_view("v", fragments[:1] if one else fragments)
    mediator.define_view("w", [(database.name, "SELECT k, s FROM u")
                               for database in sources])
    return sources, mediator


def fresh(mediator: Mediator, sql: str, values: tuple = ()) -> Counter:
    """What a session that never held anything answers."""
    return Counter(mediator.as_databank().execute_ast(parsed(sql),
                                                      values).rows)


def held(bank):
    return bank.session._materialized["v"]


def ship_whole(bank):
    """A full ship of ``v`` (a statement with no filter to push)."""
    rows = bank.execute_ast(parsed(WHOLE), ()).rows
    assert bank.last_report.pushed_filters == {}
    return rows


def grown_bank(workers: int = 1, one: bool = False):
    """A databank whose ``v`` was held, probed on ``k``, retired and
    grown by rows appended to both sources."""
    sources, mediator = federation(workers, one)
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    assert bank.execute_ast(parsed(PROBE), (2,)).rows
    assert 0 in before.paths._lookups
    append(sources[0], [(2, 7.5, "d"), (5, 3.0, "e")])
    append(sources[1], [(2, 8.5, "v"), (4, 1.0, "skipped")])
    bank.refresh()
    ship_whole(bank)
    after = held(bank)
    assert (after.paths is before.paths) != one      # in place, or a copy
    assert len(after) > len(before)
    return sources, mediator, bank, before


# -- a grown view is a fresh ship ---------------------------------------------


@pytest.mark.parametrize("one", [False, True])
@pytest.mark.parametrize("sql, values", [
    (WHOLE, ()), (PROBE, (2,)), (PROBE, (5,)),
    ("SELECT origin, COUNT(*), SUM(n) FROM v GROUP BY origin", ()),
    ("SELECT k, s FROM v WHERE k IN (SELECT k FROM w)", ())])
def test_a_grown_view_is_a_fresh_ship_over_every_drain(one, sql, values):
    _sources, mediator, bank, _before = grown_bank(one=one)
    expected = fresh(mediator, sql, values)
    statement = parsed(sql)
    assert Counter(bank.execute_ast(statement, values).rows) == expected
    assert bank.last_report.view_rows["v"] == len(held(bank))
    cursor = bank.stream_ast(statement, values)
    assert Counter(cursor.fetchall()) == expected
    planned = bank.explain(statement, analyze=True, params=values)
    assert planned.root.actual_rows == sum(expected.values())
    if sql == PROBE:
        assert "probe k" in planned.format()


def test_a_grown_view_keeps_each_fragments_rows_in_source_order():
    sources, _mediator, bank, before = grown_bank()
    old = list(zip(*(column[:len(before)] for column in before.cols)))
    rows = ship_whole(bank)
    # Every new row after all the old ones, fragment by fragment.
    assert rows[:len(old)] == old
    assert rows[len(old):] == [(2, 7.5, "d", "s0"), (5, 3.0, "e", "s0"),
                               (2, 8.5, "v", "s1")]
    for index, database in enumerate(sources):
        mine = [row[:3] for row in rows if row[3] == f"s{index}"]
        kept = database.query("SELECT k, n, s FROM t").rows
        assert mine == [row for row in kept
                        if index == 0 or row[0] != 4]


def test_an_unchanged_source_holds_the_retired_view_again():
    _sources, mediator = federation()
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    bank.refresh()
    assert bank.execute_ast(parsed(PROBE), (2,)).rows
    assert bank.last_report.pushed_filters          # shipped afresh
    ship_whole(bank)
    assert held(bank) is before


# -- a run over the retired view sees none of its growth --------------------


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("taken", [0, 1])
@pytest.mark.parametrize("one", [False, True])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("sql, values", [
    (WHOLE, ()), (PROBE, (2,)),
    ("SELECT k, s FROM v WHERE k IN (SELECT k FROM w)", ())])
def test_a_cursor_opened_before_refresh_sees_no_grown_row(
        monkeypatch, workers, taken, one, warm, sql, values):
    """Drained after the view grew — from its first row, or after one
    taken before — at two rows a batch, so it reads on past a batch
    edge the grown rows could have come through.  The grown view then
    probes as a fresh ship answers, also when the cursor's first pull
    built the lookup (*warm* off): over lists the grown view shares
    (in place), or over the cached fragment's, which a one-fragment
    view grows a copy of."""
    monkeypatch.setattr(batch, "BATCH_SIZE", 2)
    sources, mediator = federation(workers, one)
    bank = mediator.as_databank()
    ship_whole(bank)
    if warm:
        assert bank.execute_ast(parsed(PROBE), (2,)).rows
    expected = fresh(mediator, sql, values)
    cursor = bank.stream_ast(parsed(sql), values)
    rows = cursor.fetchmany(taken)
    before = held(bank)
    if not (warm or taken or sql == PROBE):
        # An IN probe builds its lookup at its first pull (an = probe as
        # the cursor opens): here, once the view grew.
        assert not before.paths.built(0)
    append(sources[0], [(2, 7.5, "d"), (1, 6.5, "e")] * 2)
    append(sources[1], [(2, 8.5, "v"), (1, 5.5, "w")] * 2)
    bank.refresh()
    ship_whole(bank)
    grown = held(bank)
    assert (grown.cols[0] is before.cols[0]) != one    # in place, or a copy
    assert (len(before.cols[0]) > len(before)) != one
    assert Counter(rows + cursor.fetchall()) == expected
    assert fresh(mediator, sql, values) != expected
    for key in (1, 2):
        assert Counter(bank.execute_ast(parsed(PROBE), (key,)).rows) \
            == fresh(mediator, PROBE, (key,))
        assert bank.last_report.pushed_filters == {}
    assert held(bank) is grown and grown.paths.built(0)


# -- every other write assembles afresh --------------------------------------


def delete(database):
    database.execute("DELETE FROM t WHERE k = 2")


def update(database):
    database.execute("UPDATE t SET s = 'changed' WHERE k = 1")


def truncate(database):
    database.table("t").truncate()
    append(database, [(7, 7.0, "t")] * 5)


def drop_and_create(database):
    database.execute("DROP TABLE t")
    database.execute("CREATE TABLE t (k INTEGER, n REAL, s TEXT)")
    append(database, [(8, 8.0, "d")] * 5)


def bump(database):
    database.bump_generation()


def pin_back(database):
    database.pin_generation(database.generation - 1)


def new_type(database):
    append(database, [(9, None, "n")])


@pytest.mark.parametrize("change", [delete, update, truncate,
                                    drop_and_create, bump, pin_back,
                                    new_type])
def test_any_other_change_assembles_afresh(change):
    sources, mediator = federation()
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    change(sources[0])
    append(sources[0], [(6, 6.5, "f")])
    bank.refresh()
    ship_whole(bank)
    assert held(bank).paths is not before.paths
    assert Counter(ship_whole(bank)) == fresh(mediator, WHOLE)


def test_a_view_redefined_while_held_assembles_afresh():
    """Redefined while held, then retired after a query over another
    view already ran under the new definitions: growth is refused when
    it would grow, by the stamp the view was held under."""
    sources, mediator = federation()
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    mediator.define_view("v", [("s0", "SELECT k, n, s, 's0' AS origin "
                                      "FROM t"),
                               ("s1", "SELECT k, n, s, 's1' AS origin "
                                      "FROM t WHERE k <> 2")])
    assert bank.execute_ast(parsed("SELECT k FROM w"), ()).rows
    bank.refresh()
    append(sources[0], [(6, 6.5, "f")])
    ship_whole(bank)
    assert held(bank).paths is not before.paths
    assert Counter(ship_whole(bank)) == fresh(mediator, WHOLE)


def test_a_compaction_assembles_afresh():
    """A compaction renumbers the slots: ``state`` must not match the
    one before, even once appends bring the slot count back."""
    sources, mediator = federation()
    database = sources[0]
    append(database, [(10 + i, 1.0, "p") for i in range(97)])
    database.execute("DELETE FROM t WHERE k >= 10 AND k < 20")
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    with database.rwlock.write_locked():
        database.table("t")._compact()
    append(database, [(6, 6.5, "f")] * 10)
    bank.refresh()
    ship_whole(bank)
    assert held(bank).paths is not before.paths
    assert Counter(ship_whole(bank)) == fresh(mediator, WHOLE)


# -- the fragment cache keys on the tables a fragment reads -----------------


def test_a_write_to_one_table_keeps_the_others_fragments_hits():
    sources, mediator = federation()
    session = mediator.connect()
    for sql in ("SELECT * FROM v", "SELECT * FROM w"):
        session.execute(sql)
    session.refresh()
    sources[0].execute("INSERT INTO u VALUES (2, 'more')")
    _result, report = session.execute("SELECT * FROM v")
    assert report.fragment_cache_hits == 2
    _result, report = session.execute("SELECT * FROM w")
    assert report.fragment_cache_hits == 1
    sources[0].execute("UPDATE u SET s = 'other'")
    session.refresh()
    _result, report = session.execute("SELECT * FROM v")
    assert report.fragment_cache_hits == 2


def test_a_one_fragment_views_cache_entry_keeps_its_length():
    sources, mediator = federation(one=True)
    bank = mediator.as_databank()
    ship_whole(bank)
    before = held(bank)
    entries = list(mediator.fragment_cache._entries.values())
    assert len(entries) == 1
    assert all(mine is bound
               for mine, bound in zip(entries[0].cols, before.cols))
    lengths = [len(column) for column in before.cols]
    append(sources[0], [(2, 7.5, "d")])
    bank.refresh()
    ship_whole(bank)
    assert held(bank).paths is not before.paths
    assert len(held(bank)) == len(before) + 1
    assert [len(column) for column in entries[0].cols] == lengths
    assert len(entries[0]) == lengths[0]
    assert Counter(ship_whole(bank)) == fresh(mediator, WHOLE)
