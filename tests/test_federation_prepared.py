"""A prepared statement over a mediated databank is planned once.

What it ships is derived once per template — the views it wants, the
conjuncts its sources can apply with their ``?`` kept, each fragment
composed with them — and each run binds only its values: it folds the
column-free conjuncts of each fragment (``'Italy' = ?``) to eliminate
the fragments they contradict, and ships the composed statement with
the values it reads, so every source re-drives the tree it keeps for
it.  What must hold:

* N runs of a prepared template build one tree per shipped fragment at
  each source, and a fragment-cache hit leaves the tree free to
  re-drive (a cached fragment holds no operator);
* a run answers, ships and eliminates what the same statement with its
  values inlined does;
* the fragment cache keys on the values, type-tagged: ``1``, ``1.0``
  and ``TRUE`` are three keys; a source INSERT misses it;
* a source table dropped and created again gets a new tree;
  ``define_view`` drops the templates; ad hoc statements leave none
  behind;
* ``MediatedDatabank.explain(stmt, params=...)`` ships what
  ``execute_ast(stmt, params)`` does;
* databanks over one mediator run their templates concurrently: the
  unfiltered fragments and the sources' trees they share answer right.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import FederationOptions, Mediator
from repro.relational import Database, ast
from repro.relational.parser import SqlParser, parse_sql
from repro.relational.render import render_literal

ROWS = {
    "italy": [("lf_it_1", 12.0, 1), ("lf_it_2", 7.5, 2), ("lf_it_3", None, 3),
              ("lf_it_4", 1.0, None)],
    "france": [("lf_fr_1", 9.0, 1), ("lf_fr_2", 7.5, 5), ("lf_fr_3", 0.5, 2)],
    "spain": [("lf_es_1", 3.0, 4), ("lf_es_2", None, None)],
}


def load(db: Database, rows) -> None:
    db.execute("CREATE TABLE landfill (name TEXT, size REAL, n INTEGER)")
    db.insert_rows("landfill", [dict(zip(("name", "size", "n"), row))
                                for row in rows])


def partitioned() -> tuple[Mediator, dict[str, Database]]:
    """A view whose fragments tag their rows with a constant country —
    one of them through a star."""
    mediator = Mediator(FederationOptions(max_workers=1))
    sources = {}
    fragments = []
    for source, rows in ROWS.items():
        db = sources[source] = Database(source)
        load(db, rows)
        mediator.register_source(source, db)
        country = source.capitalize()
        fragments.append((source, (
            f"SELECT *, '{country}' AS country FROM landfill"
            if source == "france" else
            f"SELECT name, size, n, '{country}' AS country "
            f"FROM landfill")))
    mediator.define_view("eu", fragments)
    return mediator, sources


def prepare(text: str):
    """*text* parsed as a prepared statement: each ``?`` a slot."""
    return SqlParser(text, first_param=0).parse_statement()


def inline(text: str, values) -> str:
    pieces = text.split("?")
    return "".join(piece + literal for piece, literal in zip(
        pieces, [render_literal(value) for value in values] + [""]))


def test_n_runs_build_one_tree_per_fragment_at_each_source():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE size > ? ORDER BY name")
    for run, size in enumerate((0.0, 1.0, 2.0, 5.0, 8.0)):
        result = bank.execute_ast(stmt, (size,))
        assert result.rows == bank.query(
            f"SELECT name FROM eu WHERE size > {size} ORDER BY name").rows
        for db in sources.values():
            # The inlined statement above builds one tree per run: the
            # prepared one's stays the one it built first.
            assert db.tree_stats()["reused"] == run
    assert len(bank.session._ship_templates) == 1


def test_a_cached_fragment_holds_no_operator_and_frees_its_tree():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE n = ?")
    bank.execute_ast(stmt, (1,))
    entries = list(mediator.fragment_cache._entries.values())
    assert len(entries) == len(sources)
    assert all(entry.plan is None for entry in entries)
    bank.execute_ast(stmt, (1,))
    assert bank.last_report.fragment_cache_hits == len(sources)
    before = {name: db.tree_stats() for name, db in sources.items()}
    bank.execute_ast(stmt, (2,))
    for name, db in sources.items():
        assert db.tree_stats() == {"built": before[name]["built"],
                                   "reused": before[name]["reused"] + 1}


#: (statement, its ``?`` count, whether a run ships the text the bound
#: statement does: not where a conjunct reads a column *and* folds once
#: bound — ``'Italy' = ? OR n = ?`` ships as written, values bound).
SHAPES = [
    ("SELECT name, size FROM eu WHERE size > ? ORDER BY name", 1, True),
    ("SELECT name, n FROM eu WHERE n = ? ORDER BY name", 1, True),
    ("SELECT name FROM eu WHERE size BETWEEN ? AND ? ORDER BY name", 2,
     True),
    ("SELECT name FROM eu WHERE n IN (?, ?) ORDER BY name", 2, True),
    ("SELECT name, country FROM eu WHERE country = ? ORDER BY name", 1,
     True),
    ("SELECT name FROM eu WHERE country = ? AND size > ? ORDER BY name", 2,
     True),
    ("SELECT name FROM eu WHERE (country = ? OR n = ?) AND size >= ? "
     "ORDER BY name", 3, False),
    ("SELECT country, COUNT(*) AS c FROM eu WHERE ? < size "
     "GROUP BY country ORDER BY country", 1, True),
]

VALUES = st.one_of(
    st.none(), st.integers(-1, 6), st.floats(-1, 13, allow_nan=False),
    st.booleans(), st.sampled_from(["Italy", "France", "Spain", "lf_it_2"]))


def outcome(bank, stmt, values=None):
    """What a run answers — or raises — and what it shipped."""
    try:
        result = bank.execute_ast(stmt, values)
    except Exception as exc:
        return ("raised", type(exc), str(exc)), None
    return (result.columns, result.rows), bank.last_report


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_a_run_ships_what_the_bound_statement_ships(shape, data):
    """Parity with the statement its values are bound into — how a
    prepared statement ran before it was planned once — and with its
    values inlined as SQL text."""
    text, arity, same_text = shape
    values = tuple(data.draw(VALUES) for _ in range(arity))
    mediator, _sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare(text)
    answer, report = outcome(bank, stmt, values)
    bound, bound_report = outcome(bank, ast.clone_query(stmt, values))
    assert answer == bound
    assert answer == outcome(bank, parse_sql(inline(text, values)))[0]
    if report is None:
        return
    assert report.eliminated == bound_report.eliminated
    assert report.rows_per_source == bound_report.rows_per_source
    assert [source for source, _sql in report.sub_queries] \
        == [source for source, _sql in bound_report.sub_queries]
    assert report.pushed_filters == bound_report.pushed_filters
    if same_text and None not in values:
        # The text the source ran is the bound statement's.
        assert report.sub_queries == bound_report.sub_queries


def test_a_constant_column_eliminates_per_value():
    mediator, _sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE country = ? AND size > ? "
                     "ORDER BY name")
    # NULL contradicts nothing: the fragments ship, and answer nothing.
    for country, shipped_from in (("Italy", ["italy"]),
                                  ("France", ["france"]),
                                  ("Greece", []), (None, list(ROWS))):
        rows = bank.execute_ast(stmt, (country, 1.0)).rows
        report = bank.last_report
        assert [source for source, _sql in report.sub_queries] \
            == shipped_from
        assert sorted(report.eliminated) == sorted(
            ("eu", source) for source in ROWS if source not in shipped_from)
        assert rows == [row for row in bank.query(
            "SELECT name FROM eu WHERE size > 1.0 ORDER BY name").rows
            if country and row[0].startswith(f"lf_{country[:2].lower()}")]
    # The guard is not what the source runs: only the column filter is.
    bank.execute_ast(stmt, ("Italy", 1.0))
    assert bank.last_report.sub_queries == [("italy", (
        "SELECT name, size, n, 'Italy' AS country FROM landfill "
        "WHERE (size > 1.0)"))]


def test_one_and_one_point_zero_and_true_are_three_cache_keys():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE n = ? ORDER BY name")
    answers = {}
    for value in (1, 1.0, True):
        answers[repr(value)] = bank.execute_ast(stmt, (value,)).rows
        assert bank.last_report.fragment_cache_hits == 0
        assert answers[repr(value)] == bank.query(
            f"SELECT name FROM eu WHERE n = {render_literal(value)} "
            f"ORDER BY name").rows
    assert answers["1"] == answers["1.0"] != answers["True"]
    for value in (1, 1.0, True):
        assert bank.execute_ast(stmt, (value,)).rows == answers[repr(value)]
        assert bank.last_report.fragment_cache_hits == len(sources)


def test_a_source_insert_misses_the_cache():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE size > ? ORDER BY name")
    bank.execute_ast(stmt, (5.0,))
    bank.execute_ast(stmt, (5.0,))
    assert bank.last_report.fragment_cache_hits == 3
    sources["spain"].execute(
        "INSERT INTO landfill VALUES ('lf_es_3', 50.0, 1)")
    rows = bank.execute_ast(stmt, (5.0,)).rows
    assert bank.last_report.fragment_cache_hits == 2
    assert ("lf_es_3",) in rows


def test_a_source_table_dropped_and_created_again_gets_a_new_tree():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE size > ? ORDER BY name")
    bank.execute_ast(stmt, (5.0,))
    france = sources["france"]
    built = france.tree_stats()["built"]
    france.execute("DROP TABLE landfill")
    load(france, [("lf_fr_9", 99.0, 9)])
    rows = bank.execute_ast(stmt, (5.0,)).rows
    assert ("lf_fr_9",) in rows and ("lf_fr_1",) not in rows
    assert france.tree_stats()["built"] == built + 1
    bank.execute_ast(stmt, (6.0,))
    assert france.tree_stats()["built"] == built + 1


def test_a_star_expands_to_the_columns_of_the_table_created_again():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name, size FROM eu WHERE n = ? ORDER BY name")
    bank.execute_ast(stmt, (4,))
    france = sources["france"]
    france.execute("DROP TABLE landfill")
    # Same columns, another order: the star reads ``n`` second now, so
    # the view's ``n`` is France's ``size``.
    france.execute("CREATE TABLE landfill (name TEXT, n INTEGER, size REAL)")
    france.execute("INSERT INTO landfill VALUES ('lf_fr_8', 1, 4.0)")
    rows = bank.execute_ast(stmt, (4,)).rows
    assert rows == bank.query("SELECT name, size FROM eu WHERE n = 4 "
                              "ORDER BY name").rows
    assert ("lf_fr_8", 1.0) in rows


def test_define_view_drops_the_templates():
    mediator, _sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare("SELECT name FROM eu WHERE size > ? ORDER BY name")
    bank.execute_ast(stmt, (5.0,))
    [before] = bank.session._ship_templates[id(stmt)].values()
    mediator.define_view("eu", [
        ("italy", "SELECT name, size, n, 'Italy' AS country "
                  "FROM landfill")])
    rows = bank.execute_ast(stmt, (5.0,)).rows
    assert [source for source, _sql in bank.last_report.sub_queries] \
        == ["italy"]
    assert rows == [("lf_it_1",), ("lf_it_2",)]
    [after] = bank.session._ship_templates[id(stmt)].values()
    assert after is not before


def test_ad_hoc_statements_leave_the_memo_bounded():
    mediator, sources = partitioned()
    session = mediator.connect()
    for index in range(1000):
        session.execute(f"SELECT name FROM eu WHERE size > {index % 50}.5 "
                        f"AND n <> {index}")
    gc.collect()
    assert len(session._ship_templates) == 0
    for db in sources.values():
        # The unfiltered base fragment's is the only one a source keeps.
        assert len(db._templates) <= 1


def test_a_wrong_number_of_values_is_refused_before_shipping():
    mediator, sources = partitioned()
    bank = mediator.as_databank()
    with pytest.raises(Exception, match="expects 1 parameter"):
        bank.execute_ast(prepare("SELECT name FROM eu WHERE n = ?"),
                         (1, 2))
    assert all(db.tree_stats()["built"] == 0 for db in sources.values())


@pytest.mark.parametrize("text, runs", [
    ("SELECT name FROM eu WHERE country = ? AND size > ? ORDER BY name",
     [("Italy", 5.0), ("France", 1.0), ("Spain", 0.0), ("Greece", 0.0),
      (None, 1.0)]),
    ("SELECT name FROM eu WHERE n IN (?, ?) ORDER BY name",
     [(1, 2), (1.0, True), (None, 4)]),
    ("SELECT COUNT(*) FROM eu WHERE size > 1 AND ? = ?",
     [(1, 1), (1, 2)]),
])
def test_explain_names_what_execute_ships(text, runs):
    mediator, _sources = partitioned()
    bank = mediator.as_databank()
    stmt = prepare(text)
    for values in runs:
        bank.explain(stmt, params=values)
        explained = bank.last_report
        bank.refresh()
        bank.execute_ast(stmt, values)
        assert (explained.sub_queries, explained.eliminated) \
            == (bank.last_report.sub_queries, bank.last_report.eliminated)
        bank.refresh()


def test_databanks_over_one_mediator_run_concurrently():
    mediator, _sources = partitioned()
    text = "SELECT name FROM eu WHERE country = ? AND size > ? ORDER BY name"
    values = [(country, size) for country in ("Italy", "France", "Spain")
              for size in (0.0, 2.0, 8.0)]
    total = "SELECT COUNT(*) FROM eu"
    reference = mediator.as_databank()
    expected = {value: reference.execute_ast(prepare(text), value).rows
                for value in values}
    expected_total = reference.query(total).rows
    wrong = []

    def work(offset: int) -> None:
        bank = mediator.as_databank()
        stmt = prepare(text)
        for step in range(40):
            value = values[(offset + step) % len(values)]
            rows = bank.execute_ast(stmt, value).rows
            if rows != expected[value]:
                wrong.append((value, rows))
            if step % 10 == offset % 10:
                bank.refresh()
                if bank.query(total).rows != expected_total:
                    wrong.append(("total", offset))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
