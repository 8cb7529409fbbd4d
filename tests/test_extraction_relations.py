"""An extraction is a relation with a stable name.

A WHERE enrichment reads its extraction as a read-only temp table that
the databank registers once per extraction-cache entry, and the
statement rewritten over it — the template's ``?`` intact — is kept
with it, so the databank plans it once and re-drives its tree.  What
must hold:

* N runs of a rewritten template register one relation and plan once;
* a KB change that moves the user's generation gives a new relation
  and a new plan, drops the old relation, and never a stale answer;
* a relation is dropped when it is retired and its last lease is back,
  never earlier: an open cursor keeps it;
* an engine with no extraction cache keeps nothing: each run's release
  drops its relation;
* concurrent users register one relation each;
* a session owns the extraction cache of an engine it built, so closing
  it drops the relations — and leaves a caller's engine alone — and a
  session dropped unclosed takes them with it when it is collected;
* the rewrite stage says when it was recalled, and ``Session.stats``
  counts relations.
"""

from __future__ import annotations

import gc
import threading

import pytest

import repro
from repro.api import ExtractionCache, QueryOptions
from repro.core import SESQLEngine, StoredQueryRegistry
from repro.core.tempdb import live_relations
from repro.crosse import CrossePlatform
from repro.rdf import SMG
from repro.relational import Database
from repro.relational.render import render_literal
from repro.smartground import (DANGER_QUERY_SPARQL, SmartGroundConfig,
                               city_planner_kb, generate_databank,
                               researcher_kb)

HOTSPOTS = ("SELECT landfill_name, COUNT(*) AS hazards FROM elem_contained "
            "WHERE ${elem_name = HazardousWaste:cond1} AND amount > ? "
            "GROUP BY landfill_name ORDER BY hazards DESC, landfill_name "
            "ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)")

#: Not ordered and not grouped: a cursor over it reads batch by batch.
HAZARDS = ("SELECT elem_name, landfill_name FROM elem_contained "
           "WHERE ${elem_name = HazardousWaste:cond1} AND amount > ? "
           "ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)")

AMOUNTS = [1.0, 5.0, 12.5, 40.0, 0.0] * 2


def inline(text: str, values) -> str:
    pieces = text.split("?")
    return "".join(piece + literal for piece, literal in zip(
        pieces, [render_literal(value) for value in values] + [""]))


def sesql_tables(databank: Database) -> list[str]:
    return sorted(name for name in databank.table_names()
                  if name.startswith("__sesql_"))


@pytest.fixture
def databank() -> Database:
    return generate_databank(SmartGroundConfig(n_landfills=6, seed=42))


@pytest.fixture
def registry() -> StoredQueryRegistry:
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", DANGER_QUERY_SPARQL)
    return registry


@pytest.fixture
def counted(monkeypatch):
    """The relations registered in any databank, and the planner runs."""
    import repro.planner.plan as plan_module
    created: list[str] = []
    planned: list = []
    create, plan = Database.create_temp_table, plan_module.plan_select

    def create_temp_table(self, name, result):
        created.append(name)
        return create(self, name, result)

    def plan_select(*args, **kwargs):
        planned.append(args[0])
        return plan(*args, **kwargs)
    monkeypatch.setattr(Database, "create_temp_table", create_temp_table)
    monkeypatch.setattr(plan_module, "plan_select", plan_select)
    return created, planned


def reference(databank, kb, registry, text: str, values) -> list[tuple]:
    """The answer of an engine that keeps nothing, values inlined."""
    engine = SESQLEngine(databank, kb, stored_queries=registry)
    return engine.execute(inline(text, values)).rows


def test_n_runs_register_one_relation_and_plan_once(databank, registry,
                                                    counted):
    created, planned = counted
    kb = researcher_kb()
    expected = {amount: reference(databank, kb, registry, HOTSPOTS, [amount])
                for amount in AMOUNTS}
    assert len(set(map(tuple, expected.values()))) > 1
    del created[:], planned[:]
    session = repro.connect(databank, knowledge_base=kb,
                            stored_queries=registry)
    for amount in AMOUNTS:
        assert session.execute(HOTSPOTS, [amount]).rows == expected[amount]
        assert list(session.stream(HOTSPOTS, [amount])) == expected[amount]
    assert len(created) == 1 and len(planned) == 1
    assert databank.tree_stats() == {"built": 1, "reused": 19}
    assert session.stats()["extraction_relations"] == {
        "registered": 1, "retired": 0, "live": 1}
    assert sesql_tables(databank) == created
    session.close()
    assert sesql_tables(databank) == [] and live_relations(databank) == []
    assert session.stats()["extraction_relations"] == {
        "registered": 1, "retired": 1, "live": 0}


def test_a_moved_generation_gives_a_new_relation_and_plan(databank,
                                                          registry):
    """test_context_view's setting: a user's context is a view over the
    platform's one store, and accepting a statement moves its
    generation."""
    platform = CrossePlatform(databank)
    platform.register_stored_query("dangerQuery", DANGER_QUERY_SPARQL)
    platform.register_user("curator")
    platform.register_user("ada")
    hazards = [platform.annotate_free("curator", *triple).statement_id
               for triple in researcher_kb().triples(
                   None, SMG.isA, SMG.HazardousWaste)]
    assert len(hazards) >= 3
    session = platform.session_for("ada")
    view = platform.effective_kb("ada")
    names: list[str] = []
    for step, statement_id in enumerate(hazards[:3]):
        generation = view.generation
        platform.accept_statement("ada", statement_id)
        assert view.generation != generation
        for amount in (1.0, 12.5):
            assert session.execute(HOTSPOTS, [amount]).rows \
                == reference(databank, view, registry, HOTSPOTS, [amount])
        [relation] = live_relations(databank)
        assert relation.name not in names
        names.append(relation.name)
        assert sesql_tables(databank) == [relation.name]
        assert databank.tree_stats() == {"built": step + 1,
                                         "reused": step + 1}
    assert session.stats()["extraction_relations"] == {
        "registered": 3, "retired": 2, "live": 1}


def test_an_open_cursor_keeps_a_retired_relation(databank, registry):
    kb = researcher_kb()
    session = repro.connect(databank, knowledge_base=kb,
                            stored_queries=registry)
    old = reference(databank, kb, registry, HAZARDS, [1.0])
    cursor = session.stream(HAZARDS, [1.0], page_size=1)
    first = next(cursor)
    [relation] = live_relations(databank)
    kb.add(SMG.Iron, SMG.isA, SMG.HazardousWaste)
    new = session.execute(HAZARDS, [1.0]).rows
    assert len(new) > len(old)
    assert relation.retired and relation.leases == 1
    assert relation.name in databank.table_names()
    assert [first] + list(cursor) == old
    assert relation.name not in databank.table_names()
    assert len(live_relations(databank)) == 1


def test_an_engine_with_no_extraction_cache_keeps_nothing(databank,
                                                          registry):
    engine = SESQLEngine(databank, researcher_kb(), stored_queries=registry)
    text = inline(HOTSPOTS, [1.0])
    expected = engine.execute(text).rows
    assert sesql_tables(databank) == []
    cursor = engine.stream(text)
    assert len(sesql_tables(databank)) == 1
    assert list(cursor) == expected
    assert sesql_tables(databank) == []
    engine.explain_parsed(engine.parse(text), analyze=True)
    assert sesql_tables(databank) == []
    assert engine.relation_counts == {"registered": 3, "retired": 3,
                                      "live": 0}


def test_two_users_on_two_threads_register_one_relation_each(databank,
                                                             registry):
    kbs = {"researcher": researcher_kb(), "planner": city_planner_kb()}
    expected = {(name, amount): reference(databank, kb, registry, HOTSPOTS,
                                          [amount])
                for name, kb in kbs.items() for amount in AMOUNTS}
    sessions = {name: repro.connect(databank, knowledge_base=kb,
                                    stored_queries=registry)
                for name, kb in kbs.items()}
    wrong = []
    start = threading.Barrier(2)

    def work(name: str) -> None:
        session = sessions[name]
        start.wait(timeout=30)
        for amount in AMOUNTS:
            for rows in (session.execute(HOTSPOTS, [amount]).rows,
                         list(session.stream(HOTSPOTS, [amount]))):
                if rows != expected[name, amount]:
                    wrong.append((name, amount, rows))

    threads = [threading.Thread(target=work, args=(name,)) for name in kbs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for session in sessions.values():
        assert session.stats()["extraction_relations"] == {
            "registered": 1, "retired": 0, "live": 1}
    assert len(sesql_tables(databank)) == 2
    for session in sessions.values():
        session.close()
    assert sesql_tables(databank) == []


# -- who owns the cache ------------------------------------------------------------


def test_closing_a_connected_session_drops_its_relations(databank,
                                                         registry):
    session = repro.connect(databank, knowledge_base=researcher_kb(),
                            stored_queries=registry)
    session.execute(HOTSPOTS, [1.0])
    assert len(sesql_tables(databank)) == 1
    session.close()
    assert sesql_tables(databank) == []


def test_closing_a_platform_session_drops_its_users_relations(databank):
    platform = CrossePlatform(databank)
    platform.register_stored_query("dangerQuery", DANGER_QUERY_SPARQL)
    platform.register_user("curator")
    for triple in researcher_kb().triples(None, SMG.isA,
                                          SMG.HazardousWaste):
        statement_id = platform.annotate_free("curator",
                                              *triple).statement_id
        for username in ("ada", "bo"):
            if username not in platform.users:
                platform.register_user(username)
            platform.accept_statement(username, statement_id)
    shared = platform.connect(QueryOptions())
    for username in ("ada", "bo"):
        shared.as_user(username).execute(HOTSPOTS, [1.0])
    assert len(sesql_tables(databank)) == 2
    shared.close()
    assert sesql_tables(databank) == []


def test_a_session_dropped_unclosed_takes_its_relations(databank,
                                                        registry):
    session = repro.connect(databank, knowledge_base=researcher_kb(),
                            stored_queries=registry)
    session.execute(HOTSPOTS, [1.0])
    assert len(sesql_tables(databank)) == 1
    del session
    gc.collect()
    assert sesql_tables(databank) == [] and live_relations(databank) == []


def test_a_wrapped_engine_keeps_its_own_cache_and_relations(databank,
                                                            registry):
    cache = ExtractionCache(16)
    engine = SESQLEngine(databank, researcher_kb(), stored_queries=registry,
                         extraction_cache=cache)
    with repro.connect(engine) as session:
        session.execute(HOTSPOTS, [1.0])
    [name] = sesql_tables(databank)
    assert engine.execute(inline(HOTSPOTS, [5.0])).cache_hits == 1
    assert sesql_tables(databank) == [name]
    cache.clear()
    assert sesql_tables(databank) == []


# -- observability -----------------------------------------------------------------


def test_the_rewrite_stage_says_when_it_was_recalled(databank, registry):
    session = repro.connect(databank, knowledge_base=researcher_kb(),
                            stored_queries=registry)
    prepared = session.prepare(HOTSPOTS)
    recalled = []
    for amount in (1.0, 5.0):
        run = session.engine.explain_parsed(prepared.bind([amount]))
        recalled.append([stage.cached for stage in run.stages
                         if stage.name == "rewrite"])
    assert recalled == [[False], [True]]
    [rewrite] = [stage for stage in session.explain(HOTSPOTS, [1.0]).stages
                 if stage.name == "rewrite"]
    assert rewrite.cached and "[cached]" in rewrite.format()
    assert session.stats()["extraction_relations"]["registered"] == 1


def test_a_relation_keeps_its_values_types():
    """An extraction mixing ``5`` and an IRI is loaded as given: the
    relation still matches ``k = 5``, as the inlined IN-list does."""
    from repro.rdf import Literal, TripleStore
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, n TEXT)")
    db.execute("INSERT INTO t VALUES (5, 'five'), (6, 'six')")
    kb = TripleStore()
    kb.add(SMG.X, SMG.p, Literal(5))
    kb.add(SMG.X, SMG.p, SMG.Mercury)
    session = repro.connect(db, knowledge_base=kb)
    enriched = session.execute(
        "SELECT n FROM t WHERE ${k = X:c1} ENRICH REPLACECONSTANT(c1, X, p)")
    inlined = session.execute("SELECT n FROM t WHERE k IN (5, 'Mercury')")
    assert enriched.rows == inlined.rows == [("five",)]
