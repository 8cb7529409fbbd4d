"""An extraction is a relation bound to the run that reads it.

A WHERE enrichment reads its extraction as a relation the databank binds
to the run, as it binds the ``?`` values, under a name given by the
enrichment's position (``__sesql_vals_0``).  The statement rewritten
over it — the template's ``?`` intact — is the same statement whichever
user's extraction, at whichever KB generation, feeds it, so the databank
plans it once and re-drives its tree.  What must hold:

* N runs of a rewritten template plan once;
* users with different contexts, and KB writes between their runs,
  share that one tree, and never see a stale answer;
* no extraction is ever a catalog table;
* an open cursor keeps reading the extraction its run was bound to,
  after a KB change has given later runs a new one;
* a session owns the extraction cache of an engine it built, so closing
  it empties that cache — and leaves a caller's engine alone;
* the rewrite stage says when it was recalled;
* an extraction's values keep their types.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.api import ExtractionCache, QueryOptions
from repro.core import SESQLEngine, StoredQueryRegistry
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
def planned(monkeypatch):
    """The planner runs."""
    import repro.planner.plan as plan_module
    calls: list = []
    plan = plan_module.plan_select

    def plan_select(*args, **kwargs):
        calls.append(args[0])
        return plan(*args, **kwargs)
    monkeypatch.setattr(plan_module, "plan_select", plan_select)
    return calls


def reference(databank, kb, registry, text: str, values) -> list[tuple]:
    """The answer of an engine that keeps nothing, values inlined."""
    engine = SESQLEngine(databank, kb, stored_queries=registry)
    return engine.execute(inline(text, values)).rows


def test_n_runs_plan_once(databank, registry, planned):
    kb = researcher_kb()
    expected = {amount: reference(databank, kb, registry, HOTSPOTS, [amount])
                for amount in AMOUNTS}
    assert len(set(map(tuple, expected.values()))) > 1
    del planned[:]
    session = repro.connect(databank, knowledge_base=kb,
                            stored_queries=registry)
    for amount in AMOUNTS:
        assert session.execute(HOTSPOTS, [amount]).rows == expected[amount]
        assert list(session.stream(HOTSPOTS, [amount])) == expected[amount]
    assert len(planned) == 1
    assert databank.tree_stats() == {"built": 1, "reused": 19}
    assert sesql_tables(databank) == []


def test_one_tree_serves_every_user_and_generation(databank, registry):
    """test_context_view's setting: a user's context is a view over the
    platform's one store, and accepting a statement moves its
    generation.  Two users of one platform session, with a KB write
    between runs, re-drive one tree."""
    platform = CrossePlatform(databank)
    platform.register_stored_query("dangerQuery", DANGER_QUERY_SPARQL)
    for username in ("curator", "ada", "bo"):
        platform.register_user(username)
    hazards = [platform.annotate_free("curator", *triple).statement_id
               for triple in researcher_kb().triples(
                   None, SMG.isA, SMG.HazardousWaste)]
    assert len(hazards) >= 3
    platform.accept_statement("bo", hazards[-1])
    shared = platform.connect()
    users = {username: (shared.as_user(username),
                        platform.effective_kb(username))
             for username in ("ada", "bo")}
    answers = set()
    for statement_id, amount in zip(hazards, AMOUNTS):
        generation = users["ada"][1].generation
        platform.accept_statement("ada", statement_id)
        assert users["ada"][1].generation != generation
        for session, view in users.values():
            expected = reference(databank, view, registry, HOTSPOTS,
                                 [amount])
            assert session.execute(HOTSPOTS, [amount]).rows == expected
            assert list(session.stream(HOTSPOTS, [amount])) == expected
            answers.add(tuple(expected))
            assert sesql_tables(databank) == []
    assert len(answers) > 2
    assert databank.tree_stats()["built"] == 1


def test_an_open_cursor_keeps_a_retired_relation(databank, registry):
    kb = researcher_kb()
    session = repro.connect(databank, knowledge_base=kb,
                            stored_queries=registry)
    old = reference(databank, kb, registry, HAZARDS, [1.0])
    cursor = session.stream(HAZARDS, [1.0], page_size=1)
    first = next(cursor)
    kb.add(SMG.Iron, SMG.isA, SMG.HazardousWaste)
    new = session.execute(HAZARDS, [1.0]).rows
    assert len(new) > len(old)
    assert new == reference(databank, kb, registry, HAZARDS, [1.0])
    assert [first] + list(cursor) == old
    assert sesql_tables(databank) == []


def test_an_engine_with_no_extraction_cache_keeps_nothing(databank,
                                                          registry):
    engine = SESQLEngine(databank, researcher_kb(), stored_queries=registry)
    assert engine.sqm.cache is None
    text = inline(HOTSPOTS, [1.0])
    expected = engine.execute(text).rows
    assert sesql_tables(databank) == []
    cursor = engine.stream(text)
    assert sesql_tables(databank) == []
    assert list(cursor) == expected
    engine.explain_parsed(engine.parse(text), analyze=True)
    assert sesql_tables(databank) == []
    assert engine.sqm.cache is None


def test_two_users_on_two_threads_agree_with_the_reference(databank,
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
    assert sesql_tables(databank) == []


# -- who owns the cache ------------------------------------------------------------


def test_closing_a_connected_session_drops_its_relations(databank,
                                                         registry):
    session = repro.connect(databank, knowledge_base=researcher_kb(),
                            stored_queries=registry)
    session.execute(HOTSPOTS, [1.0])
    cache = session.engine.sqm.cache
    assert len(cache) == 1
    session.close()
    assert len(cache) == 0
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
    caches = []
    for username in ("ada", "bo"):
        session = shared.as_user(username)
        session.execute(HOTSPOTS, [1.0])
        caches.append(session.engine.sqm.cache)
    assert caches[0] is not caches[1]
    assert [len(cache) for cache in caches] == [1, 1]
    shared.close()
    assert [len(cache) for cache in caches] == [0, 0]
    assert sesql_tables(databank) == []


def test_a_wrapped_engine_keeps_its_own_cache_and_relations(databank,
                                                            registry):
    cache = ExtractionCache(16)
    engine = SESQLEngine(databank, researcher_kb(), stored_queries=registry,
                         extraction_cache=cache)
    with repro.connect(engine) as session:
        session.execute(HOTSPOTS, [1.0])
    assert engine.sqm.cache is cache and len(cache) == 1
    assert engine.execute(inline(HOTSPOTS, [5.0])).cache_hits == 1
    cache.clear()
    assert len(cache) == 0
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
    assert "__sesql_vals_0" in session.explain(HOTSPOTS, [1.0]).rewritten_sql


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
