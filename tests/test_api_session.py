"""The unified session API: connect, prepare, bind, explain, caches."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import ExtractionCache, LRUCache, SessionError
from repro.core import ParameterError, SESQLEngine, SesqlSyntaxError
from repro.crosse import CrossePlatform
from repro.federation import Mediator
from repro.rdf import Namespace, TripleStore, parse_turtle
from repro.relational import Database
from repro.relational.render import render_literal, render_query
from repro.smartground import SmartGroundConfig, generate_databank

SMG = Namespace("http://smartground.eu/ns#")


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO elem_contained VALUES
            ('a','Mercury',12.0), ('a','Iron',140.0), ('b','Mercury',7.0);
    """)
    return database


@pytest.fixture
def kb():
    return parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
        smg:Iron smg:dangerLevel "low" .
    """)


@pytest.fixture
def session(db, kb):
    return repro.connect(db, knowledge_base=kb)


ENRICHED = ("SELECT elem_name FROM elem_contained WHERE amount > ? "
            "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")


# -- connect dispatch -------------------------------------------------------


def test_connect_wraps_database_and_engine(db, kb):
    assert repro.connect(db).databank is db
    engine = SESQLEngine(db, kb)
    assert repro.connect(engine).engine is engine


def test_connect_rejects_unknown_sources():
    with pytest.raises(SessionError):
        repro.connect(42)


def test_connect_rejects_inapplicable_kwargs(db, kb):
    engine = SESQLEngine(db, kb)
    with pytest.raises(SessionError):
        repro.connect(engine, knowledge_base=TripleStore())
    mediator = Mediator()
    with pytest.raises(SessionError):
        repro.connect(mediator, include_original=True)


def test_connect_matches_direct_engine_execution(session, db, kb):
    sesql = ("SELECT elem_name FROM elem_contained "
             "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    via_session = session.query(sesql)
    via_engine = SESQLEngine(db, kb).query(sesql)
    assert via_session.columns == via_engine.columns
    assert via_session.same_rows(via_engine)


# -- prepared queries and parameter binding ---------------------------------


def test_prepared_binding_preserves_types(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE amount > ?")
    assert prepared.parameter_count == 1
    as_float = prepared.execute([10.0])
    as_int = prepared.execute([10])
    assert sorted(as_float.rows) == sorted(as_int.rows) \
        == [("Iron",), ("Mercury",)]
    # The bound literal keeps its Python type in the rendered SQL.
    assert "10.0" in as_float.executed_sql
    assert "(amount > 10)" in as_int.executed_sql


def test_prepared_binding_is_injection_safe(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE elem_name = ?")
    hostile = "x' OR '1'='1"
    assert prepared.execute([hostile]).rows == []
    # The value is spliced as a literal, quoted, not interpreted.
    assert prepared.execute(["Iron"]).rows == [("Iron",)]


def test_placeholder_inside_string_literal_is_not_a_parameter(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE elem_name = 'who?'")
    assert prepared.parameter_count == 0
    assert prepared.execute().rows == []


def test_placeholder_inside_comments_is_not_a_parameter(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained -- really?\n"
        "WHERE /* sure? */ amount > ?")
    assert prepared.parameter_count == 1
    assert sorted(prepared.execute([10.0]).rows) == [
        ("Iron",), ("Mercury",)]


def test_parameter_count_mismatch_rejected(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE amount > ?")
    with pytest.raises(ParameterError):
        prepared.execute()
    with pytest.raises(ParameterError):
        prepared.execute([1, 2])


def test_a_former_sentinel_spelling_is_an_ordinary_string(session):
    prepared = session.prepare("SELECT elem_name FROM elem_contained "
                               "WHERE elem_name = '__sesql_param_0__'")
    assert prepared.parameter_count == 0
    assert prepared.execute().rows == []


def test_unbindable_parameter_type_rejected(session):
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE amount > ?")
    with pytest.raises(ParameterError):
        prepared.execute([object()])


def test_placeholder_in_enrich_clause_rejected_at_prepare(session):
    # A ? in the ENRICH clause has no syntax-tree node to bind: the
    # spec scanner refuses it before anything is cached or run.
    with pytest.raises(SesqlSyntaxError, match="not the ENRICH clause"):
        session.prepare("SELECT elem_name FROM elem_contained "
                        "ENRICH SCHEMAEXTENSION(elem_name, ?)")
    assert len(session.plan_cache) == 0


def test_parameters_work_inside_tagged_conditions(session):
    outcome = session.execute(
        "SELECT landfill_name FROM elem_contained "
        "WHERE ${elem_name = Dangerous:c1} AND amount > ? "
        "ENRICH REPLACECONSTANT(c1, Dangerous, dangerLevel)",
        [8.0])
    # dangerLevel values ("high"/"low") never match elem_name, so the
    # rewritten condition filters everything out — but it must bind.
    assert outcome.rows == []
    assert "(amount > 8.0)" in outcome.executed_sql


def test_prepared_template_survives_execution(session):
    prepared = session.prepare(ENRICHED)
    first = prepared.execute([10.0])
    second = prepared.execute([10.0])
    assert first.result.same_rows(second.result)


@pytest.mark.parametrize("params", ["ab", b"ab", {"a": 1, "b": 2}, 5])
def test_bind_rejects_what_is_not_a_row_of_values(session, params):
    # Two slots: a two-character string, two bytes or a two-key mapping
    # would otherwise bind as two values nobody wrote.
    prepared = session.prepare("SELECT elem_name FROM elem_contained "
                               "WHERE elem_name = ? OR landfill_name = ?")
    with pytest.raises(ParameterError, match="sequence of values"):
        prepared.bind(params)


def test_a_parameterless_statement_runs_its_template(session):
    prepared = session.prepare("SELECT elem_name FROM elem_contained")
    assert prepared.bind() is prepared.bind([]) is prepared._template
    assert prepared.execute().enriched is prepared._template


def test_an_unbound_template_is_refused_before_it_runs(session, db):
    prepared = session.prepare(ENRICHED)
    tables = db.table_names()
    with pytest.raises(ParameterError, match="1 '\\?' parameter"):
        session.engine.execute_parsed(prepared._template)
    with pytest.raises(ParameterError):
        session.engine.execute(ENRICHED)
    assert db.table_names() == tables


def test_plain_sql_paths_refuse_placeholders(db):
    from repro.relational import SqlSyntaxError
    mediator = Mediator()
    mediator.register_source("origin", db)
    mediator.define_view("elem", [("origin", "SELECT * FROM elem_contained")])
    session = mediator.connect()
    text = "SELECT elem_name FROM elem_contained WHERE amount > ?"
    for run in (lambda: db.execute(text), lambda: db.execute_script(text),
                lambda: db.stream(text), lambda: db.explain(text),
                lambda: mediator.query(text.replace("elem_contained", "elem")),
                lambda: session.query(text.replace("elem_contained", "elem"))):
        with pytest.raises(SqlSyntaxError, match="prepared statements"):
            run()


# -- ? in every expression position: bound == the literals inlined ---------

_VALUES = (st.none() | st.booleans() | st.integers(0, 10**6)
           | st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
           | st.sampled_from(["Mercury", "Iron", "a", "high", "low"])
           | st.text(alphabet="ab?%_' é", max_size=5))

#: Where only numbers run, half the draws are (the rest must fail alike
#: on both sides).
_NUMBERS = st.booleans().flatmap(
    lambda number: st.integers(0, 200) if number else _VALUES)

#: (statement, SESQL include_original or None, values): every ``?``
#: position.
_POSITIONS = [
    ("SELECT elem_name, ? AS tag FROM elem_contained WHERE amount > ? "
     "ORDER BY elem_name, amount", None, _VALUES),
    ("SELECT elem_name FROM elem_contained WHERE elem_name IN (?, ?) "
     "OR elem_name LIKE ? ORDER BY elem_name, amount", None, _VALUES),
    ("SELECT landfill_name FROM elem_contained "
     "WHERE amount BETWEEN ? AND ? ORDER BY landfill_name, amount", None,
     _NUMBERS),
    ("SELECT landfill_name, COUNT(*) AS n FROM elem_contained "
     "GROUP BY landfill_name HAVING COUNT(*) >= ? ORDER BY landfill_name",
     None, _VALUES),
    ("SELECT elem_name FROM elem_contained ORDER BY elem_name, amount "
     "LIMIT ? OFFSET ?", None, _NUMBERS),
    ("SELECT d.e FROM (SELECT elem_name AS e, amount FROM elem_contained "
     "WHERE amount < ?) AS d ORDER BY d.e, d.amount", None, _VALUES),
    ("SELECT landfill_name FROM elem_contained WHERE elem_name IN "
     "(SELECT elem_name FROM elem_contained WHERE amount > ?) "
     "ORDER BY landfill_name, amount", None, _VALUES),
    ("SELECT elem_name FROM elem_contained WHERE amount > ? UNION "
     "SELECT landfill_name FROM elem_contained WHERE elem_name = ? "
     "ORDER BY 1", None, _VALUES),
] + [
    ("SELECT landfill_name, elem_name FROM elem_contained "
     "WHERE amount > ? AND ${elem_name = ? : c1} "
     "ORDER BY landfill_name, elem_name "
     "ENRICH REPLACEVARIABLE(c1, elem_name, dangerLevel)", include, _VALUES)
    for include in (False, True)]


def _outcome(run):
    """Rows and rewritten SQL of a run, or the error it raised."""
    try:
        outcome = run()
    except Exception as exc:  # the same failure on both sides is fine
        return type(exc).__name__, str(exc)
    return outcome.rows, outcome.executed_sql


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("text, include, drawn", _POSITIONS)
def test_bound_parameters_equal_the_literals_inlined(text, include, drawn,
                                                      data):
    # Inlined, each value parses back to the Literal binding splices in
    # (hence no negative numbers: "-5" parses as a negation).
    database = Database()
    database.execute_script(
        "CREATE TABLE elem_contained (landfill_name TEXT, elem_name TEXT, "
        "amount REAL); INSERT INTO elem_contained VALUES "
        "('a','Mercury',12.0), ('a','Iron',140.0), ('b','Mercury',7.0), "
        "('b', NULL, NULL)")
    session = repro.connect(database, knowledge_base=parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
        smg:Iron smg:dangerLevel "low" ."""))
    prepared = session.prepare(text)
    values = data.draw(st.lists(drawn, min_size=prepared.parameter_count,
                                max_size=prepared.parameter_count))
    pieces = text.split("?")
    inlined = "".join(piece + literal for piece, literal in zip(
        pieces, [render_literal(value) for value in values] + [""]))
    bound = _outcome(lambda: prepared.execute(
        values, include_original=include))
    assert bound == _outcome(lambda: session.execute(
        inlined, include_original=include))
    if isinstance(bound[0], list):
        assert prepared.execute(values, include_original=include).base_sql \
            == render_query(session.engine.parse(inlined).query)


# -- caching ----------------------------------------------------------------


def test_plan_cache_skips_reparsing(session):
    session.execute(ENRICHED, [10.0])
    assert session.plan_cache.misses == 1
    prepared = session.prepare(ENRICHED)
    assert prepared.from_cache
    assert session.plan_cache.hits == 1


def test_repeated_execution_hits_extraction_cache(session):
    first = session.execute(ENRICHED, [10.0])
    second = session.execute(ENRICHED, [5.0])
    assert first.cache_hits == 0 and first.cache_misses == 1
    assert second.cache_hits == 1 and second.cache_misses == 0


def test_kb_mutation_invalidates_extractions(session, kb):
    session.execute(ENRICHED, [10.0])
    kb.add(SMG.Copper, SMG.dangerLevel, "medium")
    outcome = session.execute(ENRICHED, [10.0])
    assert outcome.cache_misses == 1  # new KB generation, fresh SPARQL


def test_lru_cache_evicts_oldest():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")
    cache.put("c", 3)          # evicts "b" (least recently used)
    assert "a" in cache and "c" in cache and "b" not in cache


def test_zero_sized_cache_is_disabled():
    cache = ExtractionCache(maxsize=0)
    cache.put("k", "v")
    assert cache.get("k") is None
    assert len(cache) == 0


def test_closed_session_rejects_queries(session):
    session.close()
    with pytest.raises(SessionError):
        session.execute("SELECT 1")


# -- execute_many -----------------------------------------------------------


def test_execute_many_equals_looped_execute(session):
    rows = [[5.0], [10.0], [100.0]]
    batched = session.execute_many(ENRICHED, rows)
    for params, outcome in zip(rows, batched):
        solo = session.execute(ENRICHED, params)
        assert outcome.result.same_rows(solo.result)
    assert len(batched) == 3


# -- explain ----------------------------------------------------------------


def test_explain_reports_stages_without_running(session, db):
    tables_before = set(db.table_names())
    plan = session.explain(
        "SELECT landfill_name FROM elem_contained "
        "WHERE ${elem_name = Dangerous:c1} "
        "ENRICH REPLACECONSTANT(c1, Dangerous, dangerLevel) "
        "SCHEMAEXTENSION(elem_name, dangerLevel)")
    assert [stage.name for stage in plan.stages] == [
        "parse", "extract", "rewrite", "sql", "extract", "combine"]
    assert len(plan.sparql_queries) == 2
    assert "dangerLevel" in plan.sparql_queries[0]
    assert "IN (SELECT" in plan.rewritten_sql   # the WHERE rewrite fired
    assert plan.stages[-1].description \
        == "JoinManager folds 1 SELECT enrichment(s)"
    # The extraction's relation is bound to the run, never a table.
    assert set(db.table_names()) == tables_before
    assert "plan for:" in plan.format()
    session.close()


def test_explain_sees_cache_hits_after_execute(session):
    session.execute(ENRICHED, [10.0])
    plan = session.explain(ENRICHED, [10.0])
    assert plan.parse_cached
    assert plan.cache_hits == 1 and plan.cache_misses == 0
    extract = [s for s in plan.stages if s.name == "extract"]
    assert extract and all(stage.cached for stage in extract)


# -- platform sessions ------------------------------------------------------


@pytest.fixture
def platform():
    p = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=10, seed=3)))
    p.register_user("giulia")
    p.register_user("marco")
    return p


PLATFORM_SESQL = ("SELECT DISTINCT elem_name FROM elem_contained "
                  "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")


def test_platform_reuses_one_engine_per_user(platform):
    platform.run_sesql("giulia", PLATFORM_SESQL)
    engine = platform.connect().as_user("giulia").engine
    outcome = platform.run_sesql("giulia", PLATFORM_SESQL)
    assert platform.connect().as_user("giulia").engine is engine
    assert outcome.cache_hits >= 1  # second run reused the extraction


def test_platform_connect_dispatch(platform):
    assert repro.connect(platform) is platform.connect()


def test_accept_statement_invalidates_user_session(platform):
    value = platform.databank.query(
        "SELECT elem_name FROM elem_contained LIMIT 1").scalar()
    record = platform.annotate_free(
        "marco", SMG[value], SMG.dangerLevel, "high")
    before = platform.run_sesql("giulia", PLATFORM_SESQL)
    assert all(row[1] is None for row in before.rows)
    platform.accept_statement("giulia", record.statement_id)
    after = platform.run_sesql("giulia", PLATFORM_SESQL)
    assert any(row[1] == "high" for row in after.rows)


def test_session_queries_still_feed_context(platform):
    platform.connect().as_user("giulia").execute(PLATFORM_SESQL)
    assert platform.context.profile("giulia").weight("dangerLevel") > 0


STORED_SESQL = ("SELECT DISTINCT elem_name FROM elem_contained "
                "ENRICH SCHEMAEXTENSION(elem_name, myLevel)")
LEVEL_SPARQL = ("SELECT ?s ?o WHERE "
                "{ ?s <http://smartground.eu/ns#dangerLevel> ?o }")


def _levels(outcome):
    return {row[1] for row in outcome.rows}


@pytest.mark.parametrize("scope", ["global", "personal"])
@pytest.mark.parametrize("kind", ["shared", "custom", "pooled"])
def test_held_session_resolves_a_later_registration(platform, kind, scope):
    """Engines read the stored-query registries live: a session and a
    prepared query obtained *before* a registration resolve the name
    afterwards, on the engine they already had."""
    from repro.api import QueryOptions, SessionPool
    value = platform.databank.query(
        "SELECT elem_name FROM elem_contained LIMIT 1").scalar()
    platform.annotate_free("giulia", SMG[value], SMG.dangerLevel, "high")
    if kind == "shared":
        held = platform.session_for("giulia")
    elif kind == "custom":
        custom = platform.connect(QueryOptions(plan_cache_size=8))
        assert custom is not platform.connect()   # defaults untouched
        held = custom.as_user("giulia")
    else:
        held = SessionPool(platform, capacity=1).checkout("giulia").session
    engine = held.engine
    prepared = held.prepare(STORED_SESQL)
    assert _levels(prepared.execute()) == {None}  # a plain property
    platform.register_stored_query(
        "myLevel", LEVEL_SPARQL,
        username="giulia" if scope == "personal" else None)
    assert "high" in _levels(prepared.execute())
    assert "high" in _levels(held.execute(STORED_SESQL))
    assert held.engine is engine
    assert "myLevel" in engine.stored_queries
    assert ("myLevel" in platform.session_for("marco").engine
            .stored_queries) == (scope == "global")


def test_users_share_one_parsed_template(platform, monkeypatch):
    """Templates are keyed by text: the second user's prepare is a
    plan-cache hit and analysis ran once, yet each user's rows are her
    own context's (what a fresh per-user engine answers)."""
    import repro.api.session as session_module
    analysed = []
    real = session_module.analyze_enriched
    monkeypatch.setattr(
        session_module, "analyze_enriched",
        lambda *args, **kw: analysed.append(1) or real(*args, **kw))
    value = platform.databank.query(
        "SELECT elem_name FROM elem_contained LIMIT 1").scalar()
    platform.annotate_free("giulia", SMG[value], SMG.dangerLevel, "high")
    platform.annotate_free("marco", SMG[value], SMG.dangerLevel, "low")
    shared = platform.connect()
    first = shared.as_user("giulia").prepare(PLATFORM_SESQL)
    second = shared.as_user("marco").prepare(PLATFORM_SESQL)
    assert not first.from_cache and second.from_cache
    assert len(analysed) == 1
    assert shared.as_user("marco").stats()["plan_cache"] \
        == shared.plan_cache.stats()
    answers = {}
    for user, prepared in (("giulia", first), ("marco", second)):
        fresh = SESQLEngine(platform.databank,
                            knowledge_base=platform.effective_kb(user),
                            mapping=platform.mapping)
        outcome = prepared.execute()
        assert outcome.result.same_rows(
            fresh.execute(PLATFORM_SESQL).result)
        answers[user] = _levels(outcome) - {None}
    assert answers == {"giulia": {"high"}, "marco": {"low"}}


@pytest.mark.parametrize("strict", [True, False])
def test_error_report_is_not_served_from_the_plan_cache(strict, monkeypatch):
    """A cached report that found errors judged the schema of its day:
    DDL may have fixed it, so it is recomputed (the parsed template is
    kept); a clean report stays cached."""
    import repro.api.session as session_module
    from repro.analysis import AnalysisError, AnalysisOptions
    from repro.api import QueryOptions
    options = QueryOptions(analysis=AnalysisOptions(strict=strict))
    database = Database()
    p = CrossePlatform(database)
    p.register_user("giulia")
    p.register_user("marco")
    plain = repro.connect(database, options)
    shared = p.connect(options)
    text = "SELECT a FROM t"

    def has_errors(session):
        try:
            return session.prepare(text).diagnostics.has_errors
        except AnalysisError as exc:
            assert strict and "E-UNKNOWN-TABLE" in str(exc)
            return True

    assert has_errors(plain) and has_errors(shared.as_user("giulia"))
    database.execute("CREATE TABLE t (a INTEGER)")
    assert not has_errors(plain)
    assert not has_errors(shared.as_user("marco"))  # giulia's entry
    assert plain.prepare(text).from_cache
    analysed = []
    monkeypatch.setattr(session_module, "analyze_enriched",
                        lambda *args, **kw: analysed.append(1))
    assert not has_errors(plain) and not has_errors(shared.as_user("giulia"))
    assert analysed == []


def test_analyzer_failure_raises_from_prepare(session, monkeypatch):
    import repro.api.session as session_module

    def boom(*args, **kwargs):
        raise RuntimeError("injected analyzer bug")
    monkeypatch.setattr(session_module, "analyze_enriched", boom)
    with pytest.raises(RuntimeError, match="injected analyzer bug"):
        session.prepare(ENRICHED)


def test_held_session_sees_a_kb_write_on_the_same_engine(platform):
    # Accepting a statement reaches the engine through its live context
    # view; a session (or prepared query) the caller still holds keeps
    # working and sees the new knowledge.
    held = platform.session_for("giulia")
    engine = held.engine
    prepared = held.prepare(PLATFORM_SESQL)
    assert all(row[1] is None for row in prepared.execute().rows)
    value = platform.databank.query(
        "SELECT elem_name FROM elem_contained LIMIT 1").scalar()
    record = platform.annotate_free(
        "marco", SMG[value], SMG.dangerLevel, "high")
    platform.accept_statement("giulia", record.statement_id)
    assert any(row[1] == "high" for row in prepared.execute().rows)
    assert platform.session_for("giulia") is held
    # Nothing rebuilds an engine: it (and its extraction cache) is the
    # one built before the write.
    assert held.engine is engine
    assert engine.knowledge_base is platform.effective_kb("giulia")


def test_closed_platform_session_is_replaced(platform):
    shared = platform.connect()
    shared.close()
    from repro.api import SessionError as SE
    with pytest.raises(SE):
        shared.as_user("giulia")
    replacement = platform.connect()
    assert replacement is not shared
    assert replacement.as_user("giulia") is not None


def test_closing_user_session_does_not_poison_platform(platform):
    # The documented context-manager use must not permanently break
    # run_sesql for that user: as_user replaces a closed session.
    with platform.connect().as_user("giulia") as session:
        session.execute(PLATFORM_SESQL)
    # ... nor empty the plan cache her session shared with the others.
    assert platform.session_for("marco").prepare(PLATFORM_SESQL).from_cache
    outcome = platform.run_sesql("giulia", PLATFORM_SESQL)
    assert outcome.columns == ["elem_name", "dangerLevel"]


def test_typoed_execute_override_raises(session):
    prepared = session.prepare("SELECT elem_name FROM elem_contained")
    with pytest.raises(TypeError):
        prepared.execute(None, strategy="direct")
    # There is one combine: a ``join_strategy=`` is as unknown.
    from repro.api import QueryOptions
    for call in (lambda: prepared.execute(join_strategy="direct"),
                 lambda: session.stream(prepared.text,
                                        join_strategy="direct"),
                 lambda: QueryOptions(join_strategy="direct"),
                 lambda: repro.connect(session.databank,
                                       join_strategy="direct")):
        with pytest.raises(TypeError):
            call()


def test_close_leaves_shared_engine_cache_warm(db, kb):
    from repro.api import ExtractionCache
    engine = SESQLEngine(db, kb, extraction_cache=ExtractionCache(16))
    with repro.connect(engine) as wrapper:
        wrapper.execute("SELECT elem_name FROM elem_contained "
                        "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
        assert len(engine.sqm.cache) == 1
    assert len(engine.sqm.cache) == 1  # close() must not wipe it


# -- KB generation stamps ---------------------------------------------------


def test_triple_store_state_key_is_unique_per_state():
    """Generations are per-store counters; paired with the
    process-unique ``store_id`` they form the cache key, so two stores
    at the same generation never collide (and a recovered store can
    restore its counter monotonically — see repro.durability)."""
    first, second = TripleStore(), TripleStore()
    assert first.store_id != second.store_id
    assert (first.store_id, first.generation) \
        != (second.store_id, second.generation)
    before = first.generation
    first.add(SMG.Mercury, SMG.dangerLevel, "high")
    assert first.generation != before
    unchanged = first.generation
    first.add(SMG.Mercury, SMG.dangerLevel, "high")  # duplicate: no-op
    assert first.generation == unchanged


def test_explain_reports_deduped_extractions_once(session):
    """explain() lists every logical extraction, but duplicates within
    the statement execute (at most) one SPARQL query."""
    before = session.engine.sqm.sparql_execution_count()
    plan = session.explain("""
        SELECT elem_name FROM elem_contained
        WHERE ${ elem_name = 'Mercury' : cond1 }
           OR ${ elem_name = 'Mercury' : cond2 }
        ENRICH REPLACECONSTANT(cond1, Mercury, dangerLevel)
               REPLACECONSTANT(cond2, Mercury, dangerLevel)""")
    assert len(plan.sparql_queries) == 2
    assert session.engine.sqm.sparql_execution_count() - before == 1
    extract_stages = [stage for stage in plan.stages
                      if stage.name == "extract"]
    assert [stage.cached for stage in extract_stages] == [False, True]
