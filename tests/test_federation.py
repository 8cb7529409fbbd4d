"""Federation: foreign tables, GAV mediation, REST integration."""

import pytest

from repro.crosse import CrossePlatform
from repro.federation import (CsvSource, ForeignTableError, MediationError,
                              Mediator, QuerySource, RemoteTableSource,
                              CrosseRestService, attach_foreign_table)
from repro.relational import Database
from repro.relational.errors import ExecutionError, UnknownColumnError
from repro.smartground import SmartGroundConfig, generate_databank


@pytest.fixture
def sources():
    italy = Database("italy")
    france = Database("france")
    for db, rows in ((italy, [("lf_it_1", "Torino", 12.0),
                              ("lf_it_2", "Milano", 7.5)]),
                     (france, [("lf_fr_1", "Lyon", 9.0),
                               ("lf_it_2", "Milano", 7.5)])):
        db.execute(
            "CREATE TABLE landfill (name TEXT, city TEXT, size REAL)")
        for name, city, size in rows:
            db.execute(f"INSERT INTO landfill VALUES "
                       f"('{name}', '{city}', {size})")
    return italy, france


# -- foreign tables -------------------------------------------------------


def test_remote_table_joins_locally(sources):
    italy, france = sources
    attach_foreign_table(italy, "landfill_fr",
                         RemoteTableSource(france, "landfill"))
    result = italy.query("""
        SELECT f.name FROM landfill_fr f WHERE f.size > 8""")
    assert result.rows == [("lf_fr_1",)]


def test_live_mode_sees_remote_updates(sources):
    italy, france = sources
    attach_foreign_table(italy, "landfill_fr",
                         RemoteTableSource(france, "landfill"))
    before = italy.query("SELECT COUNT(*) FROM landfill_fr").scalar()
    france.execute("INSERT INTO landfill VALUES ('new', 'Nice', 1.0)")
    after = italy.query("SELECT COUNT(*) FROM landfill_fr").scalar()
    assert after == before + 1


def test_snapshot_mode_is_frozen_until_refresh(sources):
    italy, france = sources
    table = attach_foreign_table(
        italy, "landfill_fr", RemoteTableSource(france, "landfill"),
        mode="snapshot")
    before = italy.query("SELECT COUNT(*) FROM landfill_fr").scalar()
    france.execute("INSERT INTO landfill VALUES ('new', 'Nice', 1.0)")
    assert italy.query("SELECT COUNT(*) FROM landfill_fr").scalar() == before
    table.refresh()
    assert italy.query(
        "SELECT COUNT(*) FROM landfill_fr").scalar() == before + 1


def test_foreign_table_rejects_writes(sources):
    italy, france = sources
    attach_foreign_table(italy, "landfill_fr",
                         RemoteTableSource(france, "landfill"))
    with pytest.raises(ForeignTableError):
        italy.execute("INSERT INTO landfill_fr VALUES ('x', 'y', 1)")
    with pytest.raises(ForeignTableError):
        italy.execute("DELETE FROM landfill_fr")


def test_query_source_exposes_remote_view(sources):
    italy, france = sources
    attach_foreign_table(
        italy, "fr_big",
        QuerySource(france, "SELECT name FROM landfill WHERE size > 8",
                    "fr_big"))
    assert italy.query("SELECT * FROM fr_big").rows == [("lf_fr_1",)]


def test_csv_source_types_inferred():
    db = Database()
    source = CsvSource("elem,amount,flag\nHg,3.5,true\nPb,7,false\n")
    attach_foreign_table(db, "t", source, mode="snapshot")
    rows = db.query("SELECT elem, amount, flag FROM t ORDER BY elem").rows
    assert rows == [("Hg", 3.5, True), ("Pb", 7.0, False)]


def test_csv_source_rejects_ragged_rows():
    with pytest.raises(ForeignTableError):
        CsvSource("a,b\n1\n")


def test_csv_source_mixed_numeric_column_widens_to_real():
    # Regression: inference used only the first non-null value, so a
    # mixed 1 / 2.5 column was INTEGER and every scan raised
    # TypeMismatchError on the 2.5.
    db = Database()
    source = CsvSource("elem,amount\nHg,1\nPb,2.5\n")
    attach_foreign_table(db, "t", source)
    rows = db.query("SELECT elem, amount FROM t ORDER BY amount").rows
    assert rows == [("Hg", 1.0), ("Pb", 2.5)]


def test_csv_source_mixed_number_and_text_widens_to_text():
    db = Database()
    source = CsvSource("amount\n1\nn/a\n", name="m")
    attach_foreign_table(db, "m", source, mode="snapshot")
    assert sorted(db.query("SELECT amount FROM m").rows) == [
        ("1",), ("n/a",)]


def test_csv_source_null_then_mixed_values_still_widen():
    source = CsvSource("amount\n\n3\n0.5\n")
    rows = sorted(row for row in source.rows() if row[0] is not None)
    from repro.relational.types import DataType
    assert source.schema().columns[0].data_type is DataType.REAL
    assert rows == [(0.5,), (3,)]


def test_scan_count_tracks_remote_hits(sources):
    italy, france = sources
    table = attach_foreign_table(
        italy, "landfill_fr", RemoteTableSource(france, "landfill"))
    italy.query("SELECT * FROM landfill_fr")
    italy.query("SELECT * FROM landfill_fr")
    assert table.scan_count == 2


def test_len_charges_remote_accounting_in_live_mode(sources):
    # Regression: a cardinality probe ran the full remote query but
    # charged no latency and never bumped scan_count.
    italy, france = sources
    table = attach_foreign_table(
        italy, "landfill_fr", RemoteTableSource(france, "landfill"))
    assert table.scan_count == 0
    assert len(table) == 2
    assert table.scan_count == 1


def test_len_serves_cached_count_in_snapshot_mode(sources):
    italy, france = sources
    table = attach_foreign_table(
        italy, "landfill_fr", RemoteTableSource(france, "landfill"),
        mode="snapshot")
    assert len(table) == 2
    assert table.scan_count == 0   # local copy: no remote hop


def test_snapshot_scans_charge_no_remote_accounting(sources):
    italy, france = sources
    table = attach_foreign_table(
        italy, "landfill_fr", RemoteTableSource(france, "landfill"),
        mode="snapshot")
    italy.query("SELECT * FROM landfill_fr")
    assert table.scan_count == 0   # scans read the local copy too


def test_query_source_schema_computed_once(sources):
    # Regression: attaching a remote view cost one extra full remote
    # execution per schema consultation.
    italy, france = sources

    class CountingDatabase:
        def __init__(self, inner):
            self.inner = inner
            self.queries = 0

        def query(self, sql):
            self.queries += 1
            return self.inner.query(sql)

    counting = CountingDatabase(france)
    source = QuerySource(counting, "SELECT name FROM landfill", "fr_v")
    attach_foreign_table(italy, "fr_v", source)
    after_attach = counting.queries
    source.schema()
    source.schema()
    assert counting.queries == after_attach == 1
    # rows() stays live: every scan re-executes the remote query.
    italy.query("SELECT * FROM fr_v")
    assert counting.queries == 2


# -- mediator -------------------------------------------------------------------


def make_mediator(sources):
    italy, france = sources
    mediator = Mediator()
    mediator.register_source("italy", italy)
    mediator.register_source("france", france)
    return mediator


def test_union_all_reconciliation(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    result, report = mediator.query("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 4
    assert report.rows_per_source == {"italy": 2, "france": 2}


def test_union_dedupes_identical_rows(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")],
        reconciliation="union")
    result, _report = mediator.query("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 3  # lf_it_2 appears in both sources


def test_prefer_first_resolves_key_conflicts(sources):
    italy, france = sources
    france.execute(
        "UPDATE landfill SET size = 999 WHERE name = 'lf_it_2'")
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")],
        reconciliation="prefer_first", key_columns=["name"])
    result, _report = mediator.query(
        "SELECT size FROM eu WHERE name = 'lf_it_2'")
    assert result.scalar() == 7.5  # italy's value wins


def keyed_view(reconciliation, a_key, b_key):
    """View ``pf (k, v)`` over sources a and b, one row each:
    ``(a_key, 'from-a')`` and ``(b_key, 'from-b')``, each key given as
    ``(SQL type, literal)``."""
    mediator = Mediator()
    for name, (key_type, key) in (("a", a_key), ("b", b_key)):
        db = Database(name)
        db.execute(f"CREATE TABLE t (k {key_type}, v TEXT)")
        db.execute(f"INSERT INTO t VALUES ({key}, 'from-{name}')")
        mediator.register_source(name, db)
    mediator.define_view(
        "pf", [("a", "SELECT k, v FROM t"), ("b", "SELECT k, v FROM t")],
        reconciliation,
        key_columns=["k"] if reconciliation == "prefer_first" else None)
    return mediator


def test_prefer_first_keys_rows_by_the_engines_equality():
    # Regression: prefer_first keyed rows by their raw values, and
    # Python's True == 1 (equal hashes too) made b's row a duplicate of
    # a's — though the engine says 1 = TRUE is false, and the same view
    # under union keeps both.
    assert Database().query("SELECT 1 = TRUE, 1 = 1.0").rows \
        == [(False, True)]
    boolean, integer = ("BOOLEAN", "TRUE"), ("INTEGER", "1")
    for reconciliation in ("prefer_first", "union"):
        result, _report = keyed_view(reconciliation, boolean, integer) \
            .query("SELECT v FROM pf ORDER BY v")
        assert result.rows == [("from-a",), ("from-b",)], reconciliation
    # 1 and 1.0 are one key, as the engine's = says: a's row wins.
    result, _report = keyed_view("prefer_first", integer, ("REAL", "1.0")) \
        .query("SELECT v FROM pf")
    assert result.rows == [("from-a",)]
    # NULL is a key value like any other: the first NULL-keyed row wins.
    null = ("INTEGER", "NULL")
    result, _report = keyed_view("prefer_first", null, null) \
        .query("SELECT v FROM pf")
    assert result.rows == [("from-a",)]


def test_mediated_query_over_view_join(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    result, _report = mediator.query("""
        SELECT city, COUNT(*) AS n FROM eu GROUP BY city
        ORDER BY n DESC, city LIMIT 1""")
    assert result.rows == [("Milano", 2)]


def test_view_definition_validation(sources):
    mediator = make_mediator(sources)
    with pytest.raises(MediationError):
        mediator.define_view("v", [])
    with pytest.raises(MediationError):
        mediator.define_view("v", [("nowhere", "SELECT 1")])
    with pytest.raises(MediationError):
        mediator.define_view("v", [("italy", "SELECT 1")],
                             reconciliation="prefer_first")
    with pytest.raises(MediationError):
        mediator.query("SELECT 1", views=["missing"])


def test_fragment_arity_mismatch_detected(sources):
    mediator = make_mediator(sources)
    mediator.define_view("bad", [
        ("italy", "SELECT name, city FROM landfill"),
        ("france", "SELECT name FROM landfill")])
    with pytest.raises(MediationError):
        mediator.query("SELECT * FROM bad")


def test_query_ships_only_referenced_views(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    mediator.define_view("it_only", [
        ("italy", "SELECT name FROM landfill")])
    _result, report = mediator.query("SELECT COUNT(*) FROM eu")
    # Pruning: it_only is defined but unreferenced, so no sub-query of
    # it is shipped and it is never materialised.
    assert [sql for _src, sql in report.sub_queries] == [
        "SELECT name, city, size FROM landfill",
        "SELECT name, city, size FROM landfill"]
    assert list(report.view_rows) == ["eu"]


def test_a_view_redefined_in_another_case_replaces_it(sources):
    """A view name follows the SQL name rule: ``BOTH`` redefines
    ``Both``, as ``Both`` would — one view, the new spelling listed, the
    new fragments shipped and read under any case."""
    mediator = make_mediator(sources)
    mediator.define_view("Both", [
        ("italy", "SELECT name FROM landfill"),
        ("france", "SELECT name FROM landfill")])
    mediator.define_view("BOTH", [("france", "SELECT name FROM landfill")])
    assert mediator.view_names() == ["BOTH"]
    result, report = mediator.query("SELECT name FROM both ORDER BY name")
    assert result.rows == [("lf_fr_1",), ("lf_it_2",)]
    assert list(report.view_rows) == ["BOTH"]
    assert [source for source, _sql in report.sub_queries] == ["france"]
    assert mediator.view_schema("bOtH").column_names() == ["name"]
    assert mediator.connect().execute(
        "SELECT COUNT(*) FROM Both", views=["both"])[0].scalar() == 2


def test_view_schema_plans_the_first_fragment_once_per_stamp(
        sources, monkeypatch):
    """The first fragment's columns are kept beside the view's cost,
    under its stamps: asking again plans nothing on the source, and a
    write to the fragment's table makes the next ask plan it again."""
    italy, _france = sources
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, size FROM landfill"),
        ("france", "SELECT name, size FROM landfill")])
    explained = []
    explain = italy.explain
    monkeypatch.setattr(italy, "explain", lambda *args, **kwargs: (
        explained.append(args[0]) or explain(*args, **kwargs)))
    assert mediator.view_schema("eu").column_names() == ["name", "size"]
    assert len(explained) == 1
    assert mediator.view_schema("EU").column_names() == ["name", "size"]
    assert mediator.get("eu").schema.column_names() == ["name", "size"]
    assert len(explained) == 1
    italy.execute("DELETE FROM landfill WHERE size > 10")
    assert mediator.view_schema("eu").column_names() == ["name", "size"]
    assert len(explained) == 2


def test_pruning_sees_views_in_subqueries(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    mediator.define_view("big", [
        ("france", "SELECT name FROM landfill WHERE size > 8")])
    _result, report = mediator.query(
        "SELECT name FROM eu WHERE name IN (SELECT name FROM big)")
    assert set(report.view_rows) == {"eu", "big"}


def test_pruning_falls_back_to_all_views_on_parse_failure(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name FROM landfill")])
    assert mediator.referenced_views("THIS IS NOT SQL") == ["eu"]


def test_explicit_views_argument_still_wins(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    mediator.define_view("extra", [
        ("france", "SELECT name, city, size FROM landfill")])
    _result, report = mediator.query("SELECT COUNT(*) FROM eu",
                                     views=["eu", "extra"])
    assert set(report.view_rows) == {"eu", "extra"}


# -- mediator sessions -------------------------------------------------------


def test_mediator_session_reuses_materializations(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    session = mediator.connect()
    _result, first = session.execute("SELECT COUNT(*) FROM eu")
    result, second = session.execute("SELECT COUNT(*) FROM eu")
    assert len(first.sub_queries) == 2     # cold: both fragments shipped
    assert second.sub_queries == []        # warm: local copy reused
    assert result.scalar() == 4
    assert (session.hits, session.misses) == (1, 1)


def test_mediator_session_refresh_picks_up_source_changes(sources):
    italy, france = sources
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    session = mediator.connect()
    before = session.query("SELECT COUNT(*) FROM eu").scalar()
    italy.execute("INSERT INTO landfill VALUES ('new', 'Bari', 2.0)")
    assert session.query("SELECT COUNT(*) FROM eu").scalar() == before
    session.refresh()
    assert session.query("SELECT COUNT(*) FROM eu").scalar() == before + 1


def test_mediator_session_explain_shows_pruning_and_cache(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    mediator.define_view("other", [
        ("france", "SELECT name FROM landfill")])
    session = mediator.connect()
    cold = session.explain("SELECT * FROM eu")
    assert [stage.name for stage in cold.stages] == [
        "prune", "materialize", "sql"]
    assert cold.cache_misses == 1
    session.query("SELECT * FROM eu")
    warm = session.explain("SELECT * FROM eu")
    assert warm.cache_hits == 1


def test_session_explain_plans_the_statement_over_unshipped_views(sources):
    """Regression: the local plan was dropped (a bare ``except``) until
    the views had been shipped, and so were its real errors."""
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    session = mediator.connect()
    sql = "SELECT name FROM eu WHERE size > 8.0"
    cold = session.explain(sql)
    scans = [node for node in cold.db_plan.root.walk()
             if node.kind == "scan"]
    assert [(node.label, node.est_rows) for node in scans] == [("eu", 4)]
    assert session.misses == 0                      # nothing shipped
    with pytest.raises(UnknownColumnError):
        session.explain("SELECT nope FROM eu")
    session.query("SELECT * FROM eu")
    warm = session.explain(sql)
    assert warm.db_plan.root.format() == cold.db_plan.root.format()


def two_views(rows: int = 1000) -> Mediator:
    source = Database("s")
    source.execute("CREATE TABLE t (x INTEGER)")
    source.insert_rows("t", ({"x": i} for i in range(rows)))
    mediator = Mediator()
    mediator.register_source("s", source)
    mediator.define_view("v", [("s", "SELECT x FROM t"),
                               ("s", "SELECT x + 1000 AS x FROM t")])
    mediator.define_view("w", [("s", "SELECT x FROM t")])
    return mediator


def test_databank_explain_of_a_non_select_ships_nothing():
    """Regression: the non-SELECT was rejected only after *every* view
    of the mediator (3 000 rows here) had been shipped for it."""
    bank = two_views().as_databank()
    bank.execute("CREATE TABLE local (x INTEGER)")
    with pytest.raises(Exception, match="requires a SELECT"):
        bank.explain("INSERT INTO local VALUES (1)")
    assert bank.session._materialized == {} and bank.session.misses == 0
    assert sorted(bank.table_names()) == ["local"]


def test_databank_explain_ships_what_execute_ships():
    """Regression: ``explain`` shipped the view unfiltered and left it
    cached, so the ``execute`` after it found the view local where a
    cold one pushes the filter down and ships two rows."""
    sql = "SELECT x FROM v WHERE x = 3"
    cold = two_views().as_databank()
    cold.execute(sql)
    assert cold.last_report.pushed_filters == {"v": "((v.x = 3))"}
    assert cold.last_report.view_rows == {"v": 1}

    bank = two_views().as_databank()
    planned = bank.explain(sql, analyze=True)
    assert planned.root.actual_rows == 1
    assert bank.last_report.pushed_filters == cold.last_report.pushed_filters
    assert bank.last_report.view_rows == cold.last_report.view_rows
    assert bank.session._materialized == {}         # as explain found it
    assert not bank.catalog.has_table("v")          # the partial is gone
    assert bank.execute(sql).rows == [(3,)]
    assert bank.last_report.sub_queries == cold.last_report.sub_queries
    # An unfiltered statement caches its view under either entry point.
    bank.explain("SELECT COUNT(*) FROM w")
    assert {name: len(view) for name, view
            in bank.session._materialized.items()} == {"w": 1000}


def test_fragments_are_parsed_once_not_once_per_query(monkeypatch):
    from repro.federation import mediator as module
    mediator = two_views(10)
    session = mediator.connect()
    session.execute("SELECT COUNT(*) FROM v WHERE x > 3")   # warms the memo
    parsed: list[str] = []
    parse = module.parse_sql
    monkeypatch.setattr(
        module, "parse_sql", lambda sql: parsed.append(sql) or parse(sql))
    for sql in ("SELECT COUNT(*) FROM v WHERE x > 3",
                "SELECT COUNT(*) FROM v, w"):
        session.refresh()
        session.execute(sql)
        assert parsed == [sql]          # the statement; no fragment
        parsed.clear()
    # Unfiltered fragments run at the source from the memoised parse.
    source_parses: list[str] = []
    from repro.relational import engine
    source_parse = engine.parse_sql
    monkeypatch.setattr(engine, "parse_sql", lambda sql: (
        source_parses.append(sql) or source_parse(sql)))
    session.refresh()
    assert session.execute("SELECT COUNT(*) FROM v")[0].scalar() == 20
    assert source_parses == []
    # Redefining a view evicts the fragments it no longer has.
    assert "SELECT x + 1000 AS x FROM t" in mediator._fragment_statements
    mediator.define_view("v", [("s", "SELECT x FROM t WHERE x < 5")])
    assert "SELECT x + 1000 AS x FROM t" \
        not in mediator._fragment_statements
    session.refresh()
    assert session.execute("SELECT COUNT(*) FROM v")[0].scalar() == 5


def test_stored_query_always_carries_parsed_form():
    from repro.core import StoredQueryRegistry
    registry = StoredQueryRegistry()
    stored = registry.register("anyPair", "SELECT ?s ?o WHERE { ?s ?p ?o }")
    assert stored.query is not None
    assert registry.get("anyPair").query is stored.query


# -- REST integration --------------------------------------------------------------


@pytest.fixture
def service():
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=10, seed=3)))
    return CrosseRestService(platform)


def test_rest_user_lifecycle(service):
    created = service.request("POST", "/api/users",
                              {"username": "giulia"})
    assert created.status == 200
    listed = service.request("GET", "/api/users")
    assert "giulia" in listed.payload["users"]


def test_rest_annotation_and_acceptance_flow(service):
    service.request("POST", "/api/users", {"username": "giulia"})
    service.request("POST", "/api/users", {"username": "marco"})
    created = service.request("POST", "/api/annotations", {
        "username": "giulia", "subject": "Mercury",
        "property": "dangerLevel", "object": "high"})
    assert created.status == 200
    statement_id = created.payload["statement_id"]
    listed = service.request("GET", "/api/annotations/marco")
    assert any(a["statement_id"] == statement_id
               for a in listed.payload["annotations"])
    accepted = service.request(
        "POST", f"/api/statements/{statement_id}/accept",
        {"username": "marco"})
    assert accepted.payload["accepted_by"] == ["marco"]


def test_rest_sesql_round_trip(service):
    service.request("POST", "/api/users", {"username": "giulia"})
    service.request("POST", "/api/annotations", {
        "username": "giulia", "subject": "Iron",
        "property": "dangerLevel", "object": "low"})
    response = service.request("POST", "/api/sesql", {
        "username": "giulia",
        "query": "SELECT DISTINCT elem_name FROM elem_contained "
                 "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"})
    assert response.status == 200
    assert response.payload["columns"] == ["elem_name", "dangerLevel"]


def test_rest_missing_route_and_fields(service):
    assert service.request("GET", "/api/nothing").status == 404
    assert service.request("POST", "/api/users", {}).status == 400


def test_rest_handler_error_becomes_422(service):
    service.request("POST", "/api/users", {"username": "giulia"})
    response = service.request("POST", "/api/annotations", {
        "username": "giulia", "scenario": "integrated",
        "table": "elem_contained", "column": "elem_name",
        "value": "Unobtainium", "property": "dangerLevel",
        "object": "high"})
    assert response.status == 422


# -- planner-era mediation: AST reuse, pushdown, cost ranking ---------------


def test_session_refuses_unparseable_or_non_select_text_before_shipping(
        sources):
    from repro.relational.errors import SqlSyntaxError

    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    session = mediator.connect()
    for drain in (session.execute, session.stream, session.explain):
        with pytest.raises(SqlSyntaxError):
            drain("THIS IS NOT SQL")
        with pytest.raises(ExecutionError):
            drain("CREATE TABLE eu (x INTEGER)")
    # Nothing shipped, and nothing ran locally.
    assert session.misses == 0 and session.hits == 0
    assert session._scratch.table_names() == []
    _result, report = session.execute("SELECT COUNT(*) FROM eu")
    assert len(report.sub_queries) == 1 and session.misses == 1


def test_filter_pushdown_ships_filtered_fragments(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    result, report = mediator.query(
        "SELECT name FROM eu WHERE size > 8.0")
    assert sorted(result.rows) == [("lf_fr_1",), ("lf_it_1",)]
    assert "eu" in report.pushed_filters
    assert all("WHERE" in sql for _src, sql in report.sub_queries)
    # Sources filtered before shipping: 1 matching row each.
    assert report.rows_per_source == {"italy": 1, "france": 1}


def test_pushdown_matches_unpushed_results(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    sql = ("SELECT city, COUNT(*) AS n FROM eu WHERE size >= 7.5 "
           "GROUP BY city ORDER BY n DESC, city")
    pushed, _r1 = mediator.query(sql, pushdown=True)
    plain, _r2 = mediator.query(sql, pushdown=False)
    assert pushed.rows == plain.rows


def test_pushdown_skips_prefer_first_views(sources):
    mediator = make_mediator(sources)
    mediator.define_view(
        "eu", [("italy", "SELECT name, city, size FROM landfill"),
               ("france", "SELECT name, city, size FROM landfill")],
        reconciliation="prefer_first", key_columns=["name"])
    result, report = mediator.query(
        "SELECT name FROM eu WHERE city = 'Milano'")
    # Pre-filtering could change which duplicate wins, so nothing is
    # pushed and every full fragment ships.
    assert report.pushed_filters == {}
    assert result.rows == [("lf_it_2",)]


def test_partial_materializations_are_not_cached(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill")])
    session = mediator.connect()
    _result, first = session.execute("SELECT name FROM eu WHERE size > 8")
    assert "eu" in first.pushed_filters
    # The filtered copy must not serve the next (wider) query.
    result, second = session.execute("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 2
    assert len(second.sub_queries) == 1  # re-shipped, this time in full
    # The full copy *is* cached from here on.
    _result, third = session.execute("SELECT COUNT(*) FROM eu")
    assert third.sub_queries == []


def test_views_materialize_cheapest_first(sources):
    italy, _france = sources
    mediator = make_mediator(sources)
    italy.execute("CREATE TABLE big (n INTEGER)")
    for i in range(500):
        italy.table("big").insert_row({"n": i})
    mediator.define_view("huge", [("italy", "SELECT n FROM big")])
    mediator.define_view("tiny", [
        ("italy", "SELECT name FROM landfill")])
    _result, report = mediator.query(
        "SELECT COUNT(*) FROM huge CROSS JOIN tiny")
    assert report.view_costs["tiny"] < report.view_costs["huge"]
    shipped = [sql for _src, sql in report.sub_queries]
    assert shipped.index("SELECT name FROM landfill") \
        < shipped.index("SELECT n FROM big")


def test_pushdown_skips_views_also_referenced_in_subqueries(sources):
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size FROM landfill"),
        ("france", "SELECT name, city, size FROM landfill")])
    sql = ("SELECT name FROM eu WHERE size >= 7.5 "
           "AND city IN (SELECT city FROM eu WHERE size < 8.0)")
    pushed, report = mediator.query(sql, pushdown=True)
    plain, _plain_report = mediator.query(sql, pushdown=False)
    # Both references read one shared materialization: nothing may be
    # pushed, and the results must match the unpushed run.
    assert report.pushed_filters == {}
    assert sorted(pushed.rows) == sorted(plain.rows)
    assert pushed.rows  # the Milano duplicate satisfies both branches


# -- composition: the pushed filter inside each fragment's own statement ------


def partitioned(sources) -> Mediator:
    """A partitioned view: each fragment tags its rows with a constant."""
    mediator = make_mediator(sources)
    mediator.define_view("eu", [
        ("italy", "SELECT name, city, size, 'Italy' AS country "
                  "FROM landfill"),
        ("france", "SELECT *, 'France' AS country FROM landfill")])
    return mediator


def test_a_merged_fragment_ships_parsed_without_a_derived_table(
        sources, monkeypatch):
    from repro.planner.plan import is_trivial_select
    from repro.relational import ast, engine

    mediator = partitioned(sources)
    shipped = []
    for db in sources:
        monkeypatch.setattr(db, "query", lambda target, params, db=db: (
            shipped.append(target) or Database.query(db, target, params)))
    parses: list[str] = []
    source_parse = engine.parse_sql
    monkeypatch.setattr(engine, "parse_sql", lambda sql: (
        parses.append(sql) or source_parse(sql)))
    sql = "SELECT name FROM eu WHERE size > 8.0 AND city <> 'Roma'"
    result, report = mediator.query(sql)
    assert parses == []                       # no source parsed anything
    assert len(shipped) == 2
    for statement in shipped:
        assert isinstance(statement, ast.SelectQuery)
        assert is_trivial_select(statement)   # the source skips planning
        assert not any(isinstance(node, ast.SubqueryRef)
                       for node in ast.iter_query_nodes(statement))
    # The star was expanded; the filter reads the source's own columns.
    assert report.sub_queries[1] == ("france", (
        "SELECT landfill.name, landfill.city, landfill.size, 'France' AS "
        "country FROM landfill WHERE ((landfill.size > 8.0) AND "
        "(landfill.city <> 'Roma'))"))
    assert sorted(result.rows) == [("lf_fr_1",), ("lf_it_1",)]
    assert result.rows == mediator.query(sql, pushdown=False)[0].rows


def test_an_expanded_star_keeps_the_catalog_spelling():
    source = Database("s")
    source.execute("CREATE TABLE Landfill (Name TEXT, City TEXT)")
    source.execute("INSERT INTO Landfill VALUES ('lf_a', 'Pisa')")
    mediator = Mediator()
    mediator.register_source("s", source)
    mediator.define_view("v", [("s", "SELECT * FROM Landfill")])
    sql = "SELECT * FROM v WHERE city = 'Pisa'"
    pushed, report = mediator.query(sql)
    assert "v" in report.pushed_filters
    assert pushed.columns == mediator.query(sql, pushdown=False)[0].columns \
        == ["Name", "City"]
    assert pushed.rows == [("lf_a", "Pisa")]


def test_a_contradicted_constant_column_is_never_shipped(sources):
    mediator = partitioned(sources)
    sql = "SELECT name, country FROM eu WHERE country = 'France'"
    result, report = mediator.query(sql)
    assert sorted(result.rows) == [("lf_fr_1", "France"),
                                   ("lf_it_2", "France")]
    assert report.eliminated == [("eu", "italy")]
    assert [source for source, _sql in report.sub_queries] == ["france"]
    assert report.rows_per_source == {"italy": 0, "france": 2}
    assert result.rows == mediator.query(sql, pushdown=False)[0].rows


def test_a_view_whose_every_fragment_is_eliminated_is_empty(sources):
    mediator = partitioned(sources)
    sql = "SELECT * FROM eu WHERE country IN ('Spain', 'Greece')"
    result, report = mediator.query(sql)
    plain = mediator.query(sql, pushdown=False)[0]
    assert result.rows == plain.rows == []
    assert result.columns == plain.columns \
        == ["name", "city", "size", "country"]
    assert report.sub_queries == []
    assert report.eliminated == [("eu", "italy"), ("eu", "france")]
    assert report.view_rows == {"eu": 0}
    stages = mediator.connect().explain(sql).stages
    assert [stage.name for stage in stages] == ["prune", "eliminate", "sql"]
    assert stages[1].queries == ["'eu' <- italy", "'eu' <- france"]


def test_writes_to_an_eliminated_source_do_not_change_the_answer(sources):
    italy, _france = sources
    session = partitioned(sources).connect()
    sql = "SELECT name, country FROM eu WHERE country = 'France'"
    before, first = session.execute(sql)
    assert italy.execute(
        "INSERT INTO landfill VALUES ('lf_it_3', 'Bari', 30.0)") == 1
    after, second = session.execute(sql)
    assert after.rows == before.rows
    assert first.eliminated == second.eliminated == [("eu", "italy")]
    assert second.fragment_cache_hits == 1    # france's entry still holds
    assert ("lf_it_3",) in session.query(
        "SELECT name FROM eu WHERE country = 'Italy'").rows
