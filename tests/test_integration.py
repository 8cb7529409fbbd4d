"""End-to-end integration across every layer of the reproduction.

These tests chain the substrates the way the deployed system would:
federated sources -> mediator -> databank -> CroSSE platform -> REST,
with SESQL queries evaluated in evolving per-user contexts.
"""

import pytest

from repro.core import SESQLEngine
from repro.crosse import CrossePlatform
from repro.federation import (CrosseRestService, Mediator,
                              RemoteTableSource, attach_foreign_table)
from repro.rdf import SMG, parse_turtle, serialize_turtle
from repro.relational import Database
from repro.smartground import (DANGER_QUERY_SPARQL, SmartGroundConfig,
                               generate_databank)
from repro.sparql import SparqlEngine


def test_mediated_sources_feed_enriched_queries():
    """National sources -> GAV view -> SESQL enrichment on the result."""
    sources = {}
    mediator = Mediator()
    for country, materials in (("italy", ["Mercury", "Iron"]),
                               ("france", ["Asbestos"])):
        db = Database(country)
        db.execute("CREATE TABLE sites (site TEXT, material TEXT)")
        for index, material in enumerate(materials):
            db.execute(f"INSERT INTO sites VALUES "
                       f"('{country}_{index}', '{material}')")
        mediator.register_source(country, db)
        sources[country] = db
    mediator.define_view("eu_sites", [
        ("italy", "SELECT site, material FROM sites"),
        ("france", "SELECT site, material FROM sites")])
    view, _report = mediator.query("SELECT site, material FROM eu_sites")

    integrated = Database("integrated")
    integrated.execute("CREATE TABLE eu_sites (site TEXT, material TEXT)")
    integrated.insert_rows("eu_sites", view.to_dicts())

    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
        smg:Asbestos smg:dangerLevel "extreme" .
    """)
    outcome = SESQLEngine(integrated, kb).execute("""
        SELECT site, material FROM eu_sites
        ENRICH SCHEMAEXTENSION(material, dangerLevel)""")
    by_material = {row[1]: row[2] for row in outcome.rows}
    assert by_material == {"Mercury": "high", "Iron": None,
                           "Asbestos": "extreme"}


def test_foreign_table_participates_in_sesql():
    """A SESQL query whose FROM includes an fdw-attached remote table."""
    remote = Database("remote")
    remote.execute("CREATE TABLE hazards (elem TEXT, level TEXT)")
    remote.execute("INSERT INTO hazards VALUES ('Mercury', 'reported')")

    local = Database("local")
    local.execute("CREATE TABLE elem_contained "
                  "(landfill_name TEXT, elem_name TEXT)")
    local.execute("INSERT INTO elem_contained VALUES "
                  "('a', 'Mercury'), ('a', 'Iron')")
    attach_foreign_table(local, "remote_hazards",
                         RemoteTableSource(remote, "hazards"))

    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
    """)
    outcome = SESQLEngine(local, kb).execute("""
        SELECT e.elem_name, r.level
        FROM elem_contained e JOIN remote_hazards r
          ON e.elem_name = r.elem
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert outcome.rows == [("Mercury", "reported", "high")]


def test_knowledge_lifecycle_changes_query_results():
    """Annotation -> acceptance -> retraction, observed through SESQL."""
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=10, seed=4)))
    platform.register_user("author")
    platform.register_user("reader")
    sesql = """SELECT DISTINCT elem_name FROM elem_contained
               ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)"""

    def flagged_count(user):
        outcome = platform.run_sesql(user, sesql)
        return sum(1 for row in outcome.rows if row[1])

    assert flagged_count("reader") == 0
    record = platform.annotate_free(
        "author", SMG.Iron, SMG.isA, SMG.HazardousWaste)
    assert flagged_count("reader") == 0          # not yet accepted
    platform.accept_statement("reader", record.statement_id)
    assert flagged_count("reader") == 1          # borrowed knowledge
    assert flagged_count("author") == 1          # own knowledge
    platform.statements.retract("author", record.statement_id)
    assert flagged_count("reader") == 0          # retraction propagates


def test_fig4_export_is_sparql_queryable():
    """The provenance graph itself answers SPARQL questions."""
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=5, seed=1)))
    platform.register_user("giulia")
    platform.register_user("marco")
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high")
    platform.accept_statement("marco", record.statement_id)

    graph = platform.statements.to_rdf_graph()
    engine = SparqlEngine(graph)
    believers = engine.query("""
        PREFIX smg: <http://smartground.eu/ns#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?user WHERE {
            ?user smg:userBelief ?stm .
            ?stm rdf:subject smg:Mercury }""")
    assert [term.local_name() for term in believers.values("user")] == [
        "user_marco"]
    # The export also round-trips through Turtle.
    assert len(parse_turtle(serialize_turtle(graph))) == len(graph)


def test_rest_drives_the_full_social_loop():
    """User creation, annotation, acceptance and querying over REST."""
    service = CrosseRestService(CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=8, seed=2))))
    for username in ("giulia", "marco"):
        assert service.request("POST", "/api/users",
                               {"username": username}).status == 200
    created = service.request("POST", "/api/annotations", {
        "username": "giulia", "subject": "Mercury",
        "property": "isA", "object": "HazardousWaste"})
    statement_id = created.payload["statement_id"]
    service.request("POST", f"/api/statements/{statement_id}/accept",
                    {"username": "marco"})
    response = service.request("POST", "/api/sesql", {
        "username": "marco",
        "query": """SELECT DISTINCT elem_name FROM elem_contained
                    ENRICH BOOLSCHEMAEXTENSION(elem_name, isA,
                                               HazardousWaste)"""})
    assert response.status == 200
    flags = {row[0]: row[1] for row in response.payload["rows"]}
    assert flags.get("Mercury", False) in (True, False)
    if "Mercury" in flags:
        assert flags["Mercury"] is True


def test_where_and_select_enrichments_compose_in_one_query():
    db = Database()
    db.execute_script("""
        CREATE TABLE elem_contained (landfill_name TEXT, elem_name TEXT);
        INSERT INTO elem_contained VALUES
            ('a','Mercury'), ('a','Iron'), ('b','Lead'), ('c','Copper');
    """)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:isA smg:HazardousWaste ;
                    smg:dangerLevel "high" .
        smg:Lead smg:isA smg:HazardousWaste ;
                 smg:dangerLevel "high" .
    """)
    engine = SESQLEngine(db, kb)
    # `^isA` is the inverse-path extension: "everything classified as
    # HazardousWaste" (a plain `isA` would read the constant as subject).
    outcome = engine.execute("""
        SELECT landfill_name, elem_name FROM elem_contained
        WHERE ${elem_name = HazardousWaste:c1}
        ENRICH
        REPLACECONSTANT(c1, HazardousWaste, ^isA)
        SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert sorted(outcome.rows) == [
        ("a", "Mercury", "high"), ("b", "Lead", "high")]
    # One SPARQL per enrichment, one combine stage for the SELECT one.
    assert len(outcome.sparql_queries) == 2
    stages = engine.explain_parsed(outcome.enriched).stages
    assert [(stage.name, stage.detail) for stage in stages
            if stage.name == "combine"] == [
        ("combine", "1 SELECT enrichment(s)")]


def test_replace_constant_via_property_uses_constant_as_subject():
    """REPLACECONSTANT with a plain property: values of (const, prop, ?o)."""
    db = Database()
    db.execute_script("""
        CREATE TABLE landfill (name TEXT, city TEXT);
        INSERT INTO landfill VALUES
            ('a','Torino'), ('b','Milano'), ('c','Lyon');
    """)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Piemonte smg:hasCity smg:Torino .
    """)
    outcome = SESQLEngine(db, kb).execute("""
        SELECT name FROM landfill
        WHERE ${city = Piemonte:c1}
        ENRICH REPLACECONSTANT(c1, Piemonte, hasCity)""")
    assert outcome.rows == [("a",)]
