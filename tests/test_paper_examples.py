"""The six worked examples of Section IV, reproduced verbatim.

Each test runs the exact query text from the paper (Examples 4.1-4.6)
against a miniature SmartGround databank plus a contextual KB shaped
like the scenarios those examples describe, and checks the semantics
stated in the surrounding prose.
"""

import pytest

from repro.core import SESQLEngine, StoredQueryRegistry
from repro.rdf import parse_turtle
from repro.relational import Database


@pytest.fixture
def engine():
    db = Database()
    db.execute_script("""
        CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO landfill VALUES
            ('a','Torino'), ('b','Lyon'), ('c','Torino');
        INSERT INTO elem_contained VALUES
            ('a','Mercury',12.0), ('a','Asbestos',3.5), ('a','Iron',140.0),
            ('b','Mercury',7.25), ('b','Copper',55.0),
            ('c','Lead',9.0), ('c','Cinnabar',4.0);
    """)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" ; smg:isA smg:HazardousWaste .
        smg:Asbestos smg:dangerLevel "extreme" ; smg:isA smg:HazardousWaste .
        smg:Lead smg:isA smg:HazardousWaste .
        smg:Torino smg:inCountry smg:Italy .
        smg:Lyon smg:inCountry smg:France .
        smg:Mercury smg:oreAssemblage smg:Cinnabar .
    """)
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", """
        PREFIX smg: <http://smartground.eu/ns#>
        SELECT ?e WHERE { ?e smg:isA smg:HazardousWaste }""",
        description="the list of dangerous elements (Example 4.5)")
    return SESQLEngine(db, kb, stored_queries=registry)


def test_example_4_1_schema_extension(engine):
    result = engine.execute("""
        SELECT elem_name, landfill_name
        FROM elem_contained
        WHERE landfill_name = 'a'
        ENRICH
        SCHEMAEXTENSION( elem_name, dangerLevel)""")
    assert result.columns == ["elem_name", "landfill_name", "dangerLevel"]
    assert sorted(result.rows) == [
        ("Asbestos", "a", "extreme"),
        ("Iron", "a", None),           # no contextual knowledge -> NULL
        ("Mercury", "a", "high"),
    ]


def test_example_4_2_schema_replacement(engine):
    result = engine.execute("""
        SELECT name, city
        FROM landfill
        ENRICH
        SCHEMAREPLACEMENT(city, inCountry)""")
    # The city column is replaced by the country information.
    assert result.columns == ["name", "inCountry"]
    assert sorted(result.rows) == [
        ("a", "Italy"), ("b", "France"), ("c", "Italy")]


def test_example_4_3_bool_schema_extension(engine):
    result = engine.execute("""
        SELECT elem_name
        FROM elem_contained
        WHERE landfill_name = 'a'
        ENRICH
        BOOLSCHEMAEXTENSION( elem_name, isA,
        HazardousWaste)""")
    assert result.columns == ["elem_name", "isA_HazardousWaste"]
    assert sorted(result.rows) == [
        ("Asbestos", True), ("Iron", False), ("Mercury", True)]


def test_example_4_4_bool_schema_replacement(engine):
    result = engine.execute("""
        SELECT name, city
        FROM landfill
        ENRICH
        BOOLSCHEMAREPLACEMENT(city, inCountry,
        Italy)""")
    assert result.columns == ["name", "inCountry_Italy"]
    assert sorted(result.rows) == [
        ("a", True), ("b", False), ("c", True)]


def test_example_4_5_replace_constant(engine):
    result = engine.execute("""
        SELECT landfill_name
        FROM elem_contained
        WHERE ${elem_name = HazardousWaste:cond1}
        ENRICH
        REPLACECONSTANT(cond1, HazardousWaste,
        dangerQuery)""")
    # Landfills containing any element the stored dangerQuery lists:
    # a has Mercury+Asbestos, b has Mercury, c has Lead.
    assert sorted(result.rows) == [("a",), ("a",), ("b",), ("c",)]
    # The rewritten condition is visible in the executed SQL.
    assert "IN (SELECT" in result.executed_sql


def test_example_4_6_replace_variable(engine):
    result = engine.execute("""
        SELECT Elecond1.landfill_name AS l_name1,
               Elecond2.landfill_name AS l_name2,
               Elecond1.elem_name
        FROM elem_contained AS Elecond1,
             elem_contained AS Elecond2
        WHERE ${ Elecond1.elem_name <>
              Elecond2.elem_name:cond1} AND
              Elecond1.landfill_name <> Elecond2.landfill_name
        ENRICH
        REPLACEVARIABLE(cond1, Elecond2.elem_name,
        oreAssemblage)""")
    assert result.columns == ["l_name1", "l_name2", "elem_name"]
    # Only Mercury has an oreAssemblage (Cinnabar); the tagged condition
    # compares Elecond1's element against the *assemblage* of Elecond2's.
    for _l1, _l2, elem in result.rows:
        assert elem != "Cinnabar"
    assert ("a", "b", "Mercury") in result.rows
    assert ("c", "a", "Lead") in result.rows


def test_example_4_5_includes_original_constant_when_asked(engine):
    engine.databank.execute(
        "INSERT INTO elem_contained VALUES ('c', 'HazardousWaste', 1.0)")
    with_original = engine.execute("""
        SELECT landfill_name FROM elem_contained
        WHERE ${elem_name = HazardousWaste:cond1}
        ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)""",
        include_original=True)
    without = engine.execute("""
        SELECT landfill_name FROM elem_contained
        WHERE ${elem_name = HazardousWaste:cond1}
        ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)""")
    # The "user preference" of Section III-B: the replacement set may or
    # may not contain the initial value.
    assert len(with_original.rows) == len(without.rows) + 1


def test_pipeline_observability(engine):
    result = engine.execute("""
        SELECT name, city FROM landfill
        ENRICH SCHEMAEXTENSION(city, inCountry)""")
    assert len(result.sparql_queries) == 1
    assert "inCountry" in result.sparql_queries[0]
    assert result.timings["combine"] > 0
    assert result.timings["total"] > 0
    # The run's last record is the JoinManager's combine stage.
    combine = engine.explain_parsed(result.enriched).stages[-1]
    assert (combine.name, combine.detail) == (
        "combine", "1 SELECT enrichment(s)")
