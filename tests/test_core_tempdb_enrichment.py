"""Type inference, WHERE rewriting and the path extension."""

import pytest

from repro.core import SESQLEngine
from repro.core.enrichment import (replace_condition, transform_expr)
from repro.core.sqm import SemanticQueryModule
from repro.core.mapping import ResourceMapping
from repro.rdf import parse_turtle
from repro.relational import Database, DataType, parse_expr
from repro.relational.ast import BinaryOp, ColumnRef, Literal, node_key
from repro.relational.table import infer_column_type


# -- type inference -----------------------------------------------------


@pytest.mark.parametrize("values,expected", [
    ([1, 2, 3], DataType.INTEGER),
    ([1, 2.5], DataType.REAL),
    ([True, False], DataType.BOOLEAN),
    ([True, 1], DataType.INTEGER),
    (["a", 1], DataType.TEXT),
    ([None, None], DataType.TEXT),
    ([], DataType.TEXT),
    ([None, 4], DataType.INTEGER),
])
def test_infer_column_type(values, expected):
    assert infer_column_type(values) is expected


# -- expression transformation helpers -----------------------------------------


def test_transform_expr_replaces_nested_refs():
    expr = parse_expr("a = 1 AND (b < 2 OR a = 3)")
    replaced = transform_expr(
        expr,
        lambda node: Literal(0) if isinstance(node, ColumnRef)
        and node.name == "a" else None)
    # Original untouched; replacement applied everywhere.
    assert "a" in repr(expr)
    count = repr(replaced).count("ColumnRef(name='a'")
    assert count == 0


def test_replace_condition_targets_structural_match():
    where = parse_expr("x = 1 AND y = 2")
    target = parse_expr("y = 2")
    replacement = BinaryOp("=", ColumnRef("z"), Literal(9))
    rewritten, found = replace_condition(
        where, node_key(target), replacement)
    assert found
    assert node_key(rewritten) == node_key(parse_expr("x = 1 AND z = 9"))


def test_replace_condition_reports_missing():
    where = parse_expr("x = 1")
    _rewritten, found = replace_condition(
        where, node_key(parse_expr("q = 7")), Literal(True))
    assert not found


# -- property-path extension -----------------------------------------------------


KB = parse_turtle("""
    @prefix smg: <http://smartground.eu/ns#> .
    smg:Mercury smg:isA smg:HazardousWaste .
    smg:Lead smg:isA smg:HazardousWaste .
    smg:Torino smg:inCountry smg:Italy .
    smg:Italy smg:inContinent smg:Europe .
""")


def test_inverse_path_in_values_for():
    sqm = SemanticQueryModule(ResourceMapping())
    extraction = sqm.values_for(KB, "^isA", "HazardousWaste")
    assert {v.local_name() for v in extraction.values} == {
        "Mercury", "Lead"}


def test_sequence_path_in_pairs_for():
    sqm = SemanticQueryModule(ResourceMapping())
    extraction = sqm.pairs_for(KB, "inCountry/inContinent")
    assert [(s.local_name(), o.local_name())
            for s, o in extraction.pairs] == [("Torino", "Europe")]


def test_path_in_full_sesql_query():
    db = Database()
    db.execute_script("""
        CREATE TABLE landfill (name TEXT, city TEXT);
        INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Oslo');
    """)
    engine = SESQLEngine(db, KB)
    result = engine.query("""
        SELECT name, city FROM landfill
        ENRICH SCHEMAEXTENSION(city, inCountry/inContinent)""")
    assert sorted(result.rows) == [
        ("a", "Torino", "Europe"), ("b", "Oslo", None)]
    # The generated column name uses the path's last segment.
    assert result.columns[-1] == "inContinent"
