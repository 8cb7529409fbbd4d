"""SESQL engine behaviour beyond the paper's worked examples."""

import pytest

from repro.core import (EnrichmentError, JoinManager, ResourceMapping,
                        SESQLEngine)
from repro.core.sqm import Extraction
from repro.core.ast import SchemaExtension
from repro.rdf import Literal, Namespace, TripleStore, parse_turtle
from repro.relational import Database, ResultSet

SMG = Namespace("http://smartground.eu/ns#")


@pytest.fixture
def engine():
    db = Database()
    db.execute_script("""
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO elem_contained VALUES
            ('a','Mercury',12.0), ('a','Iron',140.0), ('b','Mercury',7.0);
    """)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" ; smg:dangerLevel "extreme" .
        smg:Iron smg:dangerLevel "low" .
    """)
    return SESQLEngine(db, kb)


def test_multivalued_property_multiplies_rows(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    # Mercury has two dangerLevel statements -> two output rows.
    mercury_rows = [row for row in result.rows if row[0] == "Mercury"]
    assert len(mercury_rows) == 2
    assert {row[1] for row in mercury_rows} == {"high", "extreme"}


def test_empty_kb_pads_with_nulls(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""",
        knowledge_base=TripleStore())
    assert all(row[1] is None for row in result.rows)
    assert len(result.rows) == 3  # enrichment never drops rows


def test_multiple_select_enrichments_compose(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
               BOOLSCHEMAEXTENSION(elem_name, dangerLevel, high)""")
    assert result.columns == [
        "elem_name", "dangerLevel", "dangerLevel_high"]
    by_name = {}
    for name, _level, flag in result.rows:
        by_name.setdefault(name, set()).add(flag)
    assert by_name["Mercury"] == {True}
    assert by_name["Iron"] == {False}


def test_unknown_attr_rejected(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT amount FROM elem_contained
            ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")


def test_new_column_name_deduplicated(engine):
    result = engine.query("""
        SELECT elem_name, amount AS dangerLevel FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert result.columns == ["elem_name", "dangerLevel", "dangerLevel_2"]


def test_where_rewrite_cleans_temp_tables(engine):
    db = engine.databank
    before = set(db.table_names())
    engine.query("""
        SELECT landfill_name FROM elem_contained
        WHERE ${elem_name = Dangerous:c1}
        ENRICH REPLACECONSTANT(c1, Dangerous, dangerLevel)""")
    assert set(db.table_names()) == before


def test_no_enrichment_acts_as_plain_sql(engine):
    result = engine.execute(
        "SELECT elem_name FROM elem_contained WHERE amount > 10")
    assert sorted(result.rows) == [("Iron",), ("Mercury",)]
    assert result.sparql_queries == []


def test_enrichment_preserves_row_order_of_base(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained
        ENRICH BOOLSCHEMAEXTENSION(elem_name, dangerLevel, low)""")
    assert [row[0] for row in result.rows] == [
        "Mercury", "Iron", "Mercury"]


def test_enrich_with_order_by_and_limit(engine):
    result = engine.query("""
        SELECT elem_name, amount FROM elem_contained
        ORDER BY amount DESC LIMIT 2
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    # Base: Iron(140), Mercury(12); Mercury's two dangerLevel statements
    # multiply its row after enrichment.
    assert [row[0] for row in result.rows] == ["Iron", "Mercury", "Mercury"]


def test_join_manager_rejects_where_enrichment():
    from repro.core.ast import ReplaceConstant
    manager = JoinManager(ResourceMapping())
    base = ResultSet(["a"], [(1,)])
    with pytest.raises(EnrichmentError):
        manager.combine(base, ReplaceConstant("c", "X", "p"), Extraction(""))


def test_combine_on_empty_base_result():
    manager = JoinManager(ResourceMapping())
    base = ResultSet(["elem"], [])
    result = manager.combine(base, SchemaExtension("elem", "p"),
                             Extraction("", pairs=[]))
    assert result.rows == []
    assert result.columns == ["elem", "p"]


@pytest.mark.parametrize("kind", ["BOOLSCHEMAEXTENSION",
                                  "BOOLSCHEMAREPLACEMENT"])
def test_boolean_keys_keep_true_and_one_apart(kind, monkeypatch):
    """``TRUE`` and ``1`` are different SQL values (``1 = TRUE`` is
    false), so a KB naming both as subjects flags both base rows."""
    engine = SESQLEngine(Database())
    extraction = Extraction("", subjects={Literal(True), Literal(1)})
    monkeypatch.setattr(engine.sqm, "subjects_for",
                        lambda _kb, _prop, _concept: extraction)
    sesql = f"SELECT TRUE AS k UNION ALL SELECT 1 ENRICH {kind}(k, p, c)"
    flags = [row[-1] for row in engine.execute(sesql).rows]
    assert flags == [True, True]
    assert [row[-1] for row in engine.stream(sesql)] == flags


def test_replacevariable_requires_column_attr(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT elem_name FROM elem_contained
            WHERE ${elem_name <> 'x':c1}
            ENRICH REPLACEVARIABLE(c1, 'not a column!!', dangerLevel)""")


def test_constant_absent_from_condition_rejected(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT elem_name FROM elem_contained
            WHERE ${amount > 5:c1}
            ENRICH REPLACECONSTANT(c1, Missing, dangerLevel)""")


# -- per-statement extraction dedupe -----------------------------------------


def test_identical_extractions_across_conditions_execute_once(engine):
    """Two tagged conditions with the same REPLACECONSTANT extraction:
    the plan reports both logical extractions, the KB runs one query."""
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name, amount FROM elem_contained
        WHERE ${ elem_name = 'Mercury' : cond1 }
           OR ${ elem_name = 'Mercury' : cond2 }
        ENRICH REPLACECONSTANT(cond1, Mercury, dangerLevel)
               REPLACECONSTANT(cond2, Mercury, dangerLevel)""")
    assert len(result.sparql_queries) == 2
    assert len(set(result.sparql_queries)) == 1
    assert result.sparql_executions == 1
    assert engine.sqm.sparql_execution_count() - before == 1


def test_where_and_select_extraction_shared(engine):
    """A WHERE rewrite and a SELECT enrichment over the same property
    reuse one extraction within the statement."""
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name FROM elem_contained
        WHERE ${ elem_name <> 'x' : cond1 }
        ENRICH REPLACEVARIABLE(cond1, elem_name, dangerLevel)
               SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert len(result.sparql_queries) == 2
    assert result.sparql_executions == 1
    assert engine.sqm.sparql_execution_count() - before == 1
    # The rewrite and the enrichment both took effect.
    assert "dangerLevel" in result.columns[-1]


def test_distinct_extractions_still_execute_separately(engine):
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
               BOOLSCHEMAEXTENSION(elem_name, dangerLevel, high)""")
    assert len(result.sparql_queries) == 2
    assert result.sparql_executions == 2
    assert engine.sqm.sparql_execution_count() - before == 2
