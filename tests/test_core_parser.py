"""ENRICH-clause grammar (Fig. 5) and the SESQL splitter."""

import pytest

from repro.core import (BoolSchemaExtension, BoolSchemaReplacement,
                        ReplaceConstant, ReplaceVariable, SchemaExtension,
                        SchemaReplacement, SesqlSyntaxError,
                        parse_enrichments, parse_sesql, split_sesql)


def test_split_at_top_level_enrich():
    sql, enrich = split_sesql(
        "SELECT a FROM t WHERE x = 1 ENRICH SCHEMAEXTENSION(a, p)")
    assert sql.strip() == "SELECT a FROM t WHERE x = 1"
    assert enrich.strip() == "SCHEMAEXTENSION(a, p)"


@pytest.mark.parametrize("text", [
    "SELECT 'ENRICH' FROM t",
    "SELECT a FROM t -- enrich me later\nWHERE a = 1",
    "SELECT a /* enrich? */ FROM t",
    'SELECT "enrich" FROM t',
])
def test_split_ignores_enrich_in_strings_comments_and_quoted_names(text):
    sql, enrich = split_sesql(text)
    assert (sql, enrich) == (text, None)
    parse_sesql(text)


def test_apostrophe_in_a_comment_opens_no_string():
    enriched = parse_sesql(
        "SELECT elem_name /* it's */ FROM elem_contained -- one more\n"
        "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    assert [e.kind for e in enriched.enrichments] == ["SCHEMAEXTENSION"]


def test_split_ignores_identifier_containing_enrich():
    sql, enrich = split_sesql("SELECT enrichment FROM t")
    assert enrich is None


def test_split_case_insensitive():
    _sql, enrich = split_sesql("SELECT a FROM t enrich SCHEMAEXTENSION(a,p)")
    assert enrich is not None


def test_parse_each_clause_type():
    parsed = parse_enrichments("""
        SCHEMAEXTENSION(elem_name, dangerLevel)
        SCHEMAREPLACEMENT(city, inCountry)
        BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)
        BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)
        REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)
        REPLACEVARIABLE(cond1, Elecond2.elem_name, oreAssemblage)
    """)
    assert [type(node) for node in parsed] == [
        SchemaExtension, SchemaReplacement, BoolSchemaExtension,
        BoolSchemaReplacement, ReplaceConstant, ReplaceVariable]


def test_spaced_spelling_accepted():
    parsed = parse_enrichments(
        "SCHEMA EXTENSION(a, p) SCHEMA REPLACEMENT(b, q)")
    assert isinstance(parsed[0], SchemaExtension)
    assert isinstance(parsed[1], SchemaReplacement)


def test_case_insensitive_clause_names():
    parsed = parse_enrichments("schemaextension(a, p)")
    assert isinstance(parsed[0], SchemaExtension)


def test_qualified_attr_preserved():
    parsed = parse_enrichments(
        "REPLACEVARIABLE(cond1, Elecond2.elem_name, oreAssemblage)")
    assert parsed[0].attr == "Elecond2.elem_name"


def test_quoted_string_arguments():
    parsed = parse_enrichments("SCHEMAEXTENSION('elem name', 'my prop')")
    assert parsed[0].attr == "elem name"
    assert parsed[0].prop == "my prop"


def test_replaceconstant_two_arg_form_infers_condition():
    parsed = parse_enrichments(
        "REPLACECONSTANT(HazardousWaste, dangerQuery)",
        known_conditions={"cond1"})
    assert parsed[0].cond == "cond1"
    assert parsed[0].constant == "HazardousWaste"


def test_replaceconstant_two_arg_form_ambiguous_rejected():
    with pytest.raises(SesqlSyntaxError):
        parse_enrichments("REPLACECONSTANT(X, p)",
                          known_conditions={"c1", "c2"})


def test_wrong_arity_rejected():
    with pytest.raises(SesqlSyntaxError):
        parse_enrichments("SCHEMAEXTENSION(a)")
    with pytest.raises(SesqlSyntaxError):
        parse_enrichments("BOOLSCHEMAEXTENSION(a, p)")


def test_unknown_clause_rejected():
    with pytest.raises(SesqlSyntaxError):
        parse_enrichments("FOO(a, b)")


def test_empty_enrich_clause_rejected():
    with pytest.raises(SesqlSyntaxError):
        parse_enrichments("   ")


def test_parse_sesql_full_query():
    enriched = parse_sesql("""
        SELECT elem_name FROM elem_contained
        WHERE ${elem_name = HazardousWaste:cond1}
        ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)""")
    assert len(enriched.enrichments) == 1
    assert "cond1" in enriched.conditions
    assert "${" not in enriched.sql_text


def test_parse_sesql_unknown_condition_reference():
    from repro.core import EnrichmentError
    with pytest.raises(EnrichmentError):
        parse_sesql("""
            SELECT a FROM t WHERE ${a = 1:c1}
            ENRICH REPLACECONSTANT(nope, X, p)""")


def test_parse_sesql_plain_sql_accepted():
    enriched = parse_sesql("SELECT a FROM t")
    assert enriched.enrichments == []


def test_parse_sesql_requires_select():
    with pytest.raises(SesqlSyntaxError):
        parse_sesql("DELETE FROM t ENRICH SCHEMAEXTENSION(a, p)")
