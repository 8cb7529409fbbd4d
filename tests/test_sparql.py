"""SPARQL engine: SELECT, patterns, filters, paths, modifiers."""

import pytest

from repro.rdf import Literal, parse_turtle
from repro.sparql import (SparqlEngine, SparqlSyntaxError, Variable,
                          parse_sparql)

PREFIX = "PREFIX smg: <http://smartground.eu/ns#>\n"

DATA = """
@prefix smg: <http://smartground.eu/ns#> .
smg:Mercury a smg:Element ; smg:dangerLevel "high" ;
    smg:isA smg:HazardousWaste ; smg:atomicNumber 80 .
smg:Asbestos a smg:Element ; smg:dangerLevel "extreme" ;
    smg:isA smg:HazardousWaste .
smg:Iron a smg:Element ; smg:dangerLevel "low" ; smg:atomicNumber 26 .
smg:Copper a smg:Element ; smg:atomicNumber 29 .
smg:Torino smg:inCountry smg:Italy .
smg:Lyon smg:inCountry smg:France .
smg:Italy smg:inContinent smg:Europe .
smg:France smg:inContinent smg:Europe .
smg:Mercury smg:oreAssemblage smg:Cinnabar .
smg:Cinnabar smg:oreAssemblage smg:Sulfur .
smg:HazardousWaste smg:broader smg:Waste .
smg:Waste smg:broader smg:Material .
"""


@pytest.fixture
def engine():
    return SparqlEngine(parse_turtle(DATA))


def names(results, var="s"):
    return sorted(str(term).rsplit("#", 1)[-1]
                  for term in results.values(var) if term is not None)


def test_select_single_pattern(engine):
    results = engine.query(
        PREFIX + "SELECT ?s WHERE { ?s smg:isA smg:HazardousWaste }")
    assert names(results) == ["Asbestos", "Mercury"]


def test_select_star_collects_all_variables(engine):
    results = engine.query(
        PREFIX + "SELECT * WHERE { smg:Torino smg:inCountry ?c }")
    assert results.var_names() == ["c"]


def test_join_across_patterns(engine):
    results = engine.query(PREFIX + """
        SELECT ?s WHERE {
            ?s smg:isA smg:HazardousWaste .
            ?s smg:atomicNumber ?n }""")
    assert names(results) == ["Mercury"]


def test_filter_comparisons(engine):
    results = engine.query(PREFIX + """
        SELECT ?s WHERE { ?s smg:atomicNumber ?n FILTER(?n > 28) }""")
    assert names(results) == ["Copper", "Mercury"]


def test_filter_regex_and_str_functions(engine):
    results = engine.query(PREFIX + """
        SELECT ?s WHERE { ?s smg:dangerLevel ?d
                          FILTER(REGEX(?d, "^(high|extreme)$")) }""")
    assert names(results) == ["Asbestos", "Mercury"]
    results = engine.query(PREFIX + """
        SELECT ?s WHERE { ?s smg:dangerLevel ?d
                          FILTER(STRSTARTS(?d, "ex")) }""")
    assert names(results) == ["Asbestos"]


def test_filter_error_drops_solution(engine):
    # STRLEN of a number errors; those solutions are dropped, not raised.
    results = engine.query(PREFIX + """
        SELECT ?s WHERE { ?s smg:atomicNumber ?n FILTER(STRLEN(?n) > 0) }""")
    assert len(results) == 0


def test_optional_left_join(engine):
    results = engine.query(PREFIX + """
        SELECT ?s ?d WHERE {
            ?s a smg:Element
            OPTIONAL { ?s smg:dangerLevel ?d } } ORDER BY ?s""")
    bindings = {row[0].local_name(): row[1] for row in results.tuples()}
    assert bindings["Copper"] is None
    assert bindings["Iron"] == Literal("low")


def test_optional_with_bound_filter(engine):
    results = engine.query(PREFIX + """
        SELECT ?s WHERE {
            ?s a smg:Element
            OPTIONAL { ?s smg:dangerLevel ?d }
            FILTER(!BOUND(?d)) }""")
    assert names(results) == ["Copper"]


def test_union(engine):
    results = engine.query(PREFIX + """
        SELECT ?s WHERE {
            { ?s smg:dangerLevel "low" } UNION
            { ?s smg:dangerLevel "extreme" } }""")
    assert names(results) == ["Asbestos", "Iron"]


def test_sequence_path(engine):
    results = engine.query(PREFIX + """
        SELECT ?x WHERE { smg:Torino smg:inCountry/smg:inContinent ?x }""")
    assert names(results, "x") == ["Europe"]


def test_inverse_path(engine):
    results = engine.query(PREFIX + """
        SELECT ?city WHERE { smg:Italy ^smg:inCountry ?city }""")
    assert names(results, "city") == ["Torino"]


def test_one_or_more_path(engine):
    results = engine.query(PREFIX + """
        SELECT ?x WHERE { smg:Mercury smg:oreAssemblage+ ?x }""")
    assert names(results, "x") == ["Cinnabar", "Sulfur"]


def test_zero_or_more_path_includes_start(engine):
    results = engine.query(PREFIX + """
        SELECT ?x WHERE { smg:HazardousWaste smg:broader* ?x }""")
    assert names(results, "x") == ["HazardousWaste", "Material", "Waste"]


def test_alternative_path(engine):
    results = engine.query(PREFIX + """
        SELECT ?x WHERE { smg:Mercury smg:isA|smg:dangerLevel ?x }""")
    assert len(results) == 2


def test_order_by_asc_desc_limit_offset(engine):
    ascending = engine.query(PREFIX + """
        SELECT ?s ?n WHERE { ?s smg:atomicNumber ?n } ORDER BY ?n""")
    numbers = [term.value for term in ascending.values("n")]
    assert numbers == [26, 29, 80]
    descending = engine.query(PREFIX + """
        SELECT ?s ?n WHERE { ?s smg:atomicNumber ?n }
        ORDER BY DESC(?n) LIMIT 1""")
    assert [t.value for t in descending.values("n")] == [80]
    offset = engine.query(PREFIX + """
        SELECT ?n WHERE { ?s smg:atomicNumber ?n }
        ORDER BY ?n LIMIT 2 OFFSET 1""")
    assert [t.value for t in offset.values("n")] == [29, 80]


def test_distinct(engine):
    results = engine.query(PREFIX + """
        SELECT DISTINCT ?c WHERE { ?country smg:inContinent ?c }""")
    assert len(results) == 1


def test_bind(engine):
    results = engine.query(PREFIX + """
        SELECT ?s ?len WHERE {
            ?s smg:dangerLevel ?d
            BIND(STRLEN(?d) AS ?len)
            FILTER(?len >= 4) } ORDER BY DESC(?len)""")
    lengths = [term.value for term in results.values("len")]
    assert lengths == [7, 4, 3] or lengths == [7, 4]


def test_variable_predicate(engine):
    results = engine.query(PREFIX + """
        SELECT ?p WHERE { smg:Torino ?p smg:Italy }""")
    assert names(results, "p") == ["inCountry"]


def test_only_select_parses():
    for text in ("ASK { smg:Mercury smg:isA smg:HazardousWaste }",
                 'CONSTRUCT { ?s smg:flagged "yes" } '
                 "WHERE { ?s smg:isA smg:HazardousWaste }"):
        with pytest.raises(SparqlSyntaxError, match="SELECT"):
            parse_sparql(PREFIX + text)


def test_syntax_error_reported():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("SELECT WHERE {}")
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("SELECT ?x WHERE { ?x ?y }")


def test_parse_reusable_ast(engine):
    query = parse_sparql(PREFIX + "SELECT ?s WHERE { ?s a smg:Element }")
    first = engine.query(query)
    second = engine.query(query)
    assert len(first) == len(second) == 4


def test_variable_identity():
    assert Variable("x") == Variable("x")
    assert Variable("x") != Variable("y")


def test_stream_yields_solutions_lazily(engine):
    solutions = engine.stream(PREFIX + """
        SELECT ?s ?n WHERE { ?s smg:atomicNumber ?n }""")
    import types
    assert isinstance(solutions, types.GeneratorType)
    first = next(solutions)
    assert set(v.name for v in first) == {"s", "n"}
    assert len(list(solutions)) == 2  # remaining rows


def test_stream_applies_limit_offset_and_modifiers(engine):
    rows = list(engine.stream(PREFIX + """
        SELECT ?n WHERE { ?s smg:atomicNumber ?n } LIMIT 2"""))
    assert len(rows) == 2
    ordered = list(engine.stream(PREFIX + """
        SELECT ?n WHERE { ?s smg:atomicNumber ?n } ORDER BY ?n"""))
    assert [next(iter(sol.values())).value for sol in ordered] \
        == [26, 29, 80]


def test_naive_engine_selectable():
    from repro.sparql import NaiveEvaluator
    store = parse_turtle(DATA)
    query = PREFIX + "SELECT ?s WHERE { ?s smg:isA smg:HazardousWaste }"
    naive = NaiveEvaluator(store).select(parse_sparql(query))
    assert sorted(map(repr, naive.tuples())) \
        == sorted(map(repr, SparqlEngine(store).query(query).tuples()))
