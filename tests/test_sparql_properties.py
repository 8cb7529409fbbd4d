"""Property-based SPARQL equivalence: the set-at-a-time evaluator and
the pinned naive interpreter must return the same solution multisets
(and the same headers) over generated stores and BGP / OPTIONAL /
FILTER / UNION / BIND / ORDER BY queries — mirroring what
``test_planner_properties.py`` asserts for the relational planner.

The naive interpreter probes the store once per intermediate solution;
the production evaluator hash-joins id-encoded batches in an order the
BGP planner picks from store statistics.  Any disagreement between the
two is a bug in the new path by definition.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Literal, Triple, TripleStore, term_sort_key
from repro.sparql import NaiveEvaluator, parse_sparql
from repro.sparql.evaluator import Evaluator

NS = "http://example.org/"
PREFIX = "PREFIX ex: <http://example.org/>\n"

nodes = [IRI(NS + f"s{i}") for i in range(6)]
subjects = st.sampled_from(nodes)
predicates = st.sampled_from([IRI(NS + f"p{i}") for i in range(3)])
objects = st.one_of(st.sampled_from(nodes),
                    st.integers(0, 5).map(Literal))
triples = st.lists(st.builds(Triple, subjects, predicates, objects),
                   max_size=40)

#: Query shapes chosen to cover every operator pairing the evaluator
#: special-cases: multi-pattern BGP joins (hash-join fast path),
#: OPTIONAL followed by a BGP over its maybe-bound variable (the
#: heterogeneous-boundness "loose rows" path), FILTER/BIND expression
#: evaluation, UNION schema merging, variable predicates, property
#: paths, and the blocking modifiers.
QUERIES = [
    "SELECT ?x ?y WHERE { ?x ex:p0 ?y }",
    "SELECT ?x ?z WHERE { ?x ex:p0 ?y . ?y ex:p1 ?z }",
    "SELECT * WHERE { ?x ex:p0 ?y . ?x ex:p1 ?z . ?z ex:p2 ?w }",
    "SELECT * WHERE { ?x ex:p0 ?x }",
    "SELECT ?x ?y ?z WHERE { ?x ex:p0 ?y OPTIONAL { ?x ex:p1 ?z } }",
    "SELECT * WHERE { ?x ex:p0 ?y OPTIONAL { ?y ex:p1 ?z } "
    "?z ex:p2 ?w }",
    "SELECT * WHERE { ?x ex:p0 ?y OPTIONAL { ?y ex:p1 ?z "
    "FILTER(?z > 1) } }",
    "SELECT ?x WHERE { ?x ex:p0 ?n FILTER(?n > 2) }",
    "SELECT ?x WHERE { ?x ex:p0 ?n FILTER(!BOUND(?m)) }",
    "SELECT ?x ?y WHERE { { ?x ex:p0 ?y } UNION { ?x ex:p1 ?y } }",
    "SELECT * WHERE { { ?x ex:p0 ?y } UNION { ?y ex:p1 ?z } "
    "?y ex:p2 ?w }",
    "SELECT DISTINCT ?x WHERE { ?x ?p ?y }",
    "SELECT ?x ?m WHERE { ?x ex:p0 ?n BIND(?n + 1 AS ?m) }",
    "SELECT ?x ?y WHERE { ?x ex:p0/ex:p1 ?y }",
    "SELECT ?x ?y WHERE { ?x ex:p0+ ?y . ?y ex:p1 ?z }",
    "SELECT DISTINCT ?x ?y WHERE { ?x ex:p0|ex:p1 ?y . "
    "?y ex:p2 ?w }",
]


def build(batch) -> TripleStore:
    store = TripleStore()
    store.add_all(batch)
    return store


def multiset(results) -> Counter:
    return Counter(
        tuple(term.n3() if term is not None else None for term in row)
        for row in results.tuples())


@given(batch=triples, query=st.sampled_from(QUERIES))
@settings(max_examples=300, deadline=None)
def test_select_equivalence(batch, query):
    store = build(batch)
    parsed = parse_sparql(PREFIX + query)
    fast = Evaluator(store).select(parsed)
    naive = NaiveEvaluator(store).select(parsed)
    assert fast.var_names() == naive.var_names()
    assert multiset(fast) == multiset(naive)


@given(batch=triples, limit=st.integers(0, 5), offset=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_order_by_limit_equivalence(batch, limit, offset):
    """ORDER BY output must be key-sorted in both engines and carry the
    same multiset of rows once the slice is applied to a total order
    (the single integer-literal sort key makes ties value-identical)."""
    store = build(batch)
    parsed = parse_sparql(
        PREFIX + f"SELECT ?n WHERE {{ ?x ex:p0 ?n FILTER(?n >= 0) }} "
        f"ORDER BY ?n LIMIT {limit} OFFSET {offset}")
    fast = Evaluator(store).select(parsed)
    naive = NaiveEvaluator(store).select(parsed)
    fast_keys = [term_sort_key(term) for term in fast.values("n")]
    assert fast_keys == sorted(fast_keys)
    assert multiset(fast) == multiset(naive)


#: ORDER BY on a variable the projection drops.  The keys end with every
#: projected variable, so rows that tie on them project alike and the
#: two engines must agree row by row, in order.
ORDERED = [
    "SELECT ?x WHERE { ?x ex:p0 ?n } ORDER BY ?n ?x",
    "SELECT ?x WHERE { ?x ex:p0 ?n } ORDER BY DESC(?n) DESC(?x)",
    "SELECT ?x ?z WHERE { ?x ex:p0 ?y OPTIONAL { ?y ex:p1 ?z } } "
    "ORDER BY DESC(?y) ?x ?z",
    "SELECT ?z WHERE { ?x ex:p0 ?y . ?y ex:p1 ?z } ORDER BY ?x DESC(?z)",
]


def rows_in_order(results) -> list[tuple]:
    return [tuple(term.n3() if term is not None else None for term in row)
            for row in results.tuples()]


@given(batch=triples, query=st.sampled_from(ORDERED),
       limit=st.integers(0, 6), offset=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_order_by_unprojected_variable_row_by_row(batch, query, limit,
                                                  offset):
    store = build(batch)
    for text in (query, f"{query} LIMIT {limit} OFFSET {offset}"):
        parsed = parse_sparql(PREFIX + text)
        assert rows_in_order(Evaluator(store).select(parsed)) \
            == rows_in_order(NaiveEvaluator(store).select(parsed))


#: ``1``, ``1.0``, ``"1"`` and ``true`` are four terms, so four ids.
one_like = st.sampled_from([Literal(1), Literal(1.0), Literal("1"),
                            Literal(True)])


@given(batch=st.lists(st.builds(Triple, subjects, predicates, one_like),
                      max_size=20))
@settings(max_examples=60, deadline=None)
def test_distinct_keeps_literals_of_one_value_apart(batch):
    store = build(batch)
    for query, expected in (
            ("SELECT DISTINCT ?o WHERE { ?x ?p ?o }",
             {triple.object for triple in batch}),
            ("SELECT DISTINCT ?x ?o WHERE { ?x ?p ?o }",
             {(triple.subject, triple.object) for triple in batch})):
        parsed = parse_sparql(PREFIX + query)
        fast = Evaluator(store).select(parsed)
        assert len(fast) == len(expected)
        naive = NaiveEvaluator(store).select(parsed)
        assert multiset(fast) == multiset(naive)


@given(batch=triples)
@settings(max_examples=60, deadline=None)
def test_distinct_over_unbound_slots(batch):
    store = build(batch)
    for query in (
            "SELECT DISTINCT ?x ?z WHERE { ?x ex:p0 ?y "
            "OPTIONAL { ?y ex:p1 ?z } }",
            "SELECT DISTINCT ?z ?x WHERE { ?x ?p ?y "
            "OPTIONAL { ?y ex:p2 ?z } }"):
        parsed = parse_sparql(PREFIX + query)
        fast = Evaluator(store).select(parsed)
        naive = NaiveEvaluator(store).select(parsed)
        assert len(set(fast.tuples())) == len(fast)
        assert multiset(fast) == multiset(naive)


@given(batch=triples, query=st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_equivalence_on_spo_only_stores(batch, query):
    """The ablated store (no POS/OSP indexes) must not change results —
    only the access paths the statistics can price."""
    store = TripleStore(indexing="spo")
    store.add_all(batch)
    parsed = parse_sparql(PREFIX + query)
    fast = Evaluator(store).select(parsed)
    naive = NaiveEvaluator(store).select(parsed)
    assert multiset(fast) == multiset(naive)
