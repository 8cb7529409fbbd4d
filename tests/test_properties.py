"""Property-based tests (hypothesis) on core invariants.

Covers: 3-valued logic laws, value comparison consistency, LIKE vs a
regex model, SQL engine vs a naive Python evaluator, expression
render/parse round-trips, triple-store index coherence, Turtle and
N-Triples round-trips, condition-tag scanning, and the JoinManager's
combine against stdlib ``sqlite3`` running the paper's final SQL and
against the row-at-a-time fold its columnar combine replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResourceMapping, JoinManager, scan_condition_tags
from repro.core.ast import (BoolSchemaExtension, BoolSchemaReplacement,
                            SchemaExtension, SchemaReplacement)
from repro.core.join_manager import (PreparedFlagCombine, find_attr_index,
                                     output_columns)
from repro.core.sqm import Extraction
from repro.rdf import (IRI, Literal, Triple, TripleStore, parse_ntriples,
                       parse_turtle, serialize_ntriples, serialize_turtle)
from repro.relational import Database, ResultSet, parse_expr, render_expr
from repro.relational.ast import node_key
from repro.relational.compiler import like_match
from repro.relational.types import (and3, compare_values, not3, or3,
                                    sql_key, values_equal)

# -- 3VL laws -----------------------------------------------------------------

tv = st.sampled_from([True, False, None])


@given(tv, tv)
def test_and3_commutative(a, b):
    assert and3(a, b) == and3(b, a)


@given(tv, tv)
def test_or3_commutative(a, b):
    assert or3(a, b) == or3(b, a)


@given(tv, tv)
def test_de_morgan(a, b):
    assert not3(and3(a, b)) == or3(not3(a), not3(b))
    assert not3(or3(a, b)) == and3(not3(a), not3(b))


@given(tv)
def test_double_negation(a):
    assert not3(not3(a)) == a


@given(tv, tv, tv)
def test_and3_associative(a, b, c):
    assert and3(and3(a, b), c) == and3(a, and3(b, c))


# -- value comparison ------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.text(max_size=12))


@given(scalars, scalars)
def test_values_equal_symmetric(a, b):
    assert values_equal(a, b) == values_equal(b, a)


@given(scalars)
def test_values_equal_reflexive_for_non_null(a):
    expected = None if a is None else True
    assert values_equal(a, a) is expected


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_compare_values_is_total_order_on_ints(a, b):
    result = compare_values(a, b)
    assert result == (a > b) - (a < b)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_compare_values_cross_numeric(a, b):
    result = compare_values(a, b)
    assert (result < 0) == (a < b)


# -- LIKE vs a reference model -------------------------------------------------------

@given(st.text(alphabet="ab%_c", max_size=8),
       st.text(alphabet="abc", max_size=8))
def test_like_matches_naive_model(pattern, text):
    import re
    regex = "^" + "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern) + "$"
    expected = re.match(regex, text, re.DOTALL) is not None
    assert like_match(text, pattern) == expected


# -- engine vs naive evaluator ----------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50),
              st.sampled_from(["x", "y", "z", None])),
    min_size=0, max_size=30)


@given(rows_strategy, st.integers(-50, 50))
@settings(max_examples=40, deadline=None)
def test_where_filter_matches_python(rows, threshold):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = sorted(db.query(
        f"SELECT a FROM t WHERE a > {threshold}").rows)
    expected = sorted((a,) for a, _b in rows
                      if a is not None and a > threshold)
    assert got == expected


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_group_count_matches_python(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = dict(db.query(
        "SELECT b, COUNT(*) FROM t GROUP BY b").rows)
    expected: dict = {}
    for _a, b in rows:
        expected[b] = expected.get(b, 0) + 1
    assert got == expected


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_order_by_sorts_non_nulls(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = [row[0] for row in db.query(
        "SELECT a FROM t ORDER BY a").rows]
    assert got == sorted(got, key=lambda v: (v is None, v if v is not None
                                             else 0))


# -- expression render/parse round trip ----------------------------------------------------

expr_text = st.sampled_from([
    "a + b * 2", "NOT (a = 1 OR b < 3)", "x BETWEEN 1 AND 9",
    "name LIKE 'a%'", "c IS NOT NULL", "COALESCE(a, b, 0)",
    "CASE WHEN a > 0 THEN 'p' ELSE 'n' END",
    "x IN (1, 2, 3)", "CAST(a AS TEXT) || 'x'", "-a % 3",
])


@given(expr_text)
def test_render_parse_fixpoint(text):
    parsed = parse_expr(text)
    rendered = render_expr(parsed)
    reparsed = parse_expr(rendered)
    assert node_key(parsed) == node_key(reparsed)
    # Rendering is a fixpoint after one normalisation pass.
    assert render_expr(reparsed) == rendered


# -- triple store invariants ---------------------------------------------------------------

iris = st.integers(0, 20).map(lambda i: IRI(f"http://x/{i}"))
literals = st.one_of(st.integers(-5, 5), st.text(max_size=4),
                     st.booleans()).map(Literal)
terms = st.one_of(iris, literals)
triples = st.builds(Triple, iris, iris, terms)


@given(st.lists(triples, max_size=40))
def test_store_size_equals_distinct_triples(batch):
    store = TripleStore()
    store.add_all(batch)
    assert len(store) == len(set(batch))
    assert set(store.triples()) == set(batch)


@given(st.lists(triples, max_size=40))
def test_indexes_agree_on_every_pattern(batch):
    full = TripleStore()
    full.add_all(batch)
    reduced = TripleStore(indexing="spo")
    reduced.add_all(batch)
    for triple in batch[:5]:
        for pattern in [(triple.subject, None, None),
                        (None, triple.predicate, None),
                        (None, None, triple.object),
                        (triple.subject, triple.predicate, None)]:
            assert set(full.triples(*pattern)) \
                == set(reduced.triples(*pattern))


@given(st.lists(triples, max_size=30), st.lists(triples, max_size=30))
def test_union_is_set_union(left_batch, right_batch):
    left = TripleStore()
    left.add_all(left_batch)
    right = TripleStore()
    right.add_all(right_batch)
    merged = left.union(right)
    assert set(merged.triples()) == set(left_batch) | set(right_batch)


@given(st.lists(triples, max_size=30))
def test_remove_inverts_add(batch):
    store = TripleStore()
    store.add_all(batch)
    for triple in batch:
        store.remove(triple)
    assert len(store) == 0
    assert store._spo == {} and store._pos == {} and store._osp == {}


# -- serialization round trips ----------------------------------------------------------------

safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=10)
safe_literals = st.one_of(
    st.integers(-99, 99),
    st.booleans(),
    safe_text,
).map(Literal)
safe_triples = st.builds(Triple, iris, iris,
                         st.one_of(iris, safe_literals))


@given(st.lists(safe_triples, max_size=25))
def test_turtle_round_trip(batch):
    store = TripleStore()
    store.add_all(batch)
    again = parse_turtle(serialize_turtle(store))
    assert set(again.triples()) == set(store.triples())


@given(st.lists(safe_triples, max_size=25))
def test_ntriples_round_trip(batch):
    store = TripleStore()
    store.add_all(batch)
    again = parse_ntriples(serialize_ntriples(store))
    assert set(again.triples()) == set(store.triples())


# -- condition tags ------------------------------------------------------------------------------

cond_ids = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@given(st.lists(cond_ids, min_size=1, max_size=4, unique=True))
def test_scan_extracts_every_tag(ids):
    conditions = [f"${{a{i} = {i}:{cid}}}" for i, cid in enumerate(ids)]
    text = "SELECT x FROM t WHERE " + " AND ".join(conditions)
    scan = scan_condition_tags(text)
    assert set(scan.conditions) == set(ids)
    assert "${" not in scan.clean_text
    from repro.relational import parse_sql
    parse_sql(scan.clean_text)  # cleaned text is valid SQL


# -- the combine against the paper's final SQL, in sqlite --------------------------------------

#: Base keys and subjects: integers, floats that equal some of them,
#: strings (``"1"`` is not ``1``) and NULL, few enough to repeat.
sql_keys = st.sampled_from([1, 2, -3, 1.0, 2.5, "Hg", "Pb", "1", None])
extracted = st.sampled_from([1, 2, -3, 1.0, 2.5, "Hg", "Pb", "1"])
objects = st.sampled_from(["low", "high", 7, 2.5])


def typed(rows) -> list[list[tuple]]:
    """Rows with each value's type beside it (``1 == 1.0 == True``)."""
    return [[(type(value).__name__, value) for value in row]
            for row in rows]


def final_sql(base_keys: list, table: str, rows: list[tuple],
              query: str) -> list[tuple]:
    """*query* over the base ``b(k, n)`` and the extraction table
    *table*, in sqlite with untyped columns (no affinity: integer ``1``
    never equals text ``'1'``)."""
    import sqlite3
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE b (k, n)")
        connection.executemany("INSERT INTO b VALUES (?, ?)",
                               [(key, index)
                                for index, key in enumerate(base_keys)])
        width = len(rows[0]) if rows else 2
        connection.execute(
            f"CREATE TABLE {table} (s{', o' if width == 2 else ''})")
        if rows:
            marks = ", ".join("?" * width)
            connection.executemany(
                f"INSERT INTO {table} VALUES ({marks})", rows)
        return connection.execute(query).fetchall()
    finally:
        connection.close()


def check_pair_combine(keys: list, pairs: list[tuple],
                       replace: bool) -> None:
    """SCHEMAEXTENSION / -REPLACEMENT: a row per (base row, matching
    object) in extraction order, a NULL-padded one for a row with none."""
    mapping = ResourceMapping()
    extraction = Extraction("", pairs=[
        (mapping.to_term("elem", subject), Literal(obj))
        for subject, obj in pairs])
    enrichment = (SchemaReplacement if replace else SchemaExtension)(
        "elem", "p")
    base = ResultSet(["elem", "n"], [(key, index)
                                     for index, key in enumerate(keys)])
    got = JoinManager(mapping).combine(base, enrichment, extraction)
    items = "m.o, b.n" if replace else "b.k, b.n, m.o"
    expected = final_sql(
        keys, "m", pairs,
        f"SELECT {items} FROM b LEFT JOIN m ON b.k = m.s "
        "ORDER BY b.rowid, m.rowid")
    assert got.columns == (["p", "n"] if replace else ["elem", "n", "p"])
    assert typed(got.rows) == typed(expected)


def check_flag_combine(keys: list, subjects: list, replace: bool) -> None:
    """BOOLSCHEMAEXTENSION / -REPLACEMENT: each base row once, flagged
    whether its key is among the extraction's subjects."""
    mapping = ResourceMapping()
    extraction = Extraction("", subjects={
        mapping.to_term("elem", subject) for subject in subjects})
    enrichment = (BoolSchemaReplacement if replace
                  else BoolSchemaExtension)("elem", "isA", "Hazard")
    base = ResultSet(["elem", "n"], [(key, index)
                                     for index, key in enumerate(keys)])
    got = JoinManager(mapping).combine(base, enrichment, extraction)
    flag = "EXISTS (SELECT 1 FROM f WHERE f.s = b.k)"
    items = f"{flag}, b.n" if replace else f"b.k, b.n, {flag}"
    at = 0 if replace else 2        # sqlite answers 0/1: read as bool
    expected = [row[:at] + (bool(row[at]),) + row[at + 1:]
                for row in final_sql(
                    keys, "f", [(subject,) for subject in subjects],
                    f"SELECT {items} FROM b ORDER BY b.rowid")]
    assert got.columns == (["isA_Hazard", "n"] if replace
                           else ["elem", "n", "isA_Hazard"])
    assert typed(got.rows) == typed(expected)


@given(st.lists(sql_keys, max_size=12),
       st.lists(st.tuples(extracted, objects), max_size=10), st.booleans())
@settings(max_examples=150, deadline=None)
def test_pair_combine_is_the_final_sql_left_join(keys, pairs, replace):
    check_pair_combine(keys, pairs, replace)


@given(st.lists(sql_keys, max_size=12), st.lists(extracted, max_size=6),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_flag_combine_is_the_final_sql_exists(keys, subjects, replace):
    check_flag_combine(keys, subjects, replace)


#: Inputs a draw meets only by luck, run every time: base keys and
#: ``(subject, object)`` pairs; the flag kinds read the pairs' subjects.
EDGES = [
    pytest.param([], [(1, "low")], id="empty-base"),
    pytest.param([1, None, "Hg"], [], id="empty-extraction"),
    pytest.param([None, None], [(1, "low"), ("Hg", 7)], id="null-keys"),
    pytest.param([1, 1.0, 2.5, 2], [(1.0, "low"), (2.5, "high"), (2, 7)],
                 id="int-equals-float"),
    pytest.param(["1", 1, 1.0], [("1", "low")], id="text-one-is-not-one"),
    pytest.param([1, "Hg", 1, "Pb"],
                 [(1, "low"), ("Hg", 7), (1, "high"), (1, "low")],
                 id="repeated-subjects"),
]
KINDS = pytest.mark.parametrize("replace", [False, True],
                                ids=["extension", "replacement"])


@KINDS
@pytest.mark.parametrize("keys, pairs", EDGES)
def test_pair_combine_edges_are_the_final_sql(keys, pairs, replace):
    check_pair_combine(keys, pairs, replace)


@KINDS
@pytest.mark.parametrize("keys, pairs", EDGES)
def test_flag_combine_edges_are_the_final_sql(keys, pairs, replace):
    check_flag_combine(keys, [subject for subject, _obj in pairs], replace)


# -- the columnar combine against the row-at-a-time fold ---------------------------------------

#: Base keys and subjects with booleans among them: ``TRUE`` equals ``1``
#: in Python, never in SQL, and ``1.0`` is ``1`` in both.  A NULL
#: subject matches nothing.
tagged_keys = st.sampled_from([True, False, 1, 0, 1.0, "Hg", "1", None])


def row_at_a_time(base: ResultSet, enrichment, extraction,
                  mapping) -> ResultSet:
    """The combine as two row loops (the fold before it went columnar):
    each row's key through ``sql_key``, each output row sliced and
    re-joined from its base row."""
    sql = extraction.sql(mapping)
    combiner = JoinManager(mapping).prepare(enrichment, extraction)
    attr_index = find_attr_index(base.columns, combiner.attr)
    rows: list[tuple] = []
    if isinstance(combiner, PreparedFlagCombine):
        for row in base.rows:
            value = row[attr_index]
            flag = value is not None and sql_key(value) in sql.keys
            if combiner.replace:
                rows.append(row[:attr_index] + (flag,)
                            + row[attr_index + 1:])
            else:
                rows.append(row + (flag,))
    else:
        for row in base.rows:
            key = row[attr_index]
            matches = (sql.buckets.get(sql_key(key), [None])
                       if key is not None else [None])
            for obj in matches:
                if combiner.replace:
                    rows.append(row[:attr_index] + (obj,)
                                + row[attr_index + 1:])
                else:
                    rows.append(row + (obj,))
    return ResultSet(output_columns(base.columns, attr_index,
                                    combiner.new_column, combiner.replace),
                     rows)


def check_columnar_combine(pages: list[list], pairs: list[tuple],
                           kind, columnar: bool) -> None:
    """Each of *pages* (base keys) folded through one prepared combiner,
    in row or column form, is the row-at-a-time fold of that page."""
    mapping = ResourceMapping()
    extraction = Extraction(
        "", pairs=[(mapping.to_term("elem", subject), Literal(obj))
                   for subject, obj in pairs],
        subjects={mapping.to_term("elem", subject)
                  for subject, _obj in pairs})
    enrichment = (kind("elem", "p") if kind in (SchemaExtension,
                                                SchemaReplacement)
                  else kind("elem", "isA", "Hazard"))
    combiner = JoinManager(mapping).prepare(enrichment, extraction)
    at = 0
    for keys in pages:
        numbers = list(range(at, at + len(keys)))
        at += len(keys)
        base = (ResultSet(["n", "elem"], cols=[numbers, list(keys)])
                if columnar else
                ResultSet(["n", "elem"], list(zip(numbers, keys))))
        expected = row_at_a_time(base, enrichment, extraction, mapping)
        got = combiner.combine(base)
        assert got.columns == expected.columns
        assert combiner.columns(base.columns) == expected.columns
        assert len(got) == len(expected)
        assert typed(got.rows) == typed(expected.rows)


ALL_KINDS = pytest.mark.parametrize("kind", [
    SchemaExtension, SchemaReplacement, BoolSchemaExtension,
    BoolSchemaReplacement])


@ALL_KINDS
@given(pages=st.lists(st.lists(tagged_keys, max_size=10), min_size=1,
                      max_size=3),
       pairs=st.lists(st.tuples(tagged_keys, objects), max_size=8),
       columnar=st.booleans())
@settings(max_examples=100, deadline=None)
def test_columnar_combine_is_the_row_at_a_time_fold(kind, pages, pairs,
                                                    columnar):
    check_columnar_combine(pages, pairs, kind, columnar)


#: Pages a draw meets only by luck: ``(pages, pairs)``.
COLUMNAR_EDGES = [
    pytest.param([[]], [(1, "low"), (1, "high")], id="empty-page"),
    pytest.param([[True, 1, None, "Hg"]], [], id="empty-extraction"),
    pytest.param([[None, None, None]], [(1, "low"), (True, 7)],
                 id="all-null-keys"),
    pytest.param([[1, True, "Hg", 1.0]],
                 [(True, "low"), (True, "high"), (1, 7), ("Hg", 2.5)],
                 id="bool-in-a-multi-valued-row"),
    pytest.param([[1, 0, 1.0], [True, False]],
                 [(1, "low"), (False, "high")], id="bool-on-a-later-page"),
]


@ALL_KINDS
@pytest.mark.parametrize("columnar", [False, True], ids=["rows", "cols"])
@pytest.mark.parametrize("pages, pairs", COLUMNAR_EDGES)
def test_columnar_combine_edges(kind, pages, pairs, columnar):
    check_columnar_combine(pages, pairs, kind, columnar)


@ALL_KINDS
def test_a_combiner_follows_a_new_column_layout(kind):
    """A combiner keeps the last page's layout; a page under other
    names is placed anew."""
    mapping = ResourceMapping()
    extraction = Extraction("", pairs=[(Literal(1), Literal("low"))],
                            subjects={Literal(1)})
    enrichment = (kind("elem", "p") if kind in (SchemaExtension,
                                                SchemaReplacement)
                  else kind("elem", "isA", "Hazard"))
    combiner = JoinManager(mapping).prepare(enrichment, extraction)
    for base in (ResultSet(["elem", "n"], [(1, 0), (2, 1)]),
                 ResultSet(["n", "elem"], [(0, 1), (1, 2)]),
                 ResultSet(["n", "p", "elem"], [(0, "x", 1)])):
        assert combiner.combine(base) == row_at_a_time(
            base, enrichment, extraction, mapping)
