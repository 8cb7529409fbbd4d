"""Property-based pushdown equivalence: over generated partitioned views
— fragments that merge the pushed filter, wrap it (DISTINCT is merged;
GROUP BY, LIMIT and compound ones are wrapped), rename columns, expand
stars and carry constant discriminator columns — a mediated query
returns the same rows and columns with pushdown on as with it off,
whatever the pool width and with the fragment cache on or off.

And fragments travel as columns: a view bound from its fragments'
columns reads as the table the row loader builds from the reconciled
rows — over every reconciliation, column-answering and row-answering
sources, skipped and eliminated fragments — a ``union_all`` ship never
builds a row, and a view is read-only: no run over it reaches a cached
fragment.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import FederationOptions, Mediator
from repro.rdf import IRI
from repro.relational import (CatalogError, Database, ExecutionError,
                              ResultSet)
from repro.relational.parser import parse_sql
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table, _narrowest, _transposed
from repro.relational.types import sql_keys

ORIGINS = ("it", "fr", "de")

#: Fragment shapes over ``t (code TEXT, val REAL, label TEXT)``; the view
#: reads ``(code, val, label, origin)`` off the first fragment, by
#: position — the ``renamed`` ones only ever come later.
SHAPES = {
    "plain": "SELECT code, val, label, '{o}' AS origin FROM t",
    "star": "SELECT *, '{o}' AS origin FROM t",
    "where": "SELECT code, val, label, '{o}' AS origin FROM t "
             "WHERE val >= 1 OR label IS NULL",
    "expression": "SELECT code, val * 2 AS val, label, '{o}' AS origin "
                  "FROM t",
    "distinct": "SELECT DISTINCT code, val, label, '{o}' AS origin FROM t",
    "group": "SELECT code, MAX(val) AS val, MIN(label) AS label, "
             "'{o}' AS origin FROM t GROUP BY code",
    "limit": "SELECT code, val, label, '{o}' AS origin FROM t "
             "ORDER BY code, val, label LIMIT 3",
    "compound": "SELECT code, val, label, '{o}' AS origin FROM t "
                "UNION SELECT code, NULL, label, '{o}' FROM t",
    "renamed": "SELECT code AS k, val AS v, label AS l, '{o}' AS src "
               "FROM t",
    "renamed-limit": "SELECT code AS k, val AS v, label AS l, '{o}' AS src "
                     "FROM t ORDER BY k, v, l LIMIT 4",
}

texts = st.sampled_from(["a", "ab", "b", "ba", "c"])
rows = st.lists(st.tuples(st.one_of(st.none(), texts),
                          st.one_of(st.none(), st.sampled_from(
                              [0.5, 1.0, 2.5, 4.0])),
                          st.one_of(st.none(), texts)), max_size=6)
fragments = st.lists(
    st.tuples(st.sampled_from(sorted(SHAPES)), st.sampled_from(ORIGINS),
              rows), min_size=1, max_size=4).filter(
    lambda drawn: not drawn[0][0].startswith("renamed"))

numbers = st.sampled_from(["0.5", "1", "2.5", "3"])
strings = st.sampled_from(["'a'", "'b'", "'ba'", "'it'", "'de'"])


def _atoms() -> st.SearchStrategy[str]:
    text_column = st.sampled_from(["code", "label", "origin"])
    return st.one_of(
        st.builds("val {} {}".format,
                  st.sampled_from(["=", "<>", "<", ">=", ">"]), numbers),
        st.builds("{} {} {}".format, text_column,
                  st.sampled_from(["=", "<>", "<", ">="]), strings),
        st.builds("{} IN ({}, {})".format, text_column, strings, strings),
        st.builds("{} IS {}NULL".format, st.sampled_from(
            ["code", "val", "label"]), st.sampled_from(["", "NOT "])),
        st.builds("val {}BETWEEN {} AND {}".format,
                  st.sampled_from(["", "NOT "]), numbers, numbers),
        st.builds("{} LIKE '{}%'".format, text_column,
                  st.sampled_from(["a", "b", "i"])))


atoms = _atoms()
conjuncts = st.one_of(atoms, st.builds("({} OR {})".format, atoms, atoms))


def mediator_over(drawn, reconciliation: str,
                  options: FederationOptions) -> Mediator:
    mediator = Mediator(options)
    view = []
    for index, (shape, origin, data) in enumerate(drawn):
        source = Database(f"s{index}")
        source.execute("CREATE TABLE t (code TEXT, val REAL, label TEXT)")
        source.insert_rows("t", [dict(zip(("code", "val", "label"), row))
                                 for row in data])
        mediator.register_source(f"s{index}", source)
        view.append((f"s{index}", SHAPES[shape].format(o=origin)))
    mediator.define_view("v", view, reconciliation)
    return mediator


OPTIONS = [pytest.param(FederationOptions(max_workers=workers,
                                          fragment_cache_size=cache),
                        id=f"workers{workers}-cache{cache}")
           for workers in (1, 4) for cache in (0, 128)]


@pytest.mark.parametrize("options", OPTIONS)
@given(drawn=fragments,
       reconciliation=st.sampled_from(["union_all", "union"]),
       where=st.lists(conjuncts, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_pushdown_on_equals_off(options, drawn, reconciliation, where):
    mediator = mediator_over(drawn, reconciliation, options)
    sql = (f"SELECT code, val, label, origin FROM v "
           f"WHERE {' AND '.join(where)}")
    expected = mediator.query(sql, pushdown=False)[0]
    for _again in range(2):                  # the second may hit the cache
        got, report = mediator.query(sql)
        assert got.columns == expected.columns
        assert Counter(got.rows) == Counter(expected.rows)
        assert report.pushed_filters            # the property is not vacuous
        assert len(report.sub_queries) + len(report.eliminated) == len(drawn)


# -- fragments travel as columns ---------------------------------------------


def rows_loaded(name: str, column_names: list[str], rows: list) -> Table:
    """The row loader the column loader replaced, kept as the reference:
    transpose the rows, infer each column's type, store what the storage
    model does not know as its ``str``."""
    given, count, error = _transposed(name, list(rows), len(column_names))
    if error is not None:
        raise error
    kinds = [set(map(type, column)) for column in given]
    for position, kind in enumerate(kinds):
        if not all(issubclass(k, (int, float, str, type(None)))
                   for k in kind):
            given[position] = [
                value if value is None
                or isinstance(value, (int, float, str)) else str(value)
                for value in given[position]]
            kinds[position] = set(map(type, given[position]))
    table = Table(TableSchema(name, [
        Column(column_name, _narrowest(kind))
        for column_name, kind in zip(column_names, kinds)]))
    table._append_columns(given, kinds, count)
    return table


class TermSource(Database):
    """Answers with an RDF term wherever ``s`` holds text: a value the
    storage model does not know."""

    def query(self, target, params=None):
        result = super().query(target, params)
        cols = [list(column) for column in result.cols]
        cols[2] = [None if value is None
                   else IRI(f"http://example.org/{value}")
                   for value in cols[2]]
        return ResultSet(result.columns, cols=cols)


class RowSource(Database):
    """Answers in rows, the form a sort or an aggregate leaves."""

    def query(self, target, params=None):
        result = super().query(target, params)
        return ResultSet(result.columns, list(result.rows))


class DownSource(Database):
    """Never answers: the skip policy drops its fragment."""

    def query(self, target, params=None):
        raise ConnectionError("source is down")


SOURCE_KINDS = {"plain": Database, "terms": TermSource, "rows": RowSource,
                "down": DownSource}
VIEW_COLUMNS = ["k", "n", "s", "origin"]


@st.composite
def shipping_sources(draw) -> list[tuple]:
    """1-4 sources ``(kind, n is REAL, origin, rows)``: NULLs anywhere,
    ``n`` INTEGER at some sources and REAL at others, zero-row ones, and
    at least one source up."""
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        real = draw(st.booleans())
        numbers = st.sampled_from([0.5, 1.0, 2.5]) if real \
            else st.integers(-1, 2)
        data = draw(st.lists(st.tuples(
            st.one_of(st.none(), st.integers(0, 3)),
            st.one_of(st.none(), numbers),
            st.one_of(st.none(), texts)), max_size=5))
        sources.append((draw(st.sampled_from(sorted(SOURCE_KINDS))), real,
                        draw(st.sampled_from(ORIGINS)), data))
    if all(kind == "down" for kind, *_rest in sources):
        sources[0] = ("plain",) + sources[0][1:]
    return sources


def shipping_mediator(sources, reconciliation: str,
                      options: FederationOptions) -> Mediator:
    mediator = Mediator(options)
    view = []
    for index, (kind, real, origin, data) in enumerate(sources):
        source = SOURCE_KINDS[kind](f"s{index}")
        source.execute("CREATE TABLE t (k INTEGER, "
                       f"n {'REAL' if real else 'INTEGER'}, s TEXT)")
        source.insert_rows("t", [dict(zip(("k", "n", "s"), row))
                                 for row in data])
        mediator.register_source(f"s{index}", source)
        view.append((f"s{index}",
                     f"SELECT k, n, s, '{origin}' AS origin FROM t"))
    mediator.define_view(
        "v", view, reconciliation,
        key_columns=["k"] if reconciliation == "prefer_first" else None)
    return mediator


def reconciled(mediator: Mediator, reconciliation: str, report) -> list:
    """The view's rows as the row path reconciled them, from each shipped
    fragment run again at its source."""
    partials = [mediator.source(source).query(sql).rows
                for source, sql in report.sub_queries
                if source not in report.skipped_sources]
    if reconciliation == "union_all":
        return [row for rows in partials for row in rows]
    seen: set = set()
    kept = []
    for rows in partials:
        for row in rows:
            key = sql_keys(row if reconciliation == "union" else row[:1])
            if key not in seen:
                seen.add(key)
                kept.append(row)
    return kept


#: No filter; filters pushed into the fragments — one that eliminates
#: every fragment but one origin's, one that eliminates one origin's.
SHIP_FILTERS = ["", " WHERE origin = 'it'",
                " WHERE origin <> 'fr' AND k >= 1", " WHERE n > 0.5"]


@pytest.mark.parametrize("cache", [0, 128])
@given(sources=shipping_sources(),
       reconciliation=st.sampled_from(["union_all", "union",
                                       "prefer_first"]),
       where=st.sampled_from(SHIP_FILTERS))
@settings(max_examples=60, deadline=None)
def test_a_view_loaded_from_columns_is_the_row_loaders_table(
        cache, sources, reconciliation, where):
    mediator = shipping_mediator(sources, reconciliation, FederationOptions(
        max_workers=1, fragment_cache_size=cache, failure_policy="skip"))
    databank = mediator.as_databank()
    statement = parse_sql(f"SELECT k, n, s, origin FROM v{where}")
    for _again in range(2):                  # the second may hit the cache
        with databank.session.shipped(statement) as (report, views):
            stored = views["v"]
            expected = rows_loaded("v", VIEW_COLUMNS,
                                   reconciled(mediator, reconciliation,
                                              report))
            assert [(column.name, column.data_type)
                    for column in stored.schema.columns] \
                == [(column.name, column.data_type)
                    for column in expected.schema.columns]
            assert list(zip(*stored.cols)) == list(expected.rows())
            assert report.view_rows["v"] == len(expected)
        databank.refresh()


cells = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from([0.5, 1.0]),
                  texts)


@given(shape=st.integers(1, 3).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.tuples(*[cells] * width), max_size=4))))
@settings(max_examples=80, deadline=None)
def test_a_column_built_result_reads_as_the_row_built_one(shape):
    width, rows = shape
    names = [f"c{index}" for index in range(width)]

    def scalar(result):
        try:
            return result.scalar()
        except ExecutionError as exc:
            return str(exc)

    by_rows = ResultSet(names, list(rows))
    cols = [list(column) for column in zip(*rows)] if rows \
        else [[] for _ in names]
    kept, shared = ResultSet(names, cols=cols), \
        ResultSet(names, cols=cols).share()
    # A derived row view is kept, except by a result a cache holds.
    assert kept.rows is kept.rows
    assert shared.rows is not shared.rows and shared.cols is shared.cols
    for by_cols in (kept, shared):
        assert by_cols.rows == by_rows.rows
        assert by_cols.cols == by_rows.cols
        assert len(by_cols) == len(by_rows)
        assert bool(by_cols) is bool(by_rows)
        assert by_cols == by_rows and by_rows == by_cols
        assert by_cols == ResultSet(names, cols=cols)
        if rows:
            shorter = ResultSet(names, rows[:-1])
            assert by_cols != shorter and shorter != by_cols
        for name in names:
            assert by_cols.column_values(name) == by_rows.column_values(name)
        assert scalar(by_cols) == scalar(by_rows)
        assert by_cols.first() == by_rows.first()
        for max_rows in (None, 2):
            assert by_cols.format_table(max_rows) \
                == by_rows.format_table(max_rows)


SHIPPED = [("plain", False, "it", [(1, 2, "a"), (None, None, None)]),
           ("plain", True, "fr", [(2, 0.5, "b")]),
           ("plain", False, "de", [])]


def test_a_union_all_ship_never_derives_a_row_view(monkeypatch):
    reads = []
    rows_of = ResultSet.rows.fget
    monkeypatch.setattr(ResultSet, "rows", property(
        lambda result: reads.append(result) or rows_of(result)))
    databank = shipping_mediator(SHIPPED, "union_all", FederationOptions(
        max_workers=1)).as_databank()
    # Unfiltered, then with a pushed filter that eliminates the fr
    # fragment; each cold, then from the fragment cache.
    for where in ("", " WHERE origin <> 'fr' AND k >= 1"):
        for again in range(2):
            with databank.session.shipped(
                    parse_sql(f"SELECT * FROM v{where}")) as (report, _tie):
                assert report.view_rows["v"] == (3 if not where else 1)
                assert report.fragment_cache_hits == again * (
                    2 if where else 3)
            databank.refresh()
    assert reads == []
    # The counter counts: a row consumer's read shows.
    assert databank.query("SELECT k FROM v WHERE k = 2").rows == [(2,)]
    assert len(reads) == 1


@pytest.mark.parametrize("sources", [SHIPPED[:1], SHIPPED])
def test_a_view_is_read_only_and_its_runs_leave_the_cached_fragments_alone(
        sources):
    mediator = shipping_mediator(sources, "union_all",
                                 FederationOptions(max_workers=1))
    databank = mediator.as_databank()
    before = databank.query("SELECT * FROM v").rows
    cached = list(mediator.fragment_cache._entries.values())
    assert len(cached) == len(sources)

    def held():
        return [[list(column) for column in result.cols]
                for result in cached]

    snapshot = held()
    for statement in ("UPDATE v SET n = 9, s = 'x'",
                      "INSERT INTO v VALUES (7, 7, 'y', 'zz')",
                      "DELETE FROM v WHERE k = 1"):
        with pytest.raises(CatalogError, match="does not exist"):
            databank.execute(statement)
    for query in ("SELECT * FROM v ORDER BY s DESC, k",
                  "SELECT k, COUNT(*) FROM v GROUP BY k",
                  "SELECT * FROM v WHERE k >= 1", "SELECT * FROM v"):
        databank.query(query)
    assert held() == snapshot
    databank.refresh()
    assert databank.query("SELECT * FROM v").rows == before
    assert databank.last_report.fragment_cache_hits == len(sources)
