"""Property-based pushdown equivalence: over generated partitioned views
— fragments that merge the pushed filter, wrap it (DISTINCT is merged;
GROUP BY, LIMIT and compound ones are wrapped), rename columns, expand
stars and carry constant discriminator columns — a mediated query
returns the same rows and columns with pushdown on as with it off,
whatever the pool width and with the fragment cache on or off.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import FederationOptions, Mediator
from repro.relational import Database

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
