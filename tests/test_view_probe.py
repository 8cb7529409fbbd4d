"""A held view is probed, not scanned: probe ≡ scan.

A ``col = literal`` / ``col = ?`` conjunct over a
:class:`~repro.relational.table.BoundView` is an access path of its
:class:`~repro.relational.operators.ViewScan`.  A run over a view held
for many runs (``BoundView.hold``, what a mediator session does with a
view it shipped in full) reads only the rows the view's lookup lists for
the key — when the key is of the column's family and not NULL (a NaN,
in the view's source or bound as the key, is NULL), and lists at most
half the rows; a run over any other view scans.  The WHERE
stays whole above the scan, so the vector kernels still decide ``=``.

What must hold, for every drain (execute, a partly drained stream,
EXPLAIN ANALYZE): the rows of a held view are those of the same view
bound for one run, in the same order, and one kept tree serves both.
(``tests/test_access_paths.py`` checks every path against a forced
scan, over tables too.)
"""

from __future__ import annotations

import math
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import Mediator
from repro.relational import Database
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from repro.relational.table import BoundView
from repro.relational.types import (FAMILY, literal_family, null_nans,
                                    values_equal)

NAN = float("nan")

#: Per column family, the values a view's probed column ``k`` draws.
POOLS = {
    "int": [None, 0, 1, 2],
    "real": [None, 0.0, -0.0, 1.0, 2.5, NAN],
    "number": [None, 0, 1, 1.0, 2.5, NAN],
    "bool": [None, True, False],
    "text": [None, "1", "a", ""],
    "mixed": [None, 1, 1.0, True, "1", "a", NAN],
}
#: What a probe is keyed by: every family, and values no row holds.
KEYS = [None, 0, 1, 1.0, -0.0, 2, 2.5, NAN, True, False, "1", "a", "",
        "b", 7]
#: What a literal key can be written as.
LITERALS = [None, 0, 1, 1.0, 2.5, True, False, "1", "a"]

TEMPLATES = {
    "col = ?": ("SELECT p, k FROM v WHERE k = ?", 1),
    "? = col": ("SELECT p FROM v WHERE ? = k AND p >= ?", 2),
}


@st.composite
def columns(draw) -> list[list]:
    """``[k, p]``: the probed column, duplicates and NULLs included, and
    each row's number (so order shows)."""
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    keys = draw(st.lists(st.sampled_from(pool), max_size=14))
    return [keys, list(range(len(keys)))]


def bound(cols: list[list], held: bool) -> BoundView:
    # A view's columns are a source's result, where a NaN is NULL.
    cols = [null_nans(column) for column in cols]
    view = BoundView.of("v", ["k", "p"], cols,
                        [set(map(type, column)) for column in cols])
    if held:
        view.hold()
    return view


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def drained(db: Database, statement, values: tuple, view: BoundView,
            take: int) -> tuple[list, list, int, str]:
    """The rows of each drain over *view*, and the scan's explain line;
    nothing of any run is kept, so the template's tree is free after."""
    rows = db.execute_ast(statement, values, {"v": view}).rows
    cursor = db.stream_ast(statement, values, {"v": view})
    taken = cursor.fetchmany(take)
    cursor.close()
    assert db.rwlock.active_readers == 0
    planned = db.explain(statement, analyze=True, params=values,
                         views={"v": view})
    scan = next(line for line in planned.format().splitlines()
                if "scan v" in line)
    return rows, taken, planned.root.actual_rows, scan


def matches(value, key) -> bool:
    return values_equal(value, key) is True


def probes(view: BoundView, key) -> bool:
    """Whether a run over *view* held reads ``k``'s lookup for *key*:
    a key of the column's family (a NaN key is NULL), listing at most
    half the rows."""
    family = FAMILY.get(view.schema.columns[0].data_type)
    if key != key:
        key = None
    if literal_family(key) != family or not len(view):
        return False
    return 2 * sum(value == key for value in view.cols[0]
                   if value is not None) <= len(view)


def check_probe_is_scan(sql: str, values: tuple, cols: list[list],
                        take: int, keep, key) -> None:
    db = Database()
    statement = parsed(sql)
    held, once = bound(cols, True), bound(cols, False)
    outcomes = []
    for view in (held, once, held, once):
        outcomes.append(drained(db, statement, values, view, take))
        assert db.tree_stats()["built"] == 1
    for (rows, taken, actual, scan), view in zip(outcomes,
                                                 (held, once) * 2):
        assert rows == outcomes[1][0]
        assert taken == rows[:take]
        assert actual == len(rows)
        assert ("probe k" in scan) == (view is held and probes(held, key))
    # The kernels' `=` is the reference, and the view is typed as its
    # columns were shipped.
    expected = [number for value, number in zip(*held.cols)
                if keep(value, number)]
    assert [row[0] for row in outcomes[0][0]] == expected


@settings(max_examples=120, deadline=None)
@given(cols=columns(), key=st.sampled_from(KEYS),
       template=st.sampled_from(sorted(TEMPLATES)),
       low=st.integers(0, 3), take=st.integers(0, 4))
def test_a_probed_held_view_answers_as_a_scanned_one(cols, key, template,
                                                     low, take):
    sql, arity = TEMPLATES[template]
    values = (key,) if arity == 1 else (key, low)
    check_probe_is_scan(sql, values, cols, take,
                        lambda value, number: matches(value, key)
                        and (arity == 1 or number >= low), key)
    if arity == 2:
        return
    # A NaN key is NULL: it matches nothing.
    assert not (isinstance(key, float) and math.isnan(key)
                and any(matches(value, key) for value in cols[0]))


@settings(max_examples=60, deadline=None)
@given(cols=columns(), literal=st.sampled_from(LITERALS),
       take=st.integers(0, 4))
def test_a_literal_probes_as_a_value_does(cols, literal, take):
    sql = f"SELECT p, k FROM v WHERE k = {render_literal(literal)}"
    check_probe_is_scan(sql, (), cols, take,
                        lambda value, _number: matches(value, literal),
                        literal)


def test_a_probe_over_a_view_that_is_not_held_builds_no_lookup():
    db = Database()
    statement = parsed("SELECT p FROM v WHERE k = ?")
    cols = [[1, 2, 1], [0, 1, 2]]
    once = bound(cols, False)
    extraction = BoundView.of("v", ["k", "p"], cols,
                              [set(map(type, column)) for column in cols],
                              coerce=False)
    for view in (once, extraction):
        assert db.execute_ast(statement, (1,), {"v": view}).rows \
            == [(0,), (2,)]
        assert view.paths.path(view, 0) is None
    held = bound(cols, True)
    assert db.execute_ast(statement, (1,), {"v": held}).rows \
        == [(0,), (2,)]
    assert held.paths.path(held, 0) == {1: [0, 2], 2: [1]}
    assert held.paths.path(held, 0) is held.paths.path(held, 0)


def mediated():
    source = Database("src")
    source.execute("CREATE TABLE t (k INTEGER, s TEXT)")
    source.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (1, 'c'), "
                   "(NULL, 'd')")
    mediator = Mediator()
    mediator.register_source("src", source)
    mediator.define_view("v", [("src", "SELECT k, s FROM t")])
    return source, mediator.as_databank()


def test_a_held_view_keeps_its_lookups_until_refresh():
    source, bank = mediated()
    probe, whole = parsed("SELECT s FROM v WHERE k = ?"), parsed(
        "SELECT * FROM v")
    # A pushed filter ships a partial view, bound to its run alone.
    assert bank.execute_ast(probe, (1,)).rows == [("a",), ("c",)]
    assert "v" in bank.last_report.pushed_filters
    assert bank.session._materialized == {}
    # The whole view ships and is held; the next run probes it.
    assert len(bank.execute_ast(whole, ()).rows) == 4
    held = bank.session._materialized["v"]
    assert held.paths._lookups == {}
    assert bank.execute_ast(probe, (1,)).rows == [("a",), ("c",)]
    assert bank.last_report.pushed_filters == {}
    assert held.paths._lookups == {0: {1: [0, 2], 2: [1]}}
    assert "probe k" in bank.explain(probe, params=(2,)).format()
    source.execute("INSERT INTO t VALUES (2, 'e')")
    # Held: the snapshot answers until refresh drops it with its lookup.
    assert bank.execute_ast(probe, (2,)).rows == [("b",)]
    bank.refresh()
    assert bank.execute_ast(whole, ()).rows
    assert bank.session._materialized["v"] is not held
    assert bank.execute_ast(probe, (2,)).rows == [("b",), ("e",)]
    assert bank.tree_stats()["built"] == 2


def test_explain_shows_no_probe_over_a_view_still_to_ship():
    _source, bank = mediated()
    plan = bank.session.explain("SELECT s FROM v WHERE k = 1")
    assert "probe" not in plan.db_plan.format()
    bank.session.execute("SELECT * FROM v")
    plan = bank.session.explain("SELECT s FROM v WHERE k = 1")
    assert "probe k" in plan.db_plan.format()


def test_threads_racing_to_build_a_lookup_agree():
    """Runs on many threads probing one held view, whose lookups none
    has built yet: each builds or finds one, and every answer is the
    scan's."""
    db = Database()
    statement = parsed("SELECT p FROM v WHERE k = ?")
    keys = [index % 7 for index in range(3000)]
    cols = [keys, list(range(len(keys)))]
    expected = {key: [(number,) for number, value in enumerate(keys)
                      if value == key] for key in range(7)}
    held = bound(cols, True)
    failures = []

    def probe(worker: int) -> None:
        for run in range(20):
            key = (worker + run) % 7
            if db.execute_ast(statement, (key,), {"v": held}).rows \
                    != expected[key]:
                failures.append((worker, key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert held.paths.path(held, 0) == {
        key: [number for number, value in enumerate(keys) if value == key]
        for key in range(7)}
