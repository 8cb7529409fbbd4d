"""A paged ORDER BY may read its table in the leading key's order.

When a cursor's first pull asks for ``D`` rows (``Slots.demand``) and
the statement is a single-table ``ORDER BY`` whose leading key is a
plain column of the scanned table, the scan may walk that column's
sorted path a run of equal keys at a time (detail ``ordered <col>``),
the sort orders each batch by itself, and nothing past the page is
read.  What must hold: for every demand — 1, 2, a REST page's 101, or
none (drained whole) — a streamed fetch is the head of the whole run,
in the same order, tie for tie, over NULLs at both ends, duplicate
keys, ``1`` beside ``1.0``, ``±0.0``, big integers and NaN (stored as
NULL), a sorted path that appends merged into or a DELETE dropped,
DESC and mixed directions, aliases and ordinals, and WHERE clauses with
ranges, ``=``, ``IN`` lists and ``IN`` subqueries; and a run chooses
the order only where it expects to read fewer rows so.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database
from repro.relational.parser import SqlParser

NAN = float("nan")
BIG = 2 ** 53

#: Per type of the leading column ``k``, the values a row draws.
POOLS = {
    "INTEGER": [None, 0, 1, 1.0, -1, 2, BIG, BIG + 1],
    "REAL": [None, 0.0, -0.0, 1, 1.0, 2.5, NAN, float(BIG), BIG + 1],
    "TEXT": [None, "", "1", "a", "b", "ab"],
}
#: Keys after the first: plain columns, and an expression.
LATER = ["a", "b", "p", "a + p"]
#: WHERE conjuncts over ``t``, with the values their ``?`` take.
CONJUNCTS = [
    ("a >= ?", st.sampled_from([0, 1, 2])),
    ("a = ?", st.sampled_from([0, 1])),
    ("p < ?", st.integers(0, 30)),
    ("b IN ('x', 'z')", None),
    ("a IN (SELECT c FROM u)", None),
    ("b NOT IN (SELECT s FROM u WHERE s IS NOT NULL)", None),
]


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def rows_of(k_type: str):
    return st.lists(st.tuples(st.sampled_from(POOLS[k_type]),
                              st.sampled_from([None, 0, 1, 2]),
                              st.sampled_from([None, "x", "y", "z"])),
                    min_size=0, max_size=30)


@st.composite
def cases(draw):
    k_type = draw(st.sampled_from(sorted(POOLS)))
    rows = draw(rows_of(k_type))
    if rows and draw(st.booleans()):   # NULLs at both ends
        rows[0] = (None,) + rows[0][1:]
        rows[-1] = (None,) + rows[-1][1:]
    keys = [("k", draw(st.booleans()))] + [
        (key, draw(st.booleans()))
        for key in draw(st.lists(st.sampled_from(LATER), max_size=2,
                                 unique=True))]
    picked = draw(st.lists(st.sampled_from(range(len(CONJUNCTS))),
                           max_size=2, unique=True))
    conjuncts, values = [], []
    for index in picked:
        text, drawn = CONJUNCTS[index]
        conjuncts.append(text)
        if drawn is not None:
            values.append(draw(drawn))
    spelling = draw(st.sampled_from(["k", "alias", "ordinal"]))
    later = draw(st.lists(rows_of(k_type), max_size=2))
    delete = draw(st.booleans())
    return k_type, rows, keys, conjuncts, tuple(values), spelling, later, \
        delete


def statement(keys, conjuncts, spelling: str) -> str:
    leading = {"k": "k", "alias": "kk", "ordinal": "1"}[spelling]
    order = ", ".join(
        (leading if position == 0 else key) + " DESC" * descending
        for position, (key, descending) in enumerate(keys))
    where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    return f"SELECT k AS kk, a, b, p FROM t{where} ORDER BY {order}"


def typed(rows) -> list:
    return [tuple(map(repr, row)) for row in rows]


def scan_detail(plan) -> str:
    return next(node.detail for node in plan.walk()
                if node.kind == "scan" and node.label == "t")


def database(k_type: str, rows) -> Database:
    db = Database()
    db.execute(f"CREATE TABLE t (k {k_type}, a INTEGER, b TEXT, p INTEGER)")
    db.execute("CREATE TABLE u (c INTEGER, s TEXT)")
    db.execute("INSERT INTO u VALUES (1, 'x'), (2, NULL), (NULL, 'y')")
    append(db, rows)
    return db


def append(db: Database, rows) -> None:
    first = len(db.table("t"))
    db.insert_rows("t", ({"k": k, "a": a, "b": b, "p": first + offset}
                         for offset, (k, a, b) in enumerate(rows)))


def fetch(db: Database, query, values: tuple, demand: int | None
          ) -> tuple[list, str]:
    """A cursor's first fetch for *demand* (``None``: all of it), and
    its scan's detail; the cursor is gone after, so its tree is free."""
    with db.stream_ast(query, values) as cursor:
        got = cursor.fetchall() if demand is None \
            else cursor.fetchmany(demand)
        return got, scan_detail(cursor.plan)


def pages(db: Database, query, values: tuple, seen: Counter) -> None:
    """Every demand's fetch is the head of the whole run; a drained run
    after it reads no order."""
    whole = db.execute_ast(query, values)
    assert not scan_detail(whole.plan).startswith("ordered")
    expected = typed(whole.rows)
    del whole       # its tree is free again: every run re-drives it
    for demand in (None, 101, 2, 1):
        got, detail = fetch(db, query, values, demand)
        assert typed(got) == expected[:demand]
        seen["ordered" if detail.startswith("ordered") else "not"] += 1
        if demand is None or demand >= len(db.table("t")):
            assert not detail.startswith("ordered")
    again = db.execute_ast(query, values)
    assert typed(again.rows) == expected
    assert not scan_detail(again.plan).startswith("ordered")
    assert db.rwlock.active_readers == 0


def test_a_fetch_is_the_head_of_the_whole_run():
    seen: Counter = Counter()

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def check(case):
        k_type, rows, keys, conjuncts, values, spelling, later, delete = case
        db = database(k_type, rows)
        query = parsed(statement(keys, conjuncts, spelling))
        pages(db, query, values, seen)
        for more in later:       # merged into the sorted path
            append(db, more)
            pages(db, query, values, seen)
        if delete:               # drops it
            db.execute("DELETE FROM t WHERE p % 3 = 0")
            pages(db, query, values, seen)

    check()
    assert seen["ordered"] and seen["not"]


# -- which runs read in order -----------------------------------------------------


def landfills() -> Database:
    """1 000 landfills of three types, and 6 000 element rows, about 6
    per landfill."""
    db = Database()
    db.execute("CREATE TABLE landfill (name TEXT, landfill_type TEXT, "
               "opened_year INTEGER, area_m2 REAL)")
    db.insert_rows("landfill", (
        {"name": f"lf{n * 7919 % 1000:04d}",
         "landfill_type": ("urban", "mining", "industrial")[n % 3],
         "opened_year": 1950 + n * 37 % 60, "area_m2": n * 613 % 1000 * 500.0}
        for n in range(1000)))
    db.execute("CREATE TABLE elem (landfill_name TEXT, elem_name TEXT, "
               "amount REAL, purity REAL)")
    db.insert_rows("elem", (
        {"landfill_name": f"lf{n * 31 % 1000:04d}", "elem_name": f"e{n % 40}",
         "amount": n % 97 * 1.0, "purity": n * 13 % 100 / 100}
        for n in range(6000)))
    return db


def first_page(db: Database, sql: str, values: tuple) -> tuple[str, list]:
    """A REST page's fetch (101 rows) and its scan's detail, beside the
    whole run's head."""
    query = parsed(sql)
    cursor = db.stream_ast(query, values)
    try:
        page = cursor.fetchmany(101)
        detail = next(node.detail for node in cursor.plan.walk()
                      if node.kind == "scan")
    finally:
        cursor.close()
    assert typed(page) == typed(db.execute_ast(query, values).rows[:101])
    return detail, page


def test_a_page_reads_in_order_where_that_reads_fewer_rows():
    db = landfills()
    # A type probe names a third of the table, and the year range keeps
    # part of that: the probe reads fewer rows than the order would.
    detail, _page = first_page(
        db, "SELECT name FROM landfill WHERE landfill_type = ? "
            "AND opened_year >= ? ORDER BY name", ("urban", 1980))
    assert detail == "probe landfill_type"
    # A point probe names six rows.
    detail, _page = first_page(
        db, "SELECT elem_name, amount FROM elem WHERE landfill_name = ? "
            "ORDER BY elem_name", ("lf0007",))
    assert detail == "probe landfill_name"
    # A range keeping most of the table scans: the order reads a page.
    detail, page = first_page(
        db, "SELECT name FROM landfill WHERE area_m2 > ? ORDER BY name",
        (50000.0,))
    assert detail == "ordered name" and len(page) == 101
    # A range naming under half of it, by a key and two after it.
    detail, _page = first_page(
        db, "SELECT elem_name, landfill_name, purity FROM elem "
            "WHERE purity > ? ORDER BY elem_name, purity DESC, "
            "landfill_name", (0.6,))
    assert detail == "ordered elem_name"
    # An IN subquery through its semi join, and DESC.
    detail, _page = first_page(
        db, "SELECT landfill_name FROM elem WHERE elem_name IN "
            "(SELECT elem_name FROM elem WHERE amount = 3.0) "
            "AND amount > ? ORDER BY landfill_name DESC", (1.0,))
    assert detail == "ordered landfill_name DESC"


def test_an_ordered_page_stops_early():
    db = landfills()
    query = parsed("SELECT name FROM landfill ORDER BY name")
    cursor = db.stream_ast(query, ())
    try:
        assert len(cursor.fetchmany(2)) == 2
        scan = next(node for node in cursor.plan.walk()
                    if node.kind == "scan")
        assert scan.detail == "ordered name"
        assert scan.actual_rows < 10
    finally:
        cursor.close()
    # A LIMIT takes no demand down: the run sorts its whole input.
    cursor = db.stream_ast(parsed(
        "SELECT name FROM landfill ORDER BY name LIMIT 5"), ())
    try:
        cursor.fetchmany(2)
        scan = next(node for node in cursor.plan.walk()
                    if node.kind == "scan")
        assert scan.detail == "" and scan.actual_rows == 1000
    finally:
        cursor.close()
