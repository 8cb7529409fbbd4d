"""Every access path answers as a forced scan: probe ≡ scan.

A scan reads, per run, only the rows the narrowest of its access paths
names (``executor.select_access_paths``: ``=``, ``IN (subquery)`` and
ranges over a table — through the column's lookup, declared index or
not, and the table's sorted path — ``=`` and ``IN`` over a held view;
the table's or view's column-path store answers each) when that is at
most half of them;
the WHERE stays whole above it.  What must hold, for every drain
(execute, a partly drained stream, EXPLAIN ANALYZE), over tables with
and without an index, over held and run-only views and over an
extraction mixing families (values as given): the rows are
those of the same statement over a forced scan, in the same order —
errors too — and one kept tree serves every run.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.relational import Database, executor
from repro.relational.errors import RelationalError
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from repro.relational.table import BoundView
from repro.relational.types import null_nans

NAN = float("nan")
BIG = 2 ** 53

#: Per declared type, the values the relation's column ``k`` draws.
POOLS = {
    "INTEGER": [None, 0, 1, 2, -3, BIG, BIG + 1],
    "REAL": [None, 0.0, -0.0, 1.0, 2.5, NAN, float(BIG)],
    "TEXT": [None, "", "1", "a", "b"],
    "BOOLEAN": [None, True, False],
    # Values as given, over an extraction only: two families, no type.
    "mixed": [None, 1, 1.0, True, "1", "a", NAN],
}
#: What a key or an ``IN`` member can be: every family, NULL, NaN (which
#: is NULL: bound, stored, or in a view's source).
KEYS = [None, 0, 1, 1.0, -0.0, 2, 2.5, NAN, BIG, BIG + 1, float(BIG),
        True, False, "", "1", "a", 7]

#: Template -> SQL over ``r`` (``k``, row number ``p``) and extraction
#: ``w`` (``c0``); every ``?`` takes the drawn key.
TEMPLATES = {
    "k = ?": "SELECT p FROM r WHERE k = ?",
    "? = k": "SELECT p FROM r WHERE ? = k AND p >= 0",
    "k < ?": "SELECT p FROM r WHERE k < ?",
    "k <= ?": "SELECT p, k FROM r WHERE k <= ?",
    "k > ?": "SELECT p FROM r WHERE k > ?",
    "? > k": "SELECT p FROM r WHERE ? > k",
    "? <= k": "SELECT p FROM r WHERE ? <= k ORDER BY p DESC",
    "k >= literal": "SELECT p FROM r WHERE k >= {literal}",
    "k IN": "SELECT p FROM r WHERE k IN (SELECT c0 FROM w)",
    "k NOT IN": "SELECT p FROM r WHERE k NOT IN (SELECT c0 FROM w)",
    "k IN, range": "SELECT p FROM r WHERE k IN (SELECT c0 FROM w) "
                   "AND k >= ?",
    "k = ?, range": "SELECT p FROM r WHERE k = ? AND ? < k",
}
SOURCES = ["table", "indexed table", "sorted-indexed table", "held view",
           "run-only view", "extraction"]


@contextmanager
def forced_scan():
    """Builds inside the block find no access path and no ordered read:
    every scan scans, and every sort sorts its whole input."""
    saved = executor.select_access_paths, executor.select_ordered_read
    executor.select_access_paths = lambda *args: []
    executor.select_ordered_read = lambda *args: None
    try:
        yield
    finally:
        executor.select_access_paths, executor.select_ordered_read = saved


def relation(source: str, data_type: str, keys: list, members: list
             ) -> tuple[Database, dict]:
    """A database whose ``r`` is *keys* (``k``) and their row numbers,
    as *source* holds them, and the views a run binds (the extraction
    ``w`` of *members*, values as given, and ``r`` when a view)."""
    db = Database()
    # A view's columns are a source's result, where a NaN is NULL; a
    # table stores one as NULL.
    members = null_nans(members)
    cols = [list(null_nans(keys)), list(range(len(keys)))]
    views = {"w": BoundView.of("w", ["c0"], [list(members)],
                               [set(map(type, members))], coerce=False)}
    if source.endswith("table"):
        db.execute(f"CREATE TABLE r (k {data_type}, p INTEGER)")
        db.insert_rows("r", ({"k": key, "p": number}
                             for number, key in enumerate(keys)))
        if source == "indexed table":
            db.execute("CREATE INDEX rk ON r (k)")
        elif source == "sorted-indexed table":
            db.execute("CREATE INDEX rs ON r (k) USING sorted")
    else:
        view = BoundView.of("r", ["k", "p"], cols,
                            [set(map(type, column)) for column in cols],
                            coerce=source != "extraction")
        if source == "held view":
            view.hold()
        views["r"] = view
    return db, views


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def outcome(run):
    try:
        return run()
    except RelationalError as exc:
        return type(exc).__name__


def drains(db: Database, statement, values: tuple, views: dict,
           take: int) -> list:
    """Each drain's rows (or error), and the scan's row count."""
    def streamed():
        cursor = db.stream_ast(statement, values, views)
        try:
            return cursor.fetchmany(take)
        finally:
            cursor.close()

    def analyzed():
        root = db.explain(statement, analyze=True, params=values,
                          views=views).root
        scan = next(node for node in root.walk() if node.kind == "scan")
        return root.actual_rows, scan

    found = [outcome(lambda: db.execute_ast(statement, values, views).rows),
             outcome(streamed), outcome(analyzed)]
    assert db.rwlock.active_readers == 0
    return found


def check(source: str, data_type: str, keys: list, members: list,
          sql: str, key, take: int) -> str:
    """The drains' outcomes over a forced scan and over the paths agree;
    returns the path the scan read (``error`` when the drains raise)."""
    values = (key,) * sql.count("?")
    db, views = relation(source, data_type, keys, members)
    statement = parsed(sql)
    with forced_scan():
        scan_db, scan_views = relation(source, data_type, keys, members)
        expected = drains(scan_db, parsed(sql), values, scan_views, take)
    detail = "error"
    for _round in range(2):
        got = drains(db, statement, values, views, take)
        if isinstance(expected[0], str):
            assert got == expected
            continue
        assert got[0] == expected[0]
        assert got[1] == expected[0][:take]
        (actual, scan), (scanned_actual, scanned) = got[2], expected[2]
        assert actual == scanned_actual == len(expected[0])
        assert scanned.detail == ""
        detail = scan.detail or "scan"
        if scan.detail:
            assert 2 * scan.actual_rows <= len(keys)
            assert source not in ("run-only view", "extraction")
            assert source != "held view" or "range" not in scan.detail
        assert db.tree_stats()["built"] == 1
    return detail


@settings(max_examples=400, deadline=None)
@given(data=st.data(), source=st.sampled_from(SOURCES),
       data_type=st.sampled_from(sorted(POOLS)),
       template=st.sampled_from(sorted(TEMPLATES)), take=st.integers(0, 4))
def test_a_probed_scan_answers_as_a_forced_scan(data, source, data_type,
                                                template, take):
    if data_type == "mixed":
        source = "extraction"
    pool = POOLS[data_type]
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=12),
                     label="keys")
    # Keys of the column's own values too, so that paths get taken.
    drawn = st.sampled_from(KEYS) | st.sampled_from(pool)
    key = data.draw(drawn, label="key")
    members = data.draw(st.lists(drawn, max_size=4), label="members")
    sql = TEMPLATES[template].format(literal=render_literal(key))
    event(check(source, data_type, keys, members, sql, key, take))


def test_mixed_families_and_nan_scan_or_raise_as_the_scan_does():
    # A key of another family: `=` is false, a range raises.  NaN is
    # NULL: in the column it is stored so, and as the key it is bound so.
    check("table", "INTEGER", [1, 2, 3, 4], [], "SELECT p FROM r WHERE k > ?",
          "a", 2)
    assert check("table", "REAL", [1.0, NAN, 3.0, 4.0, 5.0], [],
                 "SELECT p FROM r WHERE k >= ?", 4.0, 2) == "range k"
    assert check("held view", "REAL", [1.0, NAN, 3.0, NAN], [],
                 "SELECT p FROM r WHERE k = ?", NAN, 2) == "scan"
    db, views = relation("table", "REAL", [1.0, NAN, None], [])
    assert db.query("SELECT p FROM r WHERE k IS NULL").rows == [(1,), (2,)]
    check("indexed table", "INTEGER", [1, 0, 3, 4], [],
          "SELECT p FROM r WHERE k = ?", True, 2)
    check("held view", "INTEGER", [1, 2, 3, 4], [True, 1, None, "1"],
          "SELECT p FROM r WHERE k IN (SELECT c0 FROM w)", None, 2)


def shown(source: str, sql: str, values: tuple, keys: list,
          members: list = ()) -> str:
    """The path the scan reads, once its rows are a forced scan's."""
    key = values[0] if values else None
    assert check(source, "INTEGER", keys, members, sql, key,
                 len(keys)) != "error"
    db, views = relation(source, "INTEGER", keys, members)
    root = db.explain(parsed(sql), analyze=True, params=values,
                      views=views).root
    return next(node for node in root.walk() if node.kind == "scan").detail


@pytest.mark.parametrize("source, sql, values, members, detail", [
    ("indexed table", "SELECT p FROM r WHERE k = ?", (3,), (), "probe k"),
    ("table", "SELECT p FROM r WHERE k = ?", (3,), (), "probe k"),
    ("table", "SELECT p FROM r WHERE 7 <= k", (), (), "range k"),
    ("table", "SELECT p FROM r WHERE k > ?", (1,), (), ""),
    ("indexed table", "SELECT p FROM r WHERE k IN (SELECT c0 FROM w)",
     (), (2, 5, None), "probe k IN"),
    ("indexed table", "SELECT p FROM r WHERE k IN (SELECT c0 FROM w)",
     (), (2, 5), "probe k IN"),
    ("indexed table", "SELECT p FROM r WHERE k NOT IN (SELECT c0 FROM w)",
     (), (2, 5), ""),
    ("held view", "SELECT p FROM r WHERE k IN (SELECT c0 FROM w) "
     "AND k > ?", (8,), (2, 5), "probe k IN"),
    ("held view", "SELECT p FROM r WHERE k IN (SELECT c0 FROM w) "
     "AND k > ?", (8,), (2, 3, 4, 5, 6, 7), ""),
    ("run-only view", "SELECT p FROM r WHERE k = ?", (3,), (), ""),
    ("indexed table", "SELECT p FROM r WHERE k IN (SELECT c0 FROM w) "
     "AND k > ?", (8,), (2, 5, 7), "range k"),
])
def test_a_run_reads_the_narrowest_path_naming_at_most_half(
        source, sql, values, members, detail):
    """k = 0..9: `k = 3` names 1 row, `7 <= k` 3, `k > 1` 8 (more than
    half), `IN (2, 5)` 2, `IN (2, 5, 7)` 3 and `k > 8` 1.  A NULL member
    matches nothing, so the other keys still name the rows; `NOT IN`
    has no path."""
    assert shown(source, sql, values, list(range(10)), list(members)) \
        == detail


def test_an_in_subquery_of_boolean_expressions_reads_the_lookup():
    """``NOT x`` keys the build by ``sql_key`` (a boolean tagged apart
    from the numbers); the members the ``in`` path reads are values."""
    db = Database()
    db.execute("CREATE TABLE r (b BOOLEAN, p INTEGER)")
    db.insert_rows("r", ({"b": n == 4, "p": n} for n in range(10)))
    db.execute("CREATE TABLE u (x BOOLEAN)")
    db.insert_rows("u", [{"x": False}])
    sql = parsed("SELECT p FROM r WHERE b IN (SELECT NOT x FROM u)")
    with forced_scan():
        expected = drains(db, sql, (), {}, 2)
    got = drains(db, sql, (), {}, 2)
    assert got[0] == expected[0] == [(4,)]
    assert got[2][1].detail == "probe b IN"


def test_the_sorted_path_merges_appends_and_goes_with_other_writes():
    """Through a compaction, an UPDATE and a truncate, each followed by
    an append, every read through the store (a range and a hash-indexed
    ``=``) answers as the forced scan does; an append merges into the
    sorted path, and any other write drops it."""
    db = Database()
    db.execute("CREATE TABLE r (k INTEGER, p INTEGER)")
    db.execute("CREATE INDEX rk ON r (k)")
    db.insert_rows("r", ({"k": n % 7, "p": n} for n in range(200)))
    table = db.table("r")
    reads = {op: parsed(f"SELECT p FROM r WHERE k {op} ? ORDER BY p")
             for op in ("=", ">=")}

    def answer(op, key):
        result = db.execute_ast(reads[op], (key,))
        with forced_scan():
            expected = db.query(f"SELECT p FROM r WHERE k {op} {key} "
                                "ORDER BY p").rows
        assert result.rows == expected
        return next(node for node in result.plan.walk()
                    if node.kind == "scan").detail

    def read_all():
        assert [answer("=", key) for key in (3, 9)] == ["probe k"] * 2
        assert answer(">=", 6) == "range k"
        return table.paths.path(table, 0, ">=")

    def append(*ks):
        db.insert_rows("r", ({"k": k, "p": 1000 + n}
                             for n, k in enumerate(ks)))

    built = read_all()
    db.execute("INSERT INTO r VALUES (6, 400), (NULL, 401)")
    assert table.paths.path(table, 0, ">=") is built   # merged, not rebuilt
    assert built.keys == sorted(built.keys) and len(built.keys) == 201
    append(*[9] * 20)
    assert read_all() is built and len(built.keys) == 221
    # A compaction: over COMPACT_MIN_DELETED dead rows and a quarter of
    # the slots.  Slots are renumbered; row ids survive.
    last = max(table.slot_columns()[1])
    db.execute("DELETE FROM r WHERE p < 70")
    assert table.slot_columns()[1][last] < last
    read_all()
    append(6, 9, None)
    assert read_all() is not built
    built = table.paths.path(table, 0, ">=")
    db.execute("UPDATE r SET k = 8 WHERE p = 71")
    read_all()
    append(8, 3)
    assert read_all() is not built
    table.truncate()
    assert answer("=", 3) == answer(">=", 6) == ""
    append(3, 6, 1, 9)
    read_all()
    db.execute("DELETE FROM r")
    assert answer(">=", 0) == ""


@pytest.mark.parametrize("index", [None, "CREATE INDEX rk ON r (k)"],
                         ids=["unindexed", "indexed"])
def test_a_lookup_is_kept_up_by_an_update_or_delete_without_a_rebuild(
        monkeypatch, index):
    """An UPDATE moves a slot between buckets (or out, for NULL) and a
    DELETE that does not compact takes one out: the next probe reads the
    same lookup, never rebuilt, and answers as the forced scan does.  A
    compaction renumbers the slots and drops it.  A declared index over
    the column changes none of that."""
    from repro.relational import indexes
    builds = []
    real = indexes.build_lookup

    def lookup(values, slots, into=None):
        builds.append(into is None)
        return real(values, slots, into)
    monkeypatch.setattr(indexes, "build_lookup", lookup)
    db = Database()
    db.execute("CREATE TABLE r (k INTEGER, p INTEGER)")
    db.insert_rows("r", ({"k": n % 7, "p": n} for n in range(200)))
    if index is not None:
        db.execute(index)
    table = db.table("r")
    read = parsed("SELECT p FROM r WHERE k = ? ORDER BY p")

    def answer(key):
        result = db.execute_ast(read, (key,))
        with forced_scan():
            expected = db.query(f"SELECT p FROM r WHERE k = {key} "
                                "ORDER BY p").rows
        assert result.rows == expected
        assert next(node for node in result.plan.walk()
                    if node.kind == "scan").detail == "probe k"

    answer(3)
    assert builds == [True]                 # the read built the lookup
    built = table.paths.path(table, 0)
    db.execute("UPDATE r SET k = 3 WHERE p = 5")
    db.execute("UPDATE r SET k = 9 WHERE p = 10")
    db.execute("UPDATE r SET k = NULL WHERE p = 17")
    db.execute("UPDATE r SET k = 5 WHERE p = 40")
    db.execute("UPDATE r SET p = -1 WHERE p = 24")
    db.execute("DELETE FROM r WHERE p < 30 AND p <> 5")
    assert table._deleted_count == 29       # no compaction yet
    for key in (3, 9, 5, 0):
        answer(key)
    assert table.paths.path(table, 0) is built and builds == [True]
    columns, live = table.slot_columns()
    assert built == real(columns[0], live.values())
    db.execute("DELETE FROM r WHERE p < 120")
    assert len(table.slot_columns()[0][0]) < 200    # compacted
    answer(3)
    assert table.paths.path(table, 0) is not built
    assert builds == [True, True]


@pytest.mark.parametrize("column", ["k", "u", "id"])
def test_scans_and_index_joins_read_only_the_columns_lookup(
        monkeypatch, column):
    """A ``CREATE INDEX`` column (``k``), a UNIQUE one (``u``) and the
    PRIMARY KEY (``id``) answer ``=`` and ``IN (subquery)`` through the
    column's lookup under every drain, each as the forced scan does;
    an index join over the same table probes the same lookup.  A
    declared index has nothing to read: only a UNIQUE one stores its
    keys."""
    from repro.relational.indexes import ColumnPaths, HashIndex
    assert not hasattr(HashIndex, "lookup")
    calls = []
    real = ColumnPaths.path

    def path(store, relation, position, op="="):
        calls.append((relation.name, position, op))
        return real(store, relation, position, op)
    monkeypatch.setattr(ColumnPaths, "path", path)
    db = Database()
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, u INTEGER UNIQUE, "
               "k INTEGER, p INTEGER)")
    db.insert_rows("r", ({"id": n, "u": -n, "k": n % 50, "p": n}
                         for n in range(200)))
    db.execute("CREATE INDEX rk ON r (k)")
    db.execute("CREATE TABLE s (x INTEGER)")
    db.insert_rows("s", ({"x": x} for x in (3, -4, 7)))
    key = {"k": 3, "u": -4, "id": 7}[column]
    views = {"w": BoundView.of("w", ["c0"], [[3, -4, 7, 3]], [{int}])}
    for sql, detail in (
            (f"SELECT p FROM r WHERE {column} = ? ORDER BY p",
             f"probe {column}"),
            (f"SELECT p FROM r WHERE {column} IN (SELECT c0 FROM w) "
             "ORDER BY p", f"probe {column} IN")):
        values = (key,) * sql.count("?")
        with forced_scan():
            expected = drains(db, parsed(sql), values, views, 2)
        got = drains(db, parsed(sql), values, views, 2)
        assert got[0] == expected[0] and got[0]
        assert got[1] == expected[1]
        assert got[2][0] == expected[2][0]
        assert got[2][1].detail == detail
    position = ["id", "u", "k"].index(column)
    assert calls and set(calls) <= {("r", position, "="),
                                    ("r", position, "in")}
    assert db.table("r").indexes["rk"].keys == set()
    del calls[:]
    sql = f"SELECT s.x, r.p FROM s JOIN r ON r.{column} = s.x ORDER BY r.p"
    joined = db.explain(sql, analyze=True)
    assert "index-join" in {node.kind for node in joined.root.walk()}
    assert calls and set(calls) == {("r", position, "=")}
    assert [p for _x, p in db.query(sql).rows] == [
        n for n in range(200)
        if {"k": n % 50, "u": -n, "id": n}[column] in (3, -4, 7)]


#: ``(inner column, outer column)`` pairs an index join probes with keys
#: of another family, or numbers that only look equal: ``t.i`` holds
#: ``1``, ``t.r`` ``2**53`` and ``t.b`` ``TRUE``; ``o`` holds ``TRUE``,
#: ``1.0``, ``'1'``, ``1``, ``2**53 + 1``, ``2**53`` and NULLs.
HOSTILE = [("i", "b"), ("i", "f"), ("i", "s"), ("i", "n"), ("r", "big"),
           ("r", "n"), ("b", "n"), ("b", "b")]


def test_index_join_answers_as_the_hash_join_over_hostile_keys(
        forced_joins):
    """An index join reads its inner column's lookup, whose raw keys
    find ``TRUE`` under ``1``: forced on one database, it answers as the
    forced hash join does — for keys of another family, NULL, ``2**53 +
    1`` against a REAL ``2**53``, LEFT-join padding and a second equi
    pair checked per candidate — before and after writes that move a
    row into and out of a bucket, delete, compact and truncate."""
    from repro.planner import PlannerOptions
    big = 2 ** 53
    rows = ", ".join(f"({n}, {n % 10}, {big if n % 10 == 1 else n / 4}, "
                     f"{'TRUE' if n % 2 else 'FALSE'}, '{n % 10}')"
                     for n in range(200))
    db = Database(planner=PlannerOptions(enabled=False))
    db.execute_script(f"""
        CREATE TABLE t (id INTEGER, i INTEGER, r REAL, b BOOLEAN, s TEXT);
        INSERT INTO t VALUES {rows};
        CREATE TABLE o (tag INTEGER, n INTEGER, f REAL, s TEXT, b BOOLEAN,
                        big INTEGER);
        INSERT INTO o VALUES (0, 1, 1.0, '1', TRUE, {big + 1}),
                             (1, NULL, NULL, NULL, NULL, {big});
    """)
    queries = {
        f"SELECT o.tag, t.id FROM o {join} t ON {on} ORDER BY o.tag, t.id":
        inner
        for join in ("JOIN", "LEFT JOIN")
        for on, inner in [(f"t.{inner} = o.{outer}", inner)
                          for inner, outer in HOSTILE]
        + [("t.i = o.n AND t.s = o.s", "i")]}
    kept = {sql: (forced_joins(parsed(sql), "index-join"),
                  forced_joins(parsed(sql), "hash-join"))
            for sql in queries}

    def check(step: str) -> None:
        for sql, inner in queries.items():
            probed, hashed = kept[sql]
            got = db.execute_ast(probed, ())
            expected = db.execute_ast(hashed, ())
            assert got.rows == expected.rows, (step, sql)
            assert f"probe {inner}" in {node.detail
                                        for node in got.plan.walk()}
            assert "index-join" in {node.kind for node in got.plan.walk()}
            assert "hash-join" in {node.kind
                                   for node in expected.plan.walk()}

    check("loaded")
    table = db.table("t")
    for step in ("UPDATE t SET i = 1, r = 9007199254740992, b = TRUE, "
                 "s = '1' WHERE id = 7",
                 "UPDATE t SET i = 5, r = 0.5, b = FALSE, s = 'x' "
                 "WHERE id = 11",
                 "DELETE FROM t WHERE id = 21",
                 "DELETE FROM t WHERE id >= 110",
                 "DELETE FROM t",
                 f"INSERT INTO t VALUES {rows}"):
        db.execute(step)
        check(step)
        if step == "DELETE FROM t WHERE id >= 110":
            assert len(table.slot_columns()[0][0]) < 200    # compacted


#: Per declared type, the values of an exactness case: NULLs, and, drawn
#: with repeats, duplicates, ``1`` beside ``1.0``, ``0.0`` beside
#: ``-0.0`` and ``''``.
EXACT_POOLS = {
    "INTEGER": [None, 0, 1, 2, 5],
    "REAL": [None, 0.0, -0.0, 1, 1.0, 2.5],
    "TEXT": [None, "", "a", "b", "1"],
    "BOOLEAN": [None, True, False],
}
#: Every path kind, each operand order, a ``?`` and a literal; and
#: ``IN (subquery)``.  Each WHERE is the one conjunct a path answers.
EXACT_TEMPLATES = [
    f"SELECT p FROM r WHERE {left} {op} {right} ORDER BY p"
    for op in ("=", "<", "<=", ">", ">=")
    for value in ("?", "{literal}")
    for left, right in (("k", value), (value, "k"))
] + ["SELECT p FROM r WHERE k IN (SELECT c0 FROM w) ORDER BY p"]


def oracle_rows(data_type: str, keys: list, members: list, sql: str,
                values: tuple) -> list:
    """*sql* as stdlib sqlite3 answers it over ``r`` and ``w`` (the keys
    are of the column's family, so sqlite compares them as the engine
    does; a boolean is its integer there)."""
    oracle = sqlite3.connect(":memory:")
    oracle.execute(f"CREATE TABLE r (k {data_type}, p INTEGER)")
    oracle.execute("CREATE TABLE w (c0)")
    oracle.executemany("INSERT INTO r VALUES (?, ?)",
                       [(key, number) for number, key in enumerate(keys)])
    oracle.executemany("INSERT INTO w VALUES (?)",
                       [(member,) for member in members])
    return oracle.execute(sql, values).fetchall()


@settings(max_examples=500, deadline=None)
@given(data=st.data(), source=st.sampled_from(["table", "held view"]),
       data_type=st.sampled_from(sorted(EXACT_POOLS)),
       sql=st.sampled_from(EXACT_TEMPLATES))
def test_a_chosen_path_names_exactly_the_rows_its_conjunct_holds_for(
        generic_kernels, data, source, data_type, sql):
    """The conjunct a path answered is not tested again, so a path must
    name exactly the rows where its conjunct is TRUE.  One NULL row more
    than there are keys pads the relation — no path names one — so every
    path names at most half the rows, and a run takes it unless it
    declines."""
    pool = EXACT_POOLS[data_type]
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=10),
                     label="keys")
    keys += [None] * (len(keys) + 1)
    key = data.draw(st.sampled_from(pool), label="key")
    members = data.draw(st.lists(st.sampled_from(pool), max_size=4),
                        label="members")
    sql = sql.format(literal=render_literal(key))
    values = (key,) * sql.count("?")
    db, views = relation(source, data_type, keys, members)
    result = db.execute_ast(parsed(sql), values, views)
    scan = next(node for node in result.plan.walk() if node.label == "r")
    with forced_scan(), generic_kernels():
        reference, reference_views = relation(source, data_type, keys,
                                              members)
        holds = reference.execute_ast(parsed(sql), values,
                                      reference_views).rows
    assert result.rows == holds == oracle_rows(
        data_type, keys, members, sql.replace("TRUE", "1")
        .replace("FALSE", "0"), values)
    event(scan.detail or "scan")
    if scan.detail:
        # Only the filter above tested nothing: what the scan read, the
        # slots the path named, are the rows where the conjunct holds.
        assert scan.actual_rows == len(holds)
