"""End-to-end SELECT execution: filters, joins, grouping, set ops, NULLs."""

import re
import sqlite3

import pytest

from repro.relational import (AmbiguousColumnError, Database, ExecutionError,
                              UnknownColumnError)


def rows(db, sql):
    return db.query(sql).rows


def test_select_without_from(db):
    assert rows(db, "SELECT 1 + 2, 'x' || 'y'") == [(3, "xy")]


def test_where_filters_and_projection(landfill_db):
    assert rows(landfill_db,
                "SELECT name FROM landfill WHERE city = 'Torino' "
                "ORDER BY name") == [("a",), ("c",)]


def test_unknown_column_raises(landfill_db):
    with pytest.raises(UnknownColumnError):
        landfill_db.query("SELECT nope FROM landfill")


def test_ambiguous_column_raises(landfill_db):
    with pytest.raises(AmbiguousColumnError):
        landfill_db.query(
            "SELECT name FROM landfill a, landfill b")


def test_qualified_columns_disambiguate(landfill_db):
    result = rows(landfill_db,
                  "SELECT a.name FROM landfill a, landfill b "
                  "WHERE a.id = 1 AND b.id = 2")
    assert result == [("a",)]


def test_inner_join_on_equality(landfill_db):
    result = rows(landfill_db, """
        SELECT l.name, e.elem_name
        FROM landfill l JOIN elem_contained e ON l.name = e.landfill_name
        WHERE e.elem_name = 'Mercury' ORDER BY l.name""")
    assert result == [("a", "Mercury"), ("b", "Mercury")]


def test_left_join_pads_with_nulls(landfill_db):
    result = rows(landfill_db, """
        SELECT l.name, e.elem_name
        FROM landfill l LEFT JOIN elem_contained e
            ON l.name = e.landfill_name AND e.elem_name = 'Lead'
        ORDER BY l.name""")
    assert result == [("a", None), ("b", None), ("c", "Lead"), ("d", None)]


def test_join_null_keys_never_match(db):
    db.execute("CREATE TABLE t (a TEXT)")
    db.execute("CREATE TABLE u (a TEXT)")
    db.execute("INSERT INTO t VALUES (NULL), ('x')")
    db.execute("INSERT INTO u VALUES (NULL), ('x')")
    assert rows(db, "SELECT * FROM t JOIN u ON t.a = u.a") == [("x", "x")]


def test_non_equi_join_nested_loop(landfill_db):
    result = rows(landfill_db, """
        SELECT a.id, b.id FROM landfill a JOIN landfill b ON a.id < b.id
        WHERE a.id <= 2 AND b.id <= 2""")
    assert result == [(1, 2)]


def test_cross_join_cardinality(landfill_db):
    result = rows(landfill_db,
                  "SELECT COUNT(*) FROM landfill, elem_contained")
    assert result == [(4 * 7,)]


def test_self_join_with_aliases_example_46_shape(landfill_db):
    # The join pattern of paper Example 4.6 (without enrichment).
    result = rows(landfill_db, """
        SELECT Elecond1.landfill_name AS l_name1,
               Elecond2.landfill_name AS l_name2,
               Elecond1.elem_name
        FROM elem_contained AS Elecond1, elem_contained AS Elecond2
        WHERE Elecond1.elem_name = Elecond2.elem_name
          AND Elecond1.landfill_name < Elecond2.landfill_name
        ORDER BY 1, 2, 3""")
    assert result == [("a", "b", "Mercury"), ("a", "c", "Iron")]


def test_group_by_with_having(landfill_db):
    result = rows(landfill_db, """
        SELECT landfill_name, COUNT(*) AS n, SUM(amount) AS total
        FROM elem_contained GROUP BY landfill_name
        HAVING COUNT(*) >= 2 ORDER BY n DESC, landfill_name""")
    assert result == [("a", 3, 155.5), ("b", 2, 62.25), ("c", 2, 229.0)]


def test_group_by_ordinal_and_alias(landfill_db):
    by_ordinal = rows(landfill_db,
                      "SELECT city, COUNT(*) FROM landfill GROUP BY 1 "
                      "ORDER BY 1")
    by_alias = rows(landfill_db,
                    "SELECT city AS c, COUNT(*) FROM landfill GROUP BY c "
                    "ORDER BY c")
    assert by_ordinal == by_alias


def test_global_aggregate_on_empty_table(db):
    db.execute("CREATE TABLE empty (x INTEGER)")
    assert rows(db, "SELECT COUNT(*), SUM(x), MIN(x) FROM empty") == [
        (0, None, None)]


def test_aggregate_ignores_nulls(landfill_db):
    result = rows(landfill_db,
                  "SELECT COUNT(city), COUNT(*) FROM landfill")
    assert result == [(3, 4)]


def test_count_distinct(landfill_db):
    result = rows(landfill_db,
                  "SELECT COUNT(DISTINCT city) FROM landfill")
    assert result == [(2,)]


def test_non_grouped_column_rejected(landfill_db):
    with pytest.raises(ExecutionError):
        landfill_db.query(
            "SELECT name, COUNT(*) FROM landfill GROUP BY city")


def test_order_by_nulls_placement(landfill_db):
    ascending = rows(landfill_db,
                     "SELECT city FROM landfill ORDER BY city, id")
    assert ascending[-1] == (None,)
    descending = rows(landfill_db,
                      "SELECT city FROM landfill ORDER BY city DESC, id")
    assert descending[0] == (None,)


def test_limit_offset(landfill_db):
    result = rows(landfill_db,
                  "SELECT id FROM landfill ORDER BY id LIMIT 2 OFFSET 1")
    assert result == [(2,), (3,)]


def test_distinct_rows(landfill_db):
    result = rows(landfill_db,
                  "SELECT DISTINCT city FROM landfill ORDER BY city")
    assert result == [("Lyon",), ("Torino",), (None,)]
    # A term naming a select item sorts by its output column.
    for order in ("1", "c"):
        assert rows(landfill_db, "SELECT DISTINCT city AS c FROM landfill "
                                 f"ORDER BY {order}") == result


def test_union_dedupes_union_all_keeps(landfill_db):
    union = rows(landfill_db,
                 "SELECT city FROM landfill UNION SELECT city FROM landfill")
    union_all = rows(landfill_db, """
        SELECT city FROM landfill UNION ALL SELECT city FROM landfill""")
    assert len(union) == 3
    assert len(union_all) == 8


@pytest.mark.parametrize("order", ["1", "2 DESC", "1, 2"])
def test_compound_order_by_ordinal_over_a_repeated_name(order):
    """A compound's ORDER BY ordinal names a result column by position,
    also when two result columns share a name (sqlite3 is the oracle)."""
    sql = ("SELECT t.a, u.a FROM t, u UNION SELECT 5, 0 "
           f"ORDER BY {order}")
    db, oracle = Database(), sqlite3.connect(":memory:")
    for con in (db, oracle):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("CREATE TABLE u (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (7)")
        con.execute("INSERT INTO u VALUES (2), (3)")
    assert db.query(sql).rows == oracle.execute(sql).fetchall()


def test_intersect_and_except(landfill_db):
    intersect = rows(landfill_db, """
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        INTERSECT
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'""")
    assert intersect == [("Mercury",)]
    except_rows = rows(landfill_db, """
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        EXCEPT
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'
        ORDER BY elem_name""")
    assert except_rows == [("Asbestos",), ("Iron",)]


def test_scalar_subquery(landfill_db):
    result = rows(landfill_db, """
        SELECT name, (SELECT COUNT(*) FROM elem_contained e
                      WHERE e.landfill_name = landfill.name) AS n
        FROM landfill ORDER BY name""")
    assert result == [("a", 3), ("b", 2), ("c", 2), ("d", 0)]


def test_scalar_subquery_multiple_rows_raises(landfill_db):
    with pytest.raises(ExecutionError):
        landfill_db.query(
            "SELECT (SELECT elem_name FROM elem_contained)")


def test_correlated_exists(landfill_db):
    result = rows(landfill_db, """
        SELECT name FROM landfill l
        WHERE EXISTS (SELECT 1 FROM elem_contained e
                      WHERE e.landfill_name = l.name
                        AND e.elem_name = 'Iron')
        ORDER BY name""")
    assert result == [("a",), ("c",)]


def test_not_in_with_null_semantics(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    db.execute("CREATE TABLE u (x INTEGER)")
    db.execute("INSERT INTO u VALUES (1), (NULL)")
    # 2 NOT IN (1, NULL) is unknown, so no rows pass.
    assert rows(db, "SELECT x FROM t WHERE x NOT IN (SELECT x FROM u)") == []


def test_in_subquery(landfill_db):
    result = rows(landfill_db, """
        SELECT DISTINCT landfill_name FROM elem_contained
        WHERE elem_name IN (SELECT elem_name FROM elem_contained
                            WHERE landfill_name = 'c')
        ORDER BY landfill_name""")
    assert result == [("a",), ("c",)]


def test_subquery_in_from(landfill_db):
    result = rows(landfill_db, """
        SELECT s.city, s.n FROM
          (SELECT city, COUNT(*) AS n FROM landfill GROUP BY city) AS s
        WHERE s.n > 1""")
    assert result == [("Torino", 2)]


def test_three_valued_logic_in_where(landfill_db):
    # city = NULL comparison is unknown -> filtered out, not an error.
    assert rows(landfill_db,
                "SELECT name FROM landfill WHERE city = NULL") == []


def test_between(landfill_db):
    result = rows(landfill_db,
                  "SELECT name FROM landfill WHERE area BETWEEN 50 AND 130 "
                  "ORDER BY name")
    assert result == [("a",), ("b",)]


def test_like_wildcards(landfill_db):
    result = rows(landfill_db, """
        SELECT DISTINCT elem_name FROM elem_contained
        WHERE elem_name LIKE '_e%' ORDER BY elem_name""")
    assert result == [("Lead",), ("Mercury",)]


def test_division_by_zero_raises(db):
    with pytest.raises(ExecutionError):
        db.query("SELECT 1 / 0")


def test_integer_division_truncates(db):
    assert rows(db, "SELECT 7 / 2, -7 / 2, 7.0 / 2") == [(3, -3, 3.5)]


def test_order_by_expression(landfill_db):
    result = rows(landfill_db,
                  "SELECT name FROM landfill WHERE area IS NOT NULL "
                  "ORDER BY area * -1")
    assert result == [("a",), ("b",), ("c",)]


def test_case_expression_in_projection(landfill_db):
    result = rows(landfill_db, """
        SELECT name, CASE WHEN area > 100 THEN 'big'
                          WHEN area > 50 THEN 'mid'
                          ELSE 'small' END
        FROM landfill WHERE area IS NOT NULL ORDER BY name""")
    assert result == [("a", "big"), ("b", "mid"), ("c", "small")]


def test_duplicate_alias_rejected(landfill_db):
    with pytest.raises(Exception):
        landfill_db.query("SELECT * FROM landfill a, landfill a")


# -- the operator tree ---------------------------------------------------------


def test_float_collapsed_keys_are_told_apart_by_every_path(db):
    # Float keys would collapse integers beyond 2**53.  The column's
    # lookup answers `=` whatever index covers it; the lookup, the
    # table's own sorted path and a declared index keep the keys exact,
    # and the WHERE above the scan decides.
    db.execute_script("""
        CREATE TABLE t (k INTEGER, v TEXT);
        INSERT INTO t VALUES (9007199254740992,'a'),(9007199254740993,'b'),
                             (1, 'c'), (2, 'd'), (3, 'e');
        CREATE INDEX ix ON t (k) USING sorted;
    """)
    point = "SELECT v FROM t WHERE k = 9007199254740993"
    result = db.query(point)
    assert "probe k" in result.plan.format()
    assert result.rows == [("b",)]
    result = db.query("SELECT v FROM t WHERE k >= 9007199254740993")
    assert "range k" in result.plan.format()
    assert result.rows == [("b",)]
    db.execute("CREATE INDEX hx ON t (k)")
    result = db.query(point)
    assert "probe k" in result.plan.format()
    assert result.rows == [("b",)]


@pytest.mark.parametrize("planner_on", [True, False])
def test_set_op_columns_mixing_type_families_stay_on_generic_kernels(
        planner_on):
    # A set operation's column is untyped, whatever its first operand
    # says: over mixed families raw ``==`` / ``<`` / hashing (1 == True)
    # differ from SQL comparison, so masks, typed group keys and column
    # folds must not run on it.
    from repro.planner import PlannerOptions
    from repro.relational.errors import TypeMismatchError
    db = Database(planner=PlannerOptions(enabled=planner_on))
    db.execute_script("""
        CREATE TABLE a (i INTEGER, b BOOLEAN, s TEXT);
        INSERT INTO a VALUES (1, TRUE, 'x'), (2, FALSE, 'y');
    """)
    bools = "(SELECT i AS k FROM a UNION {} SELECT b FROM a) d"
    texts = "(SELECT i AS k FROM a UNION ALL SELECT s FROM a) d"
    assert db.query(f"SELECT k FROM {bools.format('')} WHERE k = 1"
                    ).rows == [(1,)]
    assert db.query(f"SELECT k FROM {bools.format('ALL')} WHERE k IN (1, 2)"
                    ).rows == [(1,), (2,)]
    assert db.query(f"SELECT k, COUNT(*) FROM {bools.format('ALL')} "
                    "GROUP BY k").rows == [
        (1, 1), (2, 1), (True, 1), (False, 1)]
    assert db.query(f"SELECT COUNT(DISTINCT k) FROM {bools.format('ALL')}"
                    ).rows == [(4,)]
    assert db.query("SELECT i FROM (SELECT * FROM a UNION "
                    "SELECT b, b, b FROM a) d WHERE i = 1").rows == [(1,)]
    for select in ("k FROM {} WHERE k < 3", "MIN(k) FROM {}",
                   "MAX(k) FROM {}", "SUM(k) FROM {}"):
        with pytest.raises(TypeMismatchError):
            db.query("SELECT " + select.format(texts))


@pytest.fixture(scope="module")
def shapes_db():
    database = Database()
    database.execute_script("""
        CREATE TABLE big (id INTEGER, grp TEXT, v REAL, tag_id INTEGER);
        CREATE TABLE tag (id INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE note (tag_id INTEGER, body TEXT);
    """)
    database.insert_rows("big", (
        {"id": i, "grp": f"g{i % 7}", "v": float((i * 37) % 101),
         "tag_id": i % 13 if i % 5 else None} for i in range(500)))
    database.execute("DELETE FROM big WHERE id % 11 = 3")
    database.insert_rows("tag", ({"id": i, "name": f"t{i}"}
                                 for i in range(10)))
    database.insert_rows("note", ({"tag_id": i % 12, "body": f"n{i}"}
                                  for i in range(40)))
    return database


SHAPES = [
    "SELECT * FROM big",
    "SELECT id, v FROM big WHERE v > 40.0 AND grp <> 'g3'",
    "SELECT id FROM big WHERE v * 2.0 > 90.0 AND id < 400",
    "SELECT grp, COUNT(*), SUM(v), MIN(id) FROM big GROUP BY grp",
    "SELECT grp, COUNT(DISTINCT tag_id) FROM big WHERE v < 80.0 "
    "GROUP BY grp HAVING COUNT(*) > 10",
    "SELECT DISTINCT grp, tag_id FROM big",
    "SELECT id, v FROM big ORDER BY v DESC, id LIMIT 25 OFFSET 5",
    "SELECT id FROM big LIMIT 9 OFFSET 440",
    "SELECT big.id, tag.name FROM big JOIN tag ON big.tag_id = tag.id "
    "WHERE big.v > 50.0",
    "SELECT big.id, tag.name, note.body FROM big "
    "LEFT JOIN tag ON big.tag_id = tag.id "
    "LEFT JOIN note ON note.tag_id = tag.id WHERE big.id < 60",
    "SELECT grp FROM big WHERE id < 20 UNION SELECT name FROM tag",
    "SELECT id FROM big WHERE tag_id IN (SELECT id FROM tag WHERE id > 6)",
    "SELECT big.id, note.body FROM big JOIN note "
    "ON big.tag_id = note.tag_id AND big.id > note.tag_id * 30",
    "SELECT big.id, note.body FROM big LEFT JOIN note "
    "ON big.tag_id + 0 = note.tag_id WHERE big.id < 90",
    "SELECT grp, tag_id, v, id FROM big "
    "ORDER BY grp DESC, tag_id, v * -1.0, id DESC",
    "SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY n DESC, grp",
    "SELECT 1",
    "SELECT DISTINCT 1 FROM big",
    "SELECT 1 FROM big GROUP BY grp",
    "SELECT 1 FROM big LIMIT 3 OFFSET 2",
    "SELECT 1 WHERE EXISTS (SELECT 1 FROM tag)",
    "SELECT grp FROM big WHERE id < 300 INTERSECT SELECT grp FROM big "
    "WHERE v > 50.0",
    "SELECT tag_id FROM big EXCEPT SELECT id FROM tag WHERE id < 4",
    "SELECT grp FROM big WHERE id < 40 UNION SELECT name FROM tag "
    "UNION SELECT body FROM note",
    "SELECT id, (SELECT MAX(id) FROM tag) FROM big WHERE id < 30",
]


@pytest.mark.parametrize("sql", SHAPES)
def test_batch_size_never_changes_rows_or_order(shapes_db, monkeypatch, sql):
    from repro.relational import batch
    results = {}
    for size in (1, 7, 2048):
        monkeypatch.setattr(batch, "BATCH_SIZE", size)
        results[size] = shapes_db.query(sql).rows
    assert results[2048]
    assert results[1] == results[7] == results[2048]


def _counts(planned):
    return {(node.kind, node.label): node.actual_rows
            for node in planned.root.walk()}


def test_explain_analyze_counts_match_independent_counts(shapes_db):
    big = list(shapes_db.table("big").rows())
    masked = [row for row in big if row[2] > 40.0]            # kernel
    kept = [row for row in masked if (row[0] * 3) % 7 < 4]    # residual
    planned = shapes_db.explain(
        "SELECT id FROM big WHERE v > 40.0 AND (id * 3) % 7 < 4",
        analyze=True)
    where = next(node for node in planned.root.walk()
                 if node.kind == "filter")
    assert where.vectorized and where.fallbacks   # a hybrid filter
    assert _counts(planned) == {
        ("result", "select"): len(kept), ("project", "id"): len(kept),
        ("filter", "WHERE"): len(kept), ("scan", "big"): len(big)}

    tags = {row[0]: row for row in shapes_db.table("tag").rows()}
    notes = list(shapes_db.table("note").rows())
    first = [row for row in big if row[3] in tags]
    second = [(row, note) for row in first for note in notes
              if note[0] == row[3]]
    shapes_db.planner = shapes_db.planner.replace(enabled=False)
    try:
        planned = shapes_db.explain(
            "SELECT big.id, note.body FROM big "
            "JOIN tag ON big.tag_id = tag.id "
            "JOIN note ON note.tag_id = tag.id", analyze=True)
    finally:
        shapes_db.planner = shapes_db.planner.replace(enabled=True)
    assert _counts(planned) == {
        ("result", "select"): len(second),
        ("project", "id, body"): len(second),
        ("hash-join", "to note"): len(second),
        ("hash-join", "to tag"): len(first),
        ("scan", "big"): len(big), ("scan", "tag"): len(tags),
        ("scan", "note"): len(notes)}


# -- the hash join's raw-key kernel and the sort's native keys ----------------


@pytest.fixture
def keys_db(db):
    """One row per interesting key value, in four typed columns."""
    db.execute_script("""
        CREATE TABLE l (tag TEXT, i INTEGER, r REAL, t TEXT, b BOOLEAN);
        CREATE TABLE r (tag TEXT, i INTEGER, r REAL, t TEXT, b BOOLEAN);
    """)
    big = 2 ** 53
    db.insert_rows("l", [
        {"tag": "one", "i": 1, "r": 1.0, "t": "1", "b": True},
        {"tag": "big", "i": big + 1, "r": float(big), "t": "x", "b": False},
        {"tag": "null", "i": None, "r": None, "t": None, "b": None}])
    db.insert_rows("r", [
        {"tag": "one", "i": 1, "r": 1.0, "t": "1", "b": True},
        {"tag": "one again", "i": 1, "r": 1.0, "t": "1", "b": True},
        {"tag": "big", "i": big + 1, "r": float(big), "t": "x", "b": False},
        {"tag": "null", "i": None, "r": None, "t": None, "b": None}])
    return db


def _join(db, on, join="JOIN"):
    result = db.query(f"SELECT l.tag, r.tag FROM l {join} r ON {on}")
    hash_join = [node for node in result.plan.walk()
                 if node.kind == "hash-join"]
    assert len(hash_join) == 1
    return result.rows, hash_join[0].vectorized


def test_raw_key_join_equates_integer_and_real_exactly(keys_db):
    # 1 = 1.0 joins (both duplicates); 2**53 + 1 is not float(2**53),
    # which coercing the keys to float would make it.
    rows, vectorized = _join(keys_db, "l.i = r.r")
    assert vectorized
    assert rows == [("one", "one"), ("one", "one again")]
    rows, vectorized = _join(keys_db, "l.i = r.i")
    assert vectorized
    assert rows == [("one", "one"), ("one", "one again"), ("big", "big")]


def test_join_keys_of_different_families_never_match(keys_db):
    # TRUE = 1 and '1' = 1 are false in SQL though Python's dict would
    # equate True and 1: such pairs stay on normalised keys.
    for on in ("l.b = r.i", "l.i = r.b", "l.t = r.i", "l.i = r.t"):
        rows, vectorized = _join(keys_db, on)
        assert not vectorized, on
        assert rows == [], on
    rows, vectorized = _join(keys_db, "l.b = r.b")
    assert vectorized
    assert rows == [("one", "one"), ("one", "one again"), ("big", "big")]


def test_null_join_keys_match_nothing_and_left_pad(keys_db):
    for on in ("l.i = r.i", "l.i = r.i AND l.t = r.t", "l.i + 0 = r.i"):
        rows, _vectorized = _join(keys_db, on, "LEFT JOIN")
        assert rows == [("one", "one"), ("one", "one again"),
                        ("big", "big"), ("null", None)], on


def test_boolean_stored_in_integer_column_is_an_integer(keys_db):
    # coerce_value admits no bool into an INTEGER column, so the raw-key
    # dict of an INTEGER join never holds one: TRUE is stored as 1 and
    # joins 1 like any other integer.
    keys_db.execute("INSERT INTO l VALUES ('coerced', TRUE, 0.0, '', FALSE)")
    stored = keys_db.query("SELECT i FROM l WHERE tag = 'coerced'").rows
    assert stored == [(1,)] and type(stored[0][0]) is int
    rows, vectorized = _join(keys_db, "l.i = r.i")
    assert vectorized
    assert ("coerced", "one") in rows


def test_a_stored_nan_reads_back_null_and_sorts_natively(db, generic_kernels):
    # NaN is NULL, as in sqlite: the REAL column stores NULL, so its
    # key column is one family and the sort stays on native values.
    db.execute("CREATE TABLE t (id INTEGER, v REAL)")
    db.insert_rows("t", [{"id": 1, "v": 2.0}, {"id": 2, "v": float("nan")},
                         {"id": 3, "v": 1.0}, {"id": 4, "v": None}])
    db.table("t").append_rows([(5, float("nan"))])
    assert db.query("SELECT id FROM t WHERE v IS NULL").rows \
        == [(2,), (4,), (5,)]
    result = db.query("SELECT id FROM t ORDER BY v, id")
    assert result.rows == [(3,), (1,), (2,), (4,), (5,)]
    sort = next(node for node in result.plan.walk() if node.kind == "sort")
    assert sort.vectorized
    with generic_kernels():
        assert db.query("SELECT id FROM t ORDER BY v, id").rows \
            == result.rows
    clean = db.query("SELECT id FROM t WHERE id < 5 AND id <> 2 "
                     "ORDER BY v DESC, id")
    assert clean.rows == [(4,), (1,), (3,)]
    assert next(node for node in clean.plan.walk()
                if node.kind == "sort").vectorized


def test_explain_marks_join_and_sort_kernels(keys_db, generic_kernels):
    sql = "SELECT l.tag FROM l JOIN r ON l.i = r.i ORDER BY l.r DESC, l.tag"
    planned = keys_db.explain(sql)
    marked = {node.kind for node in planned.root.walk() if node.vectorized}
    assert {"sort", "hash-join"} <= marked
    text = planned.format()
    assert re.search(r"hash-join to \w+  \(est=[^)]*, vectorized\)", text)
    assert re.search(r"sort l\.r DESC, l\.tag  \([^)]*vectorized\)", text)
    assert {"sort", "hash-join"} <= keys_db.query(sql).plan.vectorized_ops
    with generic_kernels():
        assert keys_db.explain(sql).root.vectorized_ops == {"scan"}
        assert keys_db.query(sql).plan.vectorized_ops == {"scan"}


def test_limit_and_point_probe_estimates(db):
    """LIMIT caps the estimate it passes up; a WHERE point probe is
    estimated from the statistics catalog, not as the whole table."""
    from repro.telemetry import Telemetry, TelemetryOptions
    db.execute("CREATE TABLE e (name TEXT, amount REAL)")
    db.insert_rows("e", ({"name": f"m{i % 20}", "amount": float(i)}
                         for i in range(1000)))
    db.execute("CREATE INDEX idx_e_name ON e (name)")
    top = "SELECT name, amount FROM e WHERE name = 'm3' " \
          "ORDER BY amount DESC LIMIT 10"
    # Not ANALYZEd: the WHERE's estimate is unset, the LIMIT still caps.
    text = db.explain(top, analyze=True).format()
    assert "limit 10  (est=10, actual=10)" in text
    assert "filter WHERE  (actual=50, vectorized, answered by probe name)" \
        in text
    assert "scan e  (est=1000, actual=50, vectorized, probe name)" in text
    db.execute("ANALYZE")
    text = db.explain(top, analyze=True).format()
    assert "limit 10  (est=10, actual=10)" in text
    assert "filter WHERE  (est=50, actual=50, vectorized, " \
        "answered by probe name)" in text
    assert "scan e  (est=1000, actual=50, vectorized, probe name)" in text
    # A bound only known at run time leaves the estimate unset.
    text = db.explain(top.replace("10", "5 + 5")).format()
    assert "limit (5 + 5)\n" in text
    # A LIMIT larger than its input passes the input's estimate on.
    text = db.explain(top.replace("10", "500")).format()
    assert "limit 500  (est=50)" in text

    telemetry = Telemetry(TelemetryOptions())
    db.attach_telemetry(telemetry)
    db.query(top)
    db.query("SELECT amount FROM e WHERE name = 'm7'")
    series = telemetry.metrics.to_dict()[
        "repro_planner_estimate_ratio"]["series"][0]
    assert series["count"] == 2
    # (10 + 1) / (10 + 1) and (50 + 1) / (50 + 1): both exact.
    assert series["sum"] == pytest.approx(2.0)


# -- WHERE-side subquery predicates as semi / anti joins -------------------------


@pytest.fixture
def witness_db(db):
    db.execute_script("""
        CREATE TABLE e (z INTEGER, t TEXT);
        CREATE TABLE b (y INTEGER, f TEXT);
        INSERT INTO e VALUES (1, 'a'), (2, 'b'), (NULL, 'c'), (4, 'd');
        INSERT INTO b VALUES (1, 'x'), (4, 'd'), (5, NULL);
    """)
    return db


def _join_kinds(plan):
    return [node.kind for node in plan.walk()
            if node.kind in ("semi-join", "anti-join")]


def _both_paths(db, generic_kernels, sql):
    """The rows of *sql*, which the semi-join and the closure path must
    agree on, and the semi / anti joins the default engine ran."""
    result = db.query(sql)
    with generic_kernels():
        reference = db.query(sql)
        assert _join_kinds(reference.plan) == []
    assert result.rows == reference.rows, sql
    return result.rows, _join_kinds(result.plan)


def test_in_subquery_arity_is_checked_at_build_time(db, generic_kernels):
    """Used to be checked per outer row — so never over an empty table."""
    db.execute("CREATE TABLE e (z INTEGER)")
    db.execute("CREATE TABLE b (y INTEGER, f TEXT)")
    db.execute("INSERT INTO b VALUES (1, 'x')")
    for sql, message in [
            ("SELECT z FROM e WHERE z IN (SELECT y, f FROM b)",
             "IN subquery must return exactly one column"),
            ("SELECT z FROM e WHERE z = 1 OR z IN (SELECT y, f FROM b)",
             "IN subquery must return exactly one column"),
            ("SELECT z FROM e WHERE z = (SELECT y, f FROM b)",
             "scalar subquery must return exactly one column")]:
        with pytest.raises(ExecutionError, match=message):
            db.query(sql)
        with generic_kernels(), pytest.raises(ExecutionError, match=message):
            db.query(sql)


def test_not_in_is_null_aware_on_both_paths(witness_db, generic_kernels):
    check = lambda sql: _both_paths(witness_db, generic_kernels, sql)  # noqa
    # A NULL on the build side rejects every row ...
    assert check("SELECT z FROM e WHERE t NOT IN (SELECT f FROM b)") \
        == ([], ["anti-join"])
    # ... an empty build side passes every row, NULL z included ...
    assert check("SELECT z FROM e WHERE z NOT IN "
                 "(SELECT y FROM b WHERE y > 100)") \
        == ([(1,), (2,), (None,), (4,)], ["anti-join"])
    # ... and against values, a NULL z is unknown.
    assert check("SELECT z FROM e WHERE z NOT IN (SELECT y FROM b)") \
        == ([(2,)], ["anti-join"])
    assert check("SELECT z FROM e WHERE NOT (z IN (SELECT y FROM b))") \
        == ([(2,)], ["anti-join"])
    # x IN (empty) is false, not unknown, also for a NULL x.
    assert check("SELECT t FROM e WHERE NOT (z IN "
                 "(SELECT y FROM b WHERE y > 100)) ORDER BY t") \
        == ([("a",), ("b",), ("c",), ("d",)], ["anti-join"])
    # NOT EXISTS is the plain anti join: a NULL key has no match.
    assert check("SELECT z FROM e WHERE NOT EXISTS "
                 "(SELECT 1 FROM b WHERE b.y = e.z)") \
        == ([(2,), (None,)], ["anti-join"])
    # Families never mix: no TEXT is IN a set of integers.
    assert check("SELECT z FROM e WHERE t IN (SELECT y FROM b)") \
        == ([], ["semi-join"])
    assert check("SELECT z FROM e WHERE t NOT IN (SELECT y FROM b)") \
        == ([(1,), (2,), (None,), (4,)], ["anti-join"])


def test_exists_resolves_names_as_the_subquery_does(witness_db,
                                                    generic_kernels):
    check = lambda sql: _both_paths(witness_db, generic_kernels, sql)  # noqa
    # The inner alias shadows the outer table of the same name: e.z =
    # e.z is inner-only, so there is no key and the closure keeps it.
    assert check("SELECT z FROM e WHERE EXISTS "
                 "(SELECT 1 FROM b e WHERE e.y = e.y)") \
        == ([(1,), (2,), (None,), (4,)], [])
    # Unqualified names: y and f are the inner table's, z and t outer.
    assert check("SELECT z FROM e WHERE EXISTS "
                 "(SELECT 1 FROM b WHERE y = z AND f <> t)") \
        == ([(1,)], ["semi-join"])
    # A second table of the outer query under the inner table's name.
    assert check("SELECT e.z FROM e JOIN b ON e.z = b.y WHERE EXISTS "
                 "(SELECT 1 FROM b WHERE b.y = e.z AND b.f = e.t)") \
        == ([(4,)], ["semi-join"])
    # Inner-only conjuncts stay in the subquery, outer-only ones become
    # the residual.
    rows_, kinds = check(
        "SELECT z FROM e WHERE EXISTS (SELECT 1 FROM b WHERE b.y = e.z "
        "AND b.f IS NOT NULL AND e.t <> 'a')")
    assert (rows_, kinds) == ([(4,)], ["semi-join"])


def test_what_the_selector_declines_stays_on_the_closure(witness_db,
                                                         generic_kernels):
    declined = {
        "z = 2 OR z IN (SELECT y FROM b)": "subquery predicate under OR",
        "z IN (SELECT y FROM b WHERE b.f = e.t)": "correlated IN subquery",
        "EXISTS (SELECT 1 FROM b WHERE b.y < e.z)":
            "correlated without an equality",
        "EXISTS (SELECT 1 FROM b WHERE b.y = e.z LIMIT 1)":
            "subquery has LIMIT",
        "EXISTS (SELECT MAX(y) FROM b WHERE b.y = e.z)":
            "subquery aggregates",
        "EXISTS (SELECT 1 FROM b JOIN b c ON b.y = c.y WHERE b.y = e.z)":
            "subquery does not read exactly one table",
    }
    for predicate, reason in declined.items():
        sql = f"SELECT z FROM e WHERE {predicate}"
        _rows, kinds = _both_paths(witness_db, generic_kernels, sql)
        assert kinds == [], sql
        fallbacks = witness_db.query(sql).plan.vectorized_fallbacks
        assert reason in [why for _expr, why in fallbacks], sql
    # Neither the select list nor HAVING is the selector's business.
    for sql in ["SELECT z IN (SELECT y FROM b) FROM e",
                "SELECT t, COUNT(*) FROM e GROUP BY t "
                "HAVING 1 IN (SELECT y FROM b)"]:
        assert _both_paths(witness_db, generic_kernels, sql)[1] == []
    # The paper's own rewrite is no fallback.
    sql = "SELECT z FROM e WHERE z IN (SELECT y FROM b) AND t <> 'q'"
    assert witness_db.query(sql).plan.vectorized_fallbacks == []


@pytest.fixture
def guarded_db(db):
    db.execute_script("""
        CREATE TABLE e (id INTEGER, a INTEGER, b INTEGER, t TEXT);
        CREATE TABLE s (x INTEGER);
        INSERT INTO e VALUES (1, 4, 2, '1'), (2, 6, 3, '2'), (3, 5, 0, 'x');
        INSERT INTO s VALUES (2), (1);
    """)
    return db


@pytest.mark.parametrize("where, expected", [
    # A conjunct keeps guarding the one it guarded in the filter.
    ("b <> 0 AND a / b IN (SELECT x FROM s)", [(1,), (2,)]),
    ("b + 0 <> 0 AND a / b IN (SELECT x FROM s)", [(1,), (2,)]),
    ("t <> 'x' AND CAST(t AS INTEGER) IN (SELECT x FROM s)", [(1,), (2,)]),
    ("b <> 0 AND a / b NOT IN (SELECT x + 5 FROM s)", [(1,), (2,)]),
    ("b <> 0 AND EXISTS (SELECT 1 FROM s WHERE s.x = e.a / e.b)",
     [(1,), (2,)]),
    # ... and the semi join guards what is written after it.
    ("t IN (SELECT CAST(x AS TEXT) FROM s) AND CAST(t AS INTEGER) + 0 > 0",
     [(1,), (2,)]),
    ("id NOT IN (SELECT x + 2 FROM s) AND 10 / b > 1", [(1,), (2,)]),
    # A guard inside the EXISTS: the key behind it stays in the residual.
    ("EXISTS (SELECT 1 FROM s WHERE e.b <> 0 AND s.x = e.a / e.b)",
     [(1,), (2,)]),
    # A subquery no row reaches is not run.
    ("id = 99 AND a IN (SELECT 1 / 0 FROM s)", []),
    ("id = 99 AND a NOT IN (SELECT 1 / 0 FROM s)", []),
    ("id = 99 AND EXISTS (SELECT 1 FROM s WHERE s.x = e.a AND 1 / 0 > s.x)",
     []),
    # An EXISTS over nothing compares nothing; an IN still evaluates x.
    ("EXISTS (SELECT 1 FROM s WHERE s.x > 9 AND s.x = e.a / e.b)", []),
    ("NOT EXISTS (SELECT 1 FROM s WHERE s.x > 9 AND s.x = e.a / e.b)",
     [(1,), (2,), (3,)]),
    ("a / b IN (SELECT x FROM s WHERE x > 9)", "division by zero"),
    ("a / b NOT IN (SELECT x FROM s WHERE x > 9)", "division by zero"),
    ("a / b NOT IN (SELECT NULL FROM s)", "division by zero"),
])
def test_guards_keep_guarding_a_semi_join(guarded_db, generic_kernels,
                                          where, expected):
    """The rows — or the error — of the filter the conjunct came from."""
    sql = f"SELECT id FROM e WHERE {where}"
    if isinstance(expected, str):
        for _path in range(2):
            with pytest.raises(ExecutionError, match=expected):
                guarded_db.query(sql)
            with generic_kernels(), \
                    pytest.raises(ExecutionError, match=expected):
                guarded_db.query(sql)
        return
    rows_, kinds = _both_paths(guarded_db, generic_kernels, sql)
    assert rows_ == expected
    assert kinds or "e.b <> 0 AND s.x" in where


def test_semi_joins_sit_where_their_conjunct_ran(guarded_db):
    kinds = lambda where: [  # noqa: E731
        node.kind for node in guarded_db.explain(
            f"SELECT id FROM e WHERE {where}").root.walk()
        if node.kind in ("filter", "semi-join", "anti-join")]
    # Over the mask kernels, wherever those are written (a filter runs
    # them first: b <> 0 guards the division here, as it did there) ...
    assert kinds("a / b IN (SELECT x FROM s) AND b <> 0") \
        == ["semi-join", "filter"]
    assert guarded_db.query("SELECT id FROM e WHERE a / b IN "
                            "(SELECT x FROM s) AND b <> 0").rows \
        == [(1,), (2,)]
    # ... and between the generic conjuncts before and after it.
    assert kinds("a + 0 > 0 AND a IN (SELECT x FROM s) AND b + 0 > 0 "
                 "AND id NOT IN (SELECT x FROM s) AND b <> 0") \
        == ["anti-join", "filter", "semi-join", "filter"]


def test_exists_select_list_names_resolve_on_both_paths(guarded_db,
                                                        generic_kernels):
    for items, error in [("q.*", "no table named 'q'"),
                         ("s.nope", "no such column"),
                         ("e.nope", "no such column")]:
        sql = (f"SELECT id FROM e WHERE EXISTS "
               f"(SELECT {items} FROM s WHERE s.x = e.a)")
        with pytest.raises(UnknownColumnError, match=error):
            guarded_db.query(sql)
        with generic_kernels(), \
                pytest.raises(UnknownColumnError, match=error):
            guarded_db.query(sql)
    assert _both_paths(
        guarded_db, generic_kernels, "SELECT id FROM e WHERE EXISTS "
        "(SELECT s.*, e.id FROM s WHERE s.x = e.b)") \
        == ([(1,)], ["semi-join"])


def test_an_uncorrelated_build_side_is_built_once_per_statement(
        guarded_db, generic_kernels):
    """A semi join inside a subtree that is re-run per outer row (here a
    declined EXISTS) keeps its key set, as the closure keeps its rows;
    one that reads the enclosing row is rebuilt per run."""
    def build_sides(sql):
        rows_, _kinds = _both_paths(guarded_db, generic_kernels, sql)
        plan = guarded_db.query(sql).plan
        return rows_, [node.children[1].actual_rows for node in plan.walk()
                       if node.kind == "semi-join"]

    sql = ("SELECT id FROM e o WHERE EXISTS (SELECT 1 FROM e i "
           "WHERE i.id >= o.id AND i.b IN (SELECT x FROM s{}))")
    assert build_sides(sql.format("")) == ([(1,)], [2])
    assert build_sides(sql.format(" WHERE s.x <> o.id")) == ([(1,)], [4])


def test_in_subquery_reading_only_an_enclosing_query_is_a_semi_join(
        witness_db, generic_kernels):
    """Inside a correlated subquery, an IN whose subquery reads the
    *enclosing* row (constant per run) but not the row being filtered."""
    sql = ("SELECT z FROM e WHERE 0 < (SELECT COUNT(*) FROM b WHERE b.y IN "
           "(SELECT c.y FROM b c WHERE c.y = e.z))")
    rows_, _kinds = _both_paths(witness_db, generic_kernels, sql)
    assert rows_ == [(1,), (4,)]
    assert "semi-join" in witness_db.explain(sql).format()


def test_explain_analyze_of_stacked_semi_joins(witness_db):
    sql = ("SELECT z FROM e WHERE z IN (SELECT y FROM b) "
           "AND t NOT IN (SELECT f FROM b WHERE f IS NOT NULL)")
    assert witness_db.explain(sql, analyze=True).format() == """\
result select  (est=0.8, actual=1)
  project z  (est=0.8, actual=1, vectorized)
    anti-join t NOT IN  (est=0.8, actual=1, vectorized, null-aware)
      semi-join z IN  (est=1, actual=2, vectorized, answered by probe z IN)
        scan e  (est=4, actual=2, vectorized, probe z IN)
        subquery uncorrelated  (est=3, actual=3)
          project y  (est=3, actual=3, vectorized)
            scan b  (est=3, actual=3, vectorized)
      subquery uncorrelated  (actual=2)
        project f  (actual=2, vectorized)
          filter WHERE  (actual=2, vectorized)
            scan b  (est=3, actual=3, vectorized)
note: vectorized: anti-join, filter, project, scan, semi-join"""
    # ANALYZE replaces the default fraction: 3 of z's 3 values occur in
    # b.y, a quarter of the rows have no z.
    witness_db.execute("ANALYZE")
    text = witness_db.explain(sql).format()
    assert "semi-join z IN  (est=3, vectorized)" in text
    assert "anti-join t NOT IN  (est=1.5, vectorized, null-aware)" in text
