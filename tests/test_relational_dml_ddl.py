"""DML/DDL behaviour: constraints, defaults, updates, indexes."""

import sqlite3

import pytest

from repro.analysis import analyze_sql
from repro.relational import (CatalogError, ConstraintViolation, Database,
                              ExecutionError, SchemaError, TypeMismatchError)
from repro.durability import DurabilityManager, DurabilityOptions


def test_create_and_drop_table(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    assert db.catalog.has_table("t")
    db.execute("DROP TABLE t")
    assert not db.catalog.has_table("t")


def test_create_existing_table_raises(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    with pytest.raises(CatalogError):
        db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")  # no error


def test_drop_missing_table(db):
    with pytest.raises(CatalogError):
        db.execute("DROP TABLE missing")
    db.execute("DROP TABLE IF EXISTS missing")  # no error


def test_primary_key_uniqueness(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES (1, 'b')")
    # The failed insert must not leave the row behind.
    assert len(db.query("SELECT * FROM t")) == 1


def test_primary_key_not_null(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES (NULL)")


def test_not_null_enforced(db):
    db.execute("CREATE TABLE t (v TEXT NOT NULL)")
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES (NULL)")


def test_unique_column(db):
    db.execute("CREATE TABLE t (v TEXT UNIQUE)")
    db.execute("INSERT INTO t VALUES ('a'), (NULL), (NULL)")  # NULLs ok
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES ('a')")


def test_default_values(db):
    db.execute("CREATE TABLE t (id INTEGER, status TEXT DEFAULT 'new')")
    db.execute("INSERT INTO t (id) VALUES (1)")
    assert db.query("SELECT status FROM t").rows == [("new",)]


def test_insert_column_subset_fills_nulls(db):
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t (b) VALUES ('x')")
    assert db.query("SELECT a, b FROM t").rows == [(None, "x")]


def test_insert_type_coercion_and_errors(db):
    db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT, d BOOLEAN)")
    db.execute("INSERT INTO t VALUES (1, 2, 'x', TRUE)")
    assert db.query("SELECT b FROM t").rows == [(2.0,)]
    with pytest.raises(TypeMismatchError):
        db.execute("INSERT INTO t VALUES ('abc', 1.0, 'x', FALSE)")


def test_insert_select(db):
    db.execute("CREATE TABLE src (x INTEGER)")
    db.execute("INSERT INTO src VALUES (1), (2), (3)")
    db.execute("CREATE TABLE dst (x INTEGER)")
    affected = db.execute("INSERT INTO dst SELECT x * 10 FROM src")
    assert affected == 3
    assert db.query("SELECT x FROM dst ORDER BY x").rows == [
        (10,), (20,), (30,)]


@pytest.mark.parametrize("select, error", [
    ("SELECT k * 10, k, 'v' FROM src", ConstraintViolation),  # PRIMARY KEY
    ("SELECT k * 10, k, t FROM src", ConstraintViolation),    # NOT NULL
    ("SELECT k * 10, n, 'v' FROM src", TypeMismatchError),
])
def test_insert_select_stores_the_rows_before_the_failing_one(db, select,
                                                             error):
    """The SELECT's third row fails: the two before it are stored, as
    ``Table.append_rows`` stores them."""
    db.execute_script("""
        CREATE TABLE src (k INTEGER, n TEXT, t TEXT);
        INSERT INTO src VALUES (1, '1', 'a'), (2, '2', 'b'), (3, 'x', NULL),
                               (4, '4', 'd');
        CREATE TABLE dst (id INTEGER PRIMARY KEY, n INTEGER NOT NULL,
                          t TEXT NOT NULL);
        INSERT INTO dst VALUES (30, 0, 'c');
    """)
    with pytest.raises(error):
        db.execute(f"INSERT INTO dst {select}")
    assert db.query("SELECT id FROM dst WHERE id <> 30 ORDER BY id").rows \
        == [(10,), (20,)]


def test_update_with_expression(db):
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    affected = db.execute("UPDATE t SET v = v + 1 WHERE id = 2")
    assert affected == 1
    assert db.query("SELECT v FROM t ORDER BY id").rows == [(10,), (21,)]


def test_update_reindexes(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    db.execute("CREATE INDEX iv ON t (v)")
    db.execute("UPDATE t SET v = 'z' WHERE id = 1")
    assert db.query("SELECT id FROM t WHERE v = 'z'").rows == [(1,)]
    assert db.query("SELECT id FROM t WHERE v = 'a'").rows == []


@pytest.mark.parametrize("statement", [
    "UPDATE t SET C0 = 5",
    "UPDATE t SET C0 = C0 + 10, c1 = 'y' WHERE C1 = 'x'",
    "UPDATE t SET c0 = 7, C0 = 8 WHERE c0 = 1",
    "UPDATE t SET C1 = UPPER(C1) WHERE C0 IN (1, 3)",
], ids=["set", "set-where", "twice", "where-in"])
def test_update_with_recased_names_matches_sqlite(db, statement):
    """An UPDATE stores each change under the schema's spelling, whatever
    case the statement names the column in (sqlite3 is the oracle), and
    the indexes follow."""
    oracle = sqlite3.connect(":memory:")
    for con in (db, oracle):
        con.execute("CREATE TABLE t (c0 INTEGER, c1 TEXT)")
        con.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    db.execute("CREATE INDEX i1 ON t (c1)")
    count = db.execute(statement)
    assert count == oracle.execute(statement).rowcount
    query = "SELECT c0, c1 FROM t ORDER BY c0, c1"
    assert db.query(query).rows == oracle.execute(query).fetchall()
    probe = "SELECT c0 FROM t WHERE c1 = 'x' ORDER BY c0"
    assert db.query(probe).rows == oracle.execute(probe).fetchall()


def test_update_violating_pk_rolls_back(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    with pytest.raises(ConstraintViolation):
        db.execute("UPDATE t SET id = 1 WHERE id = 2")
    assert db.query("SELECT id FROM t ORDER BY id").rows == [(1,), (2,)]


def test_delete_with_and_without_where(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    assert db.execute("DELETE FROM t WHERE x > 1") == 2
    assert db.execute("DELETE FROM t") == 1
    assert db.query("SELECT * FROM t").rows == []


def test_index_speeds_equality_lookup_and_stays_correct(db):
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    db.insert_rows("t", ({"k": i % 100, "v": f"v{i}"} for i in range(1000)))
    without = db.query("SELECT COUNT(*) FROM t WHERE k = 7").scalar()
    db.execute("CREATE INDEX ik ON t (k)")
    with_index = db.query("SELECT COUNT(*) FROM t WHERE k = 7").scalar()
    assert without == with_index == 10


def test_unique_index_rejects_duplicates(db):
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("CREATE UNIQUE INDEX uk ON t (k)")
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES (1)")


def test_create_unique_index_on_existing_duplicates_fails(db):
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (1)")
    with pytest.raises(ConstraintViolation):
        db.execute("CREATE UNIQUE INDEX uk ON t (k)")


def test_a_sorted_index_is_accepted_and_ranges_read_the_sorted_path(db):
    db.execute("CREATE TABLE t (k INTEGER, j INTEGER)")
    db.execute("INSERT INTO t VALUES (5, 0), (1, 1), (9, 2), (3, 3)")
    db.execute("CREATE INDEX sk ON t (k) USING sorted")
    assert db.table("t").indexes["sk"].kind == "sorted"
    result = db.query("SELECT k FROM t WHERE k < 6 AND k > 4")
    assert result.rows == [(5,)]
    assert "range k" in result.plan.format()
    with pytest.raises(ConstraintViolation, match="exactly one column"):
        db.execute("CREATE INDEX sjk ON t (j, k) USING sorted")
    assert "sjk" not in db.table("t").indexes
    db.execute("DROP INDEX sk")
    assert db.table("t").indexes == {}
    db.execute("CREATE UNIQUE INDEX sk ON t (k) USING sorted")
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO t VALUES (9, 4)")


def test_a_sorted_index_kind_survives_snapshot_and_wal_restore(tmp_path):
    """One index rides the snapshot, the other the WAL tail: both come
    back with their kind and uniqueness."""
    def manager_over(db):
        manager = DurabilityManager(DurabilityOptions(
            directory=str(tmp_path), fsync="never"))
        manager.attach_database(db, name="main")
        manager.recover()
        return manager

    db = Database()
    manager = manager_over(db)
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    db.execute("CREATE UNIQUE INDEX us ON t (k) USING sorted")
    manager.snapshot()
    db.execute("CREATE INDEX vs ON t (v) USING sorted")
    manager.close()
    restored = Database()
    manager_over(restored).close()
    indexes = restored.table("t").indexes
    assert {name: (index.kind, index.unique, index.column_names)
            for name, index in indexes.items()} \
        == {"us": ("sorted", True, ["k"]), "vs": ("sorted", False, ["v"])}
    with pytest.raises(ConstraintViolation):
        restored.execute("INSERT INTO t VALUES (2, 'c')")


@pytest.mark.parametrize("kind", ["hash", "sorted"])
def test_a_unique_index_tells_integers_beyond_2_53_apart(db, kind):
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute(f"CREATE UNIQUE INDEX u ON t (k) USING {kind}")
    db.execute(f"INSERT INTO t VALUES ({2 ** 53})")
    db.execute(f"INSERT INTO t VALUES ({2 ** 53 + 1})")
    with pytest.raises(ConstraintViolation):
        db.execute(f"INSERT INTO t VALUES ({2 ** 53})")
    assert db.query("SELECT COUNT(*) FROM t").scalar() == 2


def test_drop_index(db):
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("CREATE INDEX ik ON t (k)")
    db.execute("DROP INDEX ik")
    with pytest.raises(SchemaError):
        db.execute("DROP INDEX ik")
    db.execute("DROP INDEX IF EXISTS ik")  # no error


def test_index_names_are_one_namespace_per_database(db):
    """An index name is the database's, in any case, as sqlite3's is: a
    second CREATE INDEX of it (on any table) is refused, and DROP INDEX
    in another case drops it."""
    oracle = sqlite3.connect(":memory:")
    for con in (db, oracle):
        con.execute("CREATE TABLE t (c0 INTEGER, c1 TEXT)")
        con.execute("CREATE TABLE u (c0 INTEGER)")
        con.execute("CREATE INDEX ix ON t (c1)")
    for statement in ("CREATE INDEX IX ON t (c0)",
                      "CREATE INDEX ix ON u (c0)"):
        with pytest.raises(sqlite3.OperationalError, match="already exists"):
            oracle.execute(statement)
        with pytest.raises(SchemaError, match="already exists"):
            db.execute(statement)
    assert list(db.table("u").indexes) == []
    db.execute("DROP INDEX IX")
    assert db.table("t").indexes == {}
    with pytest.raises(SchemaError, match="does not exist"):
        db.execute("DROP INDEX Ix")
    db.execute("CREATE INDEX Ix ON u (c0)")
    db.execute("DROP INDEX iX")
    assert db.table("u").indexes == {}


@pytest.mark.parametrize("statement", [
    "INSERT INTO t (c0, C0) VALUES (1, 2)",
    "INSERT INTO t (c1, c0, c1) VALUES ('a', 1, 'b')",
    "INSERT INTO t (C0, c0) SELECT c0, c0 FROM t",
], ids=["values", "values-three", "select"])
def test_insert_naming_a_column_twice_is_refused(db, statement):
    """An INSERT column list naming one column twice, in any case, is a
    SchemaError and stores nothing (PostgreSQL refuses it too)."""
    db.execute("CREATE TABLE t (c0 INTEGER, c1 TEXT)")
    db.execute("INSERT INTO t VALUES (7, 'x')")
    with pytest.raises(SchemaError, match="twice"):
        db.execute(statement)
    assert db.query("SELECT c0, c1 FROM t").rows == [(7, "x")]


def test_execute_script_multiple_statements(db):
    results = db.execute_script("""
        CREATE TABLE t (x INTEGER);
        INSERT INTO t VALUES (1), (2);
        SELECT COUNT(*) FROM t;
    """)
    assert results[-1].scalar() == 2


@pytest.mark.parametrize("statement, message, code", [
    ("UPDATE t SET x = COUNT(*)", "aggregate COUNT is not allowed here",
     "E-AGGREGATE-CONTEXT"),
    ("INSERT INTO t (x, y) VALUES (COUNT(*), 'b')",
     "aggregate COUNT is not allowed here", "E-AGGREGATE-CONTEXT"),
    ("DELETE FROM t WHERE SUM(x) > 0", "aggregate SUM is not allowed here",
     "E-AGGREGATE-CONTEXT"),
    ("UPDATE t SET y = NOSUCH(y)", "unknown function 'NOSUCH'",
     "E-UNKNOWN-FUNCTION"),
    ("UPDATE t SET y = x WHERE COUNT(*) > 0",
     "aggregate COUNT is not allowed here", "E-AGGREGATE-CONTEXT"),
])
def test_a_dml_expression_is_no_aggregate_context(db, statement, message,
                                                 code):
    """An expression of a DML statement is evaluated per row: no
    aggregate stands in it, whatever place the bind gives it.  The
    analyzer reports what the executor raises, and nothing is written."""
    db.execute("CREATE TABLE t (x INTEGER, y TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    assert [diagnostic.code for diagnostic in analyze_sql(statement, db)
            if diagnostic.code.startswith("E-")] == [code]
    with pytest.raises(ExecutionError) as raised:
        db.execute(statement)
    assert type(raised.value) is ExecutionError
    assert str(raised.value) == message
    assert db.query("SELECT x, y FROM t").rows == [(1, "a")]
