"""``Table.append_rows`` ≡ the row loop it replaced.

Every multi-row producer (SESQL temp tables,
``Database.insert_rows``, ``INSERT … SELECT``, CSV import, the WAL's
``rows`` replay) lands through one columnar bulk append.  The loop it
replaced — the positional insert per row, itself a ``dict(zip(...))`` plus
the row-at-a-time ``insert_row`` — is kept here as the oracle: over
random schemas, value mixes, pre-populated tables and failures at row
*k*, both must leave byte-identical tables and raise the same error.
(``Table.insert_row`` itself now stores its one row through the same
tail as the bulk append, and is checked against the oracle too.)
"""

from __future__ import annotations

import enum

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.durability import DurabilityManager, DurabilityOptions
from repro.federation import Mediator
from repro.relational import Database
from repro.relational.errors import (ConstraintViolation, RelationalError,
                                     SchemaError, TypeMismatchError)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import (BoundView, Table, infer_column_type,
                                    table_from_rows)
from repro.relational.types import DataType


# -- the oracle: the per-row path, as it was --------------------------------------


def insert_row(table: Table, values: dict) -> int:
    """``Table.insert_row`` as it stood before the bulk append: coerce
    and check one row, enter its keys in every UNIQUE index (undoing
    the entries made when a later index refuses it), append one value
    per vector.  A key names its column case-insensitively, as SQL's
    column names do (the loop it replaced dropped the value of a key
    that matched its column only so)."""
    unknown = [key for key in values if not table.schema.has_column(key)]
    if unknown:
        raise SchemaError(
            f"table {table.name!r} has no column {unknown[0]!r}")
    row = table._check_and_prepare({
        table.schema.column(key).name: value
        for key, value in values.items()})
    row_id = table._next_row_id
    inserted = []
    try:
        for index in table.paths.declared:
            if not index.unique:
                continue
            key = tuple(row[table.schema.position_of(name)]
                        for name in index.column_names)
            index.insert(key)
            inserted.append((index, key))
    except ConstraintViolation:
        for index, key in inserted:
            index.delete(key)
        raise
    table._slots[row_id] = len(table._row_ids)
    table._row_ids.append(row_id)
    table._deleted.append(0)
    for vector, value in zip(table._columns, row):
        vector.values.append(value)
        vector.nulls.append(value is None)
        vector.null_count += value is None
    table._next_row_id += 1
    return row_id


def insert_positional(table: Table, row) -> int:
    """The positional single-row insert the table had, likewise."""
    row = list(row)
    if len(row) != len(table.schema):
        raise SchemaError(
            f"table {table.name!r} expects {len(table.schema)} values, "
            f"got {len(row)}")
    return insert_row(table, dict(zip(table.schema.column_names(), row)))


def row_loop(table: Table, rows, names=None) -> None:
    for row in rows:
        if names is None:
            insert_positional(table, row)
        else:
            insert_row(table, dict(zip(names, row)))


def outcome(action) -> tuple[str, str] | None:
    try:
        action()
    except (RelationalError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return None


def state(table: Table) -> dict:
    """Everything observable about a table, and the internals the
    executor reads (vectors, bitmaps, slot map, index contents: a
    UNIQUE index's key set, and any other's, which stays empty)."""
    indexes = {index.name: (index.unique, set(index.keys))
               for index in table.paths.declared}
    return {
        "rows": list(table.rows()),
        "rows_with_ids": list(table.rows_with_ids()),
        "len": len(table),
        "next_row_id": table._next_row_id,
        "row_ids": list(table._row_ids),
        "deleted": bytes(table._deleted),
        "slots": dict(table._slots),
        "vectors": [(list(vector.values), bytes(vector.nulls),
                     vector.null_count) for vector in table._columns],
        "indexes": indexes,
    }


# -- random schemas, rows and histories -------------------------------------------


class Opaque:
    """A value no column type stores."""

    def __repr__(self) -> str:
        return "<opaque>"


OPAQUE = Opaque()
TYPES = list(DataType)
VALUES = st.sampled_from([
    None, None, 0, 1, 2, -3, 7, 2 ** 60, True, False, 2.0, 2.5, -0.0, 1e300,
    float("inf"), "abc", "1", "2", "2.5", "true", "T", "f", "", "x y",
    OPAQUE])
#: Values every column type takes (so a pre-load rarely fails).
PLAIN = {DataType.INTEGER: lambda i: i, DataType.REAL: lambda i: i + 0.5,
         DataType.TEXT: lambda i: f"p{i}", DataType.BOOLEAN: lambda i: i % 2}


@st.composite
def schemas(draw) -> dict:
    width = draw(st.integers(1, 4))
    columns = []
    for position in range(width):
        data_type = draw(st.sampled_from(TYPES))
        has_default = draw(st.booleans())
        columns.append(dict(
            name=f"c{position}", data_type=data_type,
            nullable=draw(st.booleans()),
            primary_key=draw(st.integers(0, 4)) == 0,
            unique=draw(st.integers(0, 3)) == 0,
            default=draw(VALUES) if has_default else None,
            has_default=has_default))
    indexes = []
    for number in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["hash", "sorted"]))
        names = draw(st.lists(
            st.sampled_from([c["name"] for c in columns]), min_size=1,
            max_size=1 if kind == "sorted" else 2, unique=True))
        indexes.append((f"ix{number}", names, draw(st.booleans()), kind))
    return {"columns": columns, "indexes": indexes}


def build(spec: dict) -> Table:
    table = Table(TableSchema(
        "t", [Column(**column) for column in spec["columns"]]))
    for name, names, unique, kind in spec["indexes"]:
        table.create_index(name, names, unique, kind)
    return table


@st.composite
def batches(draw, width: int, ragged: bool = True) -> list[tuple]:
    rows = draw(st.lists(
        st.tuples(*[VALUES] * width), min_size=0, max_size=12))
    if ragged and rows and draw(st.integers(0, 5)) == 0:
        position = draw(st.integers(0, len(rows) - 1))
        rows[position] = rows[position][:-1] if draw(st.booleans()) \
            else rows[position] + (1,)
    return rows


@st.composite
def cases(draw) -> dict:
    spec = draw(schemas())
    width = len(spec["columns"])
    return {
        "spec": spec,
        "preload": draw(st.sampled_from([0, 0, 5, 100])),
        "delete": draw(st.sampled_from([0, 3, 70])),
        "first": draw(batches(width)),
        "second": draw(batches(width)),
    }


def prepared(case: dict) -> Table:
    """A table with a history: pre-loaded row by row, some of it deleted
    (70 of 100 crosses the compaction threshold)."""
    table = build(case["spec"])
    types = [column["data_type"] for column in case["spec"]["columns"]]
    for i in range(case["preload"]):
        outcome(lambda: insert_positional(
            table, [PLAIN[data_type](i) for data_type in types]))
    for row_id, _row in list(table.rows_with_ids())[:case["delete"]]:
        table.delete_row(row_id)
    return table


# -- the equivalence ----------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(cases())
def test_bulk_append_equals_the_row_loop(case):
    bulk, loop = prepared(case), prepared(case)
    assert state(bulk) == state(loop)
    for rows in (case["first"], case["second"]):
        assert outcome(lambda: bulk.append_rows(rows)) \
            == outcome(lambda: row_loop(loop, rows))
        assert state(bulk) == state(loop)
    # A delete (and perhaps a compaction) between two bulk appends.
    for row_id, _row in list(loop.rows_with_ids())[:3]:
        bulk.delete_row(row_id)
        loop.delete_row(row_id)
    assert outcome(lambda: bulk.append_rows(iter(case["first"]))) \
        == outcome(lambda: row_loop(loop, case["first"]))
    assert state(bulk) == state(loop)


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_bulk_append_of_named_columns_equals_the_row_loop(case, data):
    """``INSERT INTO t (b, a) SELECT …``: a subset of the columns, in
    the statement's order; the others take their default or NULL (the
    engine checks the SELECT's width before it runs: no ragged rows)."""
    all_names = [column["name"] for column in case["spec"]["columns"]]
    names = data.draw(st.lists(st.sampled_from(all_names), unique=True))
    rows = data.draw(batches(len(names), ragged=False))
    bulk, loop = prepared(case), prepared(case)
    assert outcome(lambda: bulk.append_rows(rows, names)) \
        == outcome(lambda: row_loop(loop, rows, names))
    assert state(bulk) == state(loop)


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_insert_rows_equals_the_row_loop(case, data):
    """``Database.insert_rows``: dicts, keys missing (default / NULL) or
    unknown (``SchemaError`` at that row, the rows before it stored)."""
    names = [column["name"] for column in case["spec"]["columns"]]
    dicts = data.draw(st.lists(st.dictionaries(
        st.sampled_from(names + ["C0", "nope"]), VALUES), max_size=8))
    loop = prepared(case)
    db = Database()
    db.catalog.register_table(prepared(case))
    generation = db.generation
    stored: list[int] = []
    assert outcome(lambda: stored.append(db.insert_rows("t", dicts))) \
        == outcome(lambda: [insert_row(loop, row) for row in dicts])
    assert state(db.table("t")) == state(loop)
    assert db.generation == generation + 1
    if stored:
        assert stored == [len(dicts)]


def test_a_key_names_its_column_as_sql_does():
    """A dict key that matches its column only case-insensitively
    stores its value, as the same column list in ``INSERT`` does."""
    db = Database()
    db.execute("CREATE TABLE t (c0 INTEGER, c1 TEXT)")
    db.insert_rows("t", [{"C0": 5, "c1": "x"}])
    db.table("t").insert_row({"c1": "y", "C0": 6})
    db.execute("INSERT INTO t (C0, c1) VALUES (5, 'x')")
    assert db.query("SELECT c0, c1 FROM t").rows \
        == [(5, "x"), (6, "y"), (5, "x")]
    with pytest.raises(SchemaError, match="has no column 'nope'"):
        db.insert_rows("t", [{"C0": 7, "nope": 1}])


@settings(max_examples=100, deadline=None)
@given(cases())
def test_insert_row_equals_its_old_self(case):
    names = [column["name"] for column in case["spec"]["columns"]]
    new, old = prepared(case), prepared(case)
    for row in case["first"] + case["second"]:
        values = dict(zip(names, row))
        assert outcome(lambda: new.insert_row(values)) \
            == outcome(lambda: insert_row(old, values))
        assert state(new) == state(old)


def test_every_coercion_branch_and_its_failures():
    def load(data_type, values):
        table = Table(TableSchema("t", [Column("v", data_type)]))
        return outcome(lambda: table.append_rows([(v,) for v in values])), \
            table.column_values(0)

    assert load(DataType.INTEGER, [True, 2, 3.0, "4", None]) \
        == (None, [1, 2, 3, 4, None])
    assert load(DataType.REAL, [True, 2, 2.5, "1e3"]) \
        == (None, [1.0, 2.0, 2.5, 1000.0])
    assert load(DataType.TEXT, ["a", True, 2, 2.0, 2.5]) \
        == (None, ["a", "true", "2", "2.0", "2.5"])
    assert load(DataType.BOOLEAN, [True, 0, 1, "T", "false"]) \
        == (None, [True, False, True, True, False])
    error, kept = load(DataType.INTEGER, [1, "abc", 3])
    assert error == ("TypeMismatchError",
                     "cannot store 'abc' in INTEGER column") and kept == [1]
    error, kept = load(DataType.INTEGER, [1, 2, 2.5])
    assert error[0] == "TypeMismatchError" and kept == [1, 2]
    error, kept = load(DataType.BOOLEAN, [True, 2])
    assert error[0] == "TypeMismatchError" and kept == [True]
    error, kept = load(DataType.TEXT, ["a", OPAQUE])
    assert error[0] == "TypeMismatchError" and kept == ["a"]


def test_violation_at_row_k_leaves_exactly_the_prefix():
    table = Table(TableSchema("t", [
        Column("id", DataType.INTEGER, primary_key=True),
        Column("tag", DataType.TEXT, unique=True),
        Column("n", DataType.REAL, nullable=False)]))
    table.create_index("by_n", ["n"], kind="sorted")
    with pytest.raises(ConstraintViolation, match="__uq_t_tag"):
        table.append_rows([(1, "a", 1), (2, "b", 2), (3, "a", 3),
                           (4, "c", None), (1, "d", 5)])
    assert list(table.rows_with_ids()) == [(0, (1, "a", 1.0)),
                                           (1, (2, "b", 2.0))]
    # Row 2's keys are in no index, and its id was not spent: its
    # PRIMARY KEY goes in again, under id 2 (the first row below).
    assert table.indexes["by_n"].keys == set()
    with pytest.raises(ConstraintViolation, match="is NOT NULL"):
        table.append_rows([(3, "c", 3), (4, "d", None), (3, "e", 5)])
    assert list(table.rows_with_ids())[2] == (2, (3, "c", 3.0))
    assert [row_id for row_id, _row in table.rows_with_ids()] == [0, 1, 2]
    with pytest.raises(TypeMismatchError):
        table.append_rows([(5, "x", 1), ("six", "y", 2)])
    with pytest.raises(SchemaError, match="expects 3 values, got 2"):
        table.append_rows([(6, "z", 1), (7, "w")])
    assert table.column_values(0) == [1, 2, 3, 5, 6]


def test_rows_that_raise_midway_store_what_they_yielded():
    def rows():
        yield (1,)
        yield (2,)
        raise ZeroDivisionError("source went away")

    table = Table(TableSchema("t", [Column("v", DataType.INTEGER)]))
    with pytest.raises(ZeroDivisionError):
        table.append_rows(rows())
    assert table.column_values(0) == [1, 2]


def test_insert_select_goes_through_the_bulk_append(monkeypatch):
    db = Database()
    db.execute_script("""
        CREATE TABLE src (a INTEGER, b TEXT);
        CREATE TABLE dst (id INTEGER PRIMARY KEY, label TEXT DEFAULT 'none',
                          score REAL);
        INSERT INTO src VALUES (1, 'x'), (2, 'y'), (3, 'z');
        ANALYZE dst;
    """)
    monkeypatch.setattr(Table, "insert_row", None)
    assert db.execute("INSERT INTO dst (score, ID) SELECT a, a * 10 "
                      "FROM src") == 3
    assert db.query("SELECT * FROM dst ORDER BY id").rows == [
        (10, "none", 1.0), (20, "none", 2.0), (30, "none", 3.0)]
    assert db.stats.get("dst").row_count == 3
    with pytest.raises(ConstraintViolation):
        db.execute("INSERT INTO dst (id) SELECT a * 10 FROM src")
    assert db.query("SELECT COUNT(*) FROM dst").scalar() == 3


# -- the materialiser -----------------------------------------------------------


def old_infer_column_type(values) -> DataType:
    """The ``isinstance`` ladder ``core.tempdb`` walked per value."""
    saw_int = saw_float = saw_bool = saw_text = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        else:
            saw_text = True
    if saw_text:
        return DataType.TEXT
    if saw_bool and not (saw_int or saw_float):
        return DataType.BOOLEAN
    if saw_float:
        return DataType.REAL
    if saw_int or saw_bool:
        return DataType.INTEGER
    return DataType.TEXT


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([
    None, 0, 1, 2 ** 70, True, False, 0.5, float("nan"), "a", "", OPAQUE,
    Level.LOW, Tag("t"), b"raw", (1, 2)])))
def test_type_inference_from_the_type_set_equals_the_isinstance_ladder(
        values):
    assert infer_column_type(values) is old_infer_column_type(values)
    assert infer_column_type(iter(values)) is old_infer_column_type(values)


def test_table_from_rows_infers_each_column_once_and_loads_it():
    table = table_from_rows("m", ["i", "r", "t", "b", "mixed", "none"], [
        (1, 1, "a", True, 1, None),
        (None, 2.5, None, False, "x", None),
        (3, True, "c", None, OPAQUE, None)])
    assert [column.data_type for column in table.schema.columns] == [
        DataType.INTEGER, DataType.REAL, DataType.TEXT, DataType.BOOLEAN,
        DataType.TEXT, DataType.TEXT]
    assert list(table.rows()) == [
        (1, 1.0, "a", True, "1", None),
        (None, 2.5, None, False, "x", None),
        (3, 1.0, "c", None, "<opaque>", None)]
    assert [vector.null_count for vector in table._columns] \
        == [1, 0, 1, 1, 0, 3]
    assert len(table_from_rows("e", ["a", "b"], [])) == 0
    with pytest.raises(SchemaError):
        table_from_rows("ragged", ["a", "b"], [(1, 2), (3,)])


def federation(rows: int = 2000) -> tuple[Mediator, Database]:
    source = Database("s")
    source.execute("CREATE TABLE t (x INTEGER, label TEXT)")
    source.insert_rows("t", ({"x": i, "label": f"l{i % 7}"}
                             for i in range(rows)))
    mediator = Mediator()
    mediator.register_source("s", source)
    mediator.define_view("v", [("s", "SELECT x, label FROM t")])
    return mediator, source


def test_a_view_is_bound_to_its_run_never_loaded_into_a_table(monkeypatch):
    mediator, _source = federation()
    bank = mediator.as_databank()
    monkeypatch.setattr(Table, "_append_columns", None)   # zero calls
    monkeypatch.setattr(Table, "insert_row", None)        # zero calls
    assert bank.query("SELECT COUNT(*), SUM(x) FROM v").rows \
        == [(2000, 1999000)]
    assert not bank.catalog.has_table("v")
    assert len(bank.session._materialized["v"]) == 2000


def test_a_view_whose_assembly_raises_is_never_held(monkeypatch):
    mediator, _source = federation(50)
    bank = mediator.as_databank()

    def broken(*args):
        raise MemoryError("assembly failed half-way")

    with monkeypatch.context() as patch:
        patch.setattr(BoundView, "of", broken)
        with pytest.raises(MemoryError):
            bank.query("SELECT COUNT(*) FROM v")
    assert not bank.catalog.has_table("v")
    assert bank.session._materialized == {}
    assert bank.query("SELECT COUNT(*) FROM v").scalar() == 50


# -- durability: the journaled rows replay to the same state ------------------


def test_a_journaled_rows_record_replays_to_identical_state(tmp_path):
    def attach(directory):
        manager = DurabilityManager(DurabilityOptions(
            directory=str(directory), fsync="never"))
        db = Database()
        manager.attach_database(db, name="main")
        manager.recover()
        return manager, db

    manager, db = attach(tmp_path)
    db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, v REAL, "
               "tag TEXT DEFAULT 'd', ok BOOLEAN)")
    db.insert_rows("m", [{"id": "1", "v": 2, "ok": 1},
                         {"id": 2.0, "v": "2.5", "tag": 7, "ok": "f"},
                         {"id": 3}])
    with pytest.raises(ConstraintViolation):     # the prefix is durable
        db.insert_rows("m", ({"id": i, "v": None} for i in (4, 5, 1, 6)))
    db.execute("DELETE FROM m WHERE id = 2")
    db.insert_rows("m", [{"id": 7, "tag": None}])
    expected, generation = state(db.table("m")), db.generation
    assert expected["rows"] == [
        (1, 2.0, "d", True), (3, None, "d", None), (4, None, "d", None),
        (5, None, "d", None), (7, None, None, None)]
    manager.close()

    manager, recovered = attach(tmp_path)
    assert state(recovered.table("m")) == expected
    assert recovered.generation == generation
    manager.close()
