"""Columnar table storage with constraint enforcement and index maintenance.

Hot storage is one :class:`~repro.relational.vectors.ColumnVector` per
column — a typed value list plus a null bitmap — instead of the old
``dict[row_id, tuple]`` heap.  The stable-row-id contract that indexes,
DML and the WAL rely on is preserved: every live row keeps the id it was
inserted with, deletes flip a bit in a deleted bitmap instead of
shifting slots, and a slot map translates ids to positions.  When more
than a quarter of the slots are dead the table compacts in place
(row ids survive, slots are renumbered — nothing outside this class ever
sees a slot).

Row-oriented accessors (``rows`` / ``rows_with_ids`` / ``row``) keep
their exact shapes, so snapshots, ANALYZE fallbacks, replicas and every
other consumer are unaffected.  The scan operator reads
``iter_batches`` (column-slice batches); ANALYZE reads
``column_values`` (one live column).
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import not_
from typing import Any, Iterable, Iterator

from .errors import ConstraintViolation, SchemaError
from .indexes import HashIndex, IndexType, build_index
from .schema import TableSchema
from .types import coerce_value
from .vectors import ColumnVector

#: Compaction triggers when both hold: enough dead slots to be worth a
#: rebuild, and dead slots outnumbering a quarter of the heap.
COMPACT_MIN_DELETED = 64
COMPACT_DEAD_FRACTION = 4  # dead * 4 > total  <=>  >25% dead


class Table:
    """An in-memory columnar table plus the indexes defined over it.

    Values live in per-column vectors addressed by *slot*; a parallel
    ``row_id`` array and deleted bitmap give every row a stable id for
    the life of the table, so deletes never shift other rows and indexes
    can reference rows stably.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns = [ColumnVector(column.data_type)
                         for column in schema.columns]
        self._row_ids = array("q")
        self._deleted = bytearray()
        self._deleted_count = 0
        self._slots: dict[int, int] = {}   # row_id -> slot, live rows only
        self._next_row_id = 0
        self.indexes: dict[str, IndexType] = {}
        self._pk_index: HashIndex | None = None
        if schema.primary_key:
            self._pk_index = HashIndex(
                f"__pk_{schema.name}", schema.name,
                list(schema.primary_key), unique=True)
        self._unique_indexes: list[HashIndex] = []
        for column in schema.columns:
            if column.unique and not column.primary_key:
                self._unique_indexes.append(HashIndex(
                    f"__uq_{schema.name}_{column.name}", schema.name,
                    [column.name], unique=True))

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._slots)

    def rows(self) -> Iterator[tuple]:
        """Iterate over row tuples (order of insertion)."""
        columns = [column.values for column in self._columns]
        if self._deleted_count == 0:
            return zip(*columns)
        return compress(zip(*columns), map(not_, self._deleted))

    def rows_with_ids(self) -> Iterator[tuple[int, tuple]]:
        columns = [column.values for column in self._columns]
        pairs = zip(self._row_ids, zip(*columns))
        if self._deleted_count == 0:
            yield from pairs
        else:
            yield from compress(pairs, map(not_, self._deleted))

    def row(self, row_id: int) -> tuple:
        slot = self._slots[row_id]
        return tuple(column.values[slot] for column in self._columns)

    # -- batch scan surface --------------------------------------------------

    def iter_batches(self, size: int) -> Iterator[list]:
        """Column-slice batches of at most *size* live rows.

        Each batch is a list of per-column value lists, all the same
        length — the shape predicate kernels and the vector aggregate
        consume.  Dead slots are squeezed out per batch, so consumers
        never see the deleted bitmap.
        """
        columns = [column.values for column in self._columns]
        deleted = self._deleted
        for start in range(0, len(self._row_ids), size):
            end = start + size
            window = deleted[start:end]
            if 1 not in window:
                yield [column[start:end] for column in columns]
                continue
            live = [flag == 0 for flag in window]
            batch = [list(compress(column[start:end], live))
                     for column in columns]
            if batch[0]:
                yield batch

    def column_values(self, position: int) -> list:
        """Live values of one column, in row order (ANALYZE reads this)."""
        values = self._columns[position].values
        if self._deleted_count == 0:
            return list(values)
        return list(compress(values, map(not_, self._deleted)))

    # -- constraint helpers --------------------------------------------------

    def _key_values(self, row: tuple, column_names: Iterable[str]) -> tuple:
        return tuple(row[self.schema.position_of(name)]
                     for name in column_names)

    def _check_and_prepare(self, values: dict[str, Any]) -> tuple:
        """Coerce an insert dict to a full row tuple, enforcing NOT NULL."""
        row = []
        for column in self.schema.columns:
            if column.name in values:
                value = coerce_value(values[column.name], column.data_type)
            elif column.has_default:
                value = coerce_value(column.default, column.data_type)
            else:
                value = None
            if value is None and not column.nullable:
                raise ConstraintViolation(
                    f"column {column.name!r} of table {self.name!r} "
                    f"is NOT NULL")
            row.append(value)
        return tuple(row)

    def _constraint_indexes(self) -> list[HashIndex]:
        constraint_indexes = list(self._unique_indexes)
        if self._pk_index is not None:
            constraint_indexes.append(self._pk_index)
        return constraint_indexes

    def _all_indexes(self) -> list[IndexType]:
        return self._constraint_indexes() + list(self.indexes.values())

    def _pk_values_present(self, row: tuple) -> None:
        for name in self.schema.primary_key:
            if row[self.schema.position_of(name)] is None:
                raise ConstraintViolation(
                    f"primary key column {name!r} may not be NULL")

    # -- mutation ------------------------------------------------------------

    def insert_row(self, values: dict[str, Any]) -> int:
        """Insert one row given a column-name -> value mapping."""
        unknown = [key for key in values if not self.schema.has_column(key)]
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column {unknown[0]!r}")
        row = self._check_and_prepare(values)
        if self._pk_index is not None:
            self._pk_values_present(row)
        row_id = self._next_row_id
        inserted: list[tuple[IndexType, tuple]] = []
        try:
            for index in self._all_indexes():
                key = self._key_values(row, index.column_names)
                index.insert(row_id, key)
                inserted.append((index, key))
        except ConstraintViolation:
            for index, key in inserted:
                index.delete(row_id, key)
            raise
        self._slots[row_id] = len(self._row_ids)
        self._row_ids.append(row_id)
        self._deleted.append(0)
        for column, value in zip(self._columns, row):
            column.append(value)
        self._next_row_id += 1
        return row_id

    def insert_tuple(self, row: Iterable[Any]) -> int:
        """Insert a positional row (must cover every column)."""
        row = list(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(row)}")
        values = dict(zip(self.schema.column_names(), row))
        return self.insert_row(values)

    def delete_row(self, row_id: int) -> None:
        slot = self._slots[row_id]
        row = tuple(column.values[slot] for column in self._columns)
        for index in self._all_indexes():
            index.delete(row_id, self._key_values(row, index.column_names))
        del self._slots[row_id]
        self._deleted[slot] = 1
        self._deleted_count += 1
        if self._deleted_count > COMPACT_MIN_DELETED and \
                self._deleted_count * COMPACT_DEAD_FRACTION \
                > len(self._row_ids):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the vectors without dead slots (row ids survive)."""
        live = [flag == 0 for flag in self._deleted]
        for column in self._columns:
            column.rebuild(live)
        self._row_ids = array("q", compress(self._row_ids, live))
        self._deleted = bytearray(len(self._row_ids))
        self._deleted_count = 0
        self._slots = {row_id: slot
                       for slot, row_id in enumerate(self._row_ids)}

    def update_row(self, row_id: int, changes: dict[str, Any]) -> None:
        """Apply column changes to one row, re-checking constraints."""
        slot = self._slots[row_id]
        old_row = tuple(column.values[slot] for column in self._columns)
        values = dict(zip(self.schema.column_names(), old_row))
        for name, value in changes.items():
            if not self.schema.has_column(name):
                raise SchemaError(
                    f"table {self.name!r} has no column {name!r}")
            values[name] = value
        new_row = self._check_and_prepare(values)
        if self._pk_index is not None:
            self._pk_values_present(new_row)
        # Remove old index entries, then insert new ones; roll back on failure.
        for index in self._all_indexes():
            index.delete(row_id, self._key_values(old_row, index.column_names))
        inserted: list[tuple[IndexType, tuple]] = []
        try:
            for index in self._all_indexes():
                key = self._key_values(new_row, index.column_names)
                index.insert(row_id, key)
                inserted.append((index, key))
        except ConstraintViolation:
            for index, key in inserted:
                index.delete(row_id, key)
            for index in self._all_indexes():
                index.insert(
                    row_id, self._key_values(old_row, index.column_names))
            raise
        for column, value in zip(self._columns, new_row):
            column.set(slot, value)

    def truncate(self) -> None:
        for column in self._columns:
            column.clear()
        self._row_ids = array("q")
        self._deleted = bytearray()
        self._deleted_count = 0
        self._slots.clear()
        for index in self._all_indexes():
            index.clear()

    # -- secondary index management -------------------------------------------

    def create_index(self, name: str, column_names: list[str],
                     unique: bool = False, kind: str = "hash") -> IndexType:
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        for column_name in column_names:
            if not self.schema.has_column(column_name):
                raise SchemaError(
                    f"table {self.name!r} has no column {column_name!r}")
        index = build_index(kind, name, self.name, column_names, unique)
        for row_id, row in self.rows_with_ids():
            index.insert(row_id, self._key_values(row, column_names))
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise SchemaError(f"index {name!r} does not exist")
        del self.indexes[name]

    def find_index_on(self, column_names: list[str]) -> IndexType | None:
        """Find any index (incl. PK/unique) covering exactly these columns."""
        wanted = [name.lower() for name in column_names]
        for index in self._all_indexes():
            if [c.lower() for c in index.column_names] == wanted:
                return index
        return None


def find_probe_index(table, column_names: list[str]
                     ) -> tuple[IndexType, list[int]] | None:
    """The index (plus covered key positions) an equi-join probe can use
    on the inner table *table*: the full key list when an index covers
    it exactly, otherwise any single key column (the remaining keys are
    then checked per candidate row).  Shared by the executor's join
    compilation and the planner's cost model so both agree on whether a
    probe is possible."""
    finder = getattr(table, "find_index_on", None)
    if finder is None:
        return None
    index = finder(list(column_names))
    if index is not None:
        return index, list(range(len(column_names)))
    for position, name in enumerate(column_names):
        index = finder([name])
        if index is not None:
            return index, [position]
    return None
