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
``column_values`` (one live column); an index probe gathers the rows it
found through ``slot_columns``.

Writes are columnar too: ``append_rows`` transposes a batch once and
coerces, constraint-checks, indexes and appends it a column at a time
(``append_columns`` is the same tail over columns as they come, and
``insert_row`` over a batch of one), and
``table_from_columns`` — types inferred per column — is the one loader
that makes a result a table: a result held as columns is loaded as it
is, and a producer of rows reaches it through one transpose
(``table_from_rows``).
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import not_
from typing import Any, Iterable, Iterator, Sequence

from .errors import ConstraintViolation, SchemaError, TypeMismatchError
from .indexes import HashIndex, IndexType, build_index
from .schema import Column, TableSchema
from .types import DataType, coerce_value
from .vectors import ColumnVector

#: Compaction triggers when both hold: enough dead slots to be worth a
#: rebuild, and dead slots outnumbering a quarter of the heap.
COMPACT_MIN_DELETED = 64
COMPACT_DEAD_FRACTION = 4  # dead * 4 > total  <=>  >25% dead

_NULL = type(None)
#: The exact Python types a column stores as they are: a value list
#: whose ``set(map(type, ...))`` fits needs no ``coerce_value``.
_STORED_AS_IS = {DataType.INTEGER: {int, _NULL}, DataType.REAL: {float, _NULL},
                 DataType.TEXT: {str, _NULL}, DataType.BOOLEAN: {bool, _NULL}}


def _narrowest(kinds: set[type]) -> DataType:
    """The narrowest DataType holding values of every type in *kinds*
    (subclasses count as ``isinstance`` would have them)."""
    kinds = kinds - {_NULL}
    if not kinds \
            or not all(issubclass(kind, (int, float)) for kind in kinds):
        return DataType.TEXT
    if any(issubclass(kind, float) for kind in kinds):
        return DataType.REAL
    return DataType.BOOLEAN if all(
        issubclass(kind, bool) for kind in kinds) else DataType.INTEGER


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Pick the narrowest DataType that holds every non-NULL value."""
    return _narrowest(set(map(type, values)))


def _transposed(name: str, batch: list, width: int
                ) -> tuple[list, int, SchemaError | None]:
    """One value tuple per column over the longest prefix of *batch*
    whose rows all have *width* values; the prefix's length; and the
    arity error of the row that ended it, if one did."""
    error = None
    if set(map(len, batch)) - {width}:
        bad = next(i for i, row in enumerate(batch) if len(row) != width)
        error = SchemaError(f"table {name!r} expects {width} values, "
                            f"got {len(batch[bad])}")
        batch = batch[:bad]
    return (list(zip(*batch)) if batch else [()] * width), len(batch), error


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

    def last_rows(self, count: int) -> list[tuple]:
        """The *count* most recently appended rows, as stored."""
        start = len(self._row_ids) - count
        return list(zip(*(column.values[start:]
                          for column in self._columns)))

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

    def slot_columns(self) -> tuple[list[list], dict[int, int]]:
        """Every column's value list, dead slots included, and the map
        from row id to slot: what a gather by row id reads."""
        return [column.values for column in self._columns], self._slots

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

    def _all_indexes(self) -> list[IndexType]:
        """UNIQUE indexes, the PRIMARY KEY's, then the secondary ones."""
        constraint_indexes = list(self._unique_indexes)
        if self._pk_index is not None:
            constraint_indexes.append(self._pk_index)
        return constraint_indexes + list(self.indexes.values())

    # -- mutation ------------------------------------------------------------

    def insert_row(self, values: dict[str, Any]) -> int:
        """Insert one row given a column-name -> value mapping."""
        unknown = [key for key in values if not self.schema.has_column(key)]
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column {unknown[0]!r}")
        row = self._check_and_prepare(values)
        self._store([(value,) for value in row], 1)
        return self._next_row_id - 1

    def append_rows(self, rows: Iterable[Sequence],
                    names: Sequence[str] | None = None) -> None:
        """Bulk append — every multi-row producer's way in.

        *rows* are positional over *names* (default: every column, in
        schema order); a column left out takes its default, else NULL.
        Observably ``for row in rows: insert_row(...)``: same stored
        values, row ids and index entries, and when row *k* fails (wrong
        arity, ``TypeMismatchError``, ``ConstraintViolation``, or *rows*
        itself raising) rows ``0..k-1`` are stored before its error
        propagates.  The work, though, is per column.
        """
        batch: list[Sequence] = []
        error = None
        try:
            batch.extend(rows)
        except Exception as exc:  # re-raised once the rows before it are in
            error = exc
        given, count, arity_error = _transposed(
            self.name, batch,
            len(self.schema) if names is None else len(names))
        self.append_columns(given, names, count)
        if arity_error or error:
            raise arity_error or error

    def append_columns(self, cols: Sequence[Sequence],
                       names: Sequence[str] | None = None,
                       length: int | None = None) -> None:
        """:meth:`append_rows` of the rows *cols* hold, one sequence per
        name in *names* (*length* of them, if no column tells), with no
        row tuple built: how ``INSERT ... SELECT`` appends its result."""
        count = len(cols[0]) if length is None else length
        if names is not None:
            by_position = {self.schema.position_of(name): column
                           for name, column in zip(names, cols)}
            cols = [by_position.get(position)
                    for position in range(len(self.schema))]
        self._append_columns(
            cols, [None if column is None else set(map(type, column))
                   for column in cols], count)

    def _append_columns(self, given: list, kinds: list, count: int) -> None:
        """Store *count* rows handed over as one value sequence per
        schema column (``None``: left out) plus each sequence's type
        set — up to the first row that fails, whose error is raised."""
        error: Exception | None = None
        prepared = []
        for column, values, kind in zip(self.schema.columns, given, kinds):
            if values is None:
                default = column.default if column.has_default else None
                values, kind = (default,) * count, {type(default)}
            if not kind <= _STORED_AS_IS[column.data_type]:
                coerced: list = []
                try:
                    coerced.extend(map(coerce_value, values,
                                       repeat(column.data_type)))
                except TypeMismatchError as exc:
                    if len(coerced) < count:
                        count, error = len(coerced), exc
                values = coerced
            if not column.nullable and _NULL in kind \
                    and None in values[:count]:
                count = values.index(None)
                error = ConstraintViolation(
                    f"column {column.name!r} of table {self.name!r} "
                    f"is NOT NULL")
            prepared.append(values)
        self._store(prepared, count, error)

    def _store(self, prepared: list, count: int,
               error: Exception | None = None) -> None:
        """Index and append the first *count* values of each (coerced,
        constraint-checked) column of *prepared* — stopping short of the
        first row an index refuses — then raise the pending error."""
        first = self._next_row_id
        indexed = []
        for index in self._all_indexes():
            keys = [prepared[self.schema.position_of(name)]
                    for name in index.column_names]
            done = 0
            try:
                for row_id, key in zip(range(first, first + count),
                                       zip(*keys)):
                    index.insert(row_id, key)
                    done += 1
            except ConstraintViolation as exc:
                count, error = done, exc
            indexed.append((index, keys, done))
        for index, keys, done in indexed:
            for offset in range(count, done):  # rows past the failing one
                index.delete(first + offset,
                             tuple(column[offset] for column in keys))
        slot = len(self._row_ids)
        self._slots.update(zip(range(first, first + count),
                               range(slot, slot + count)))
        self._row_ids.extend(range(first, first + count))
        self._deleted.extend(bytes(count))
        for vector, values in zip(self._columns, prepared):
            # Copied into the vector's own list, never adopted.
            vector.extend(values if len(values) == count
                          else values[:count])
        self._next_row_id += count
        if error is not None:
            raise error

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


def table_from_columns(name: str, column_names: Sequence[str],
                       cols: Sequence[Sequence],
                       coerce: bool = True) -> Table:
    """A fully loaded table of one value sequence per column — the
    loader under temp tables, and what types a foreign source's rows.
    Each column's
    type is inferred from its values; values the storage model does not
    know (RDF terms, say) are stored as their ``str``; every column must
    have the same length.  With *coerce* off the values are stored as
    given rather than coerced to their column's type (a column mixing
    ``5`` and ``'x'`` keeps the ``5``).  The sequences are read, never
    adopted: a write to the table must not reach them.  The caller
    publishes the table, so nobody ever sees it half loaded.
    """
    count = _column_count(name, column_names, cols)
    given, kinds = _storable(cols, [set(map(type, column))
                                    for column in cols])
    table = Table(TableSchema(name, [
        Column(column_name, _narrowest(kind))
        for column_name, kind in zip(column_names, kinds)]))
    if coerce:
        table._append_columns(given, kinds, count)
    else:
        table._store(given, count)
    return table


def _column_count(name: str, column_names: Sequence[str],
                  cols: Sequence[Sequence]) -> int:
    """The common length of *cols*, one per name of *column_names*."""
    if len(cols) != len(column_names):
        raise SchemaError(f"table {name!r} expects {len(column_names)} "
                          f"columns, got {len(cols)}")
    lengths = set(map(len, cols))
    if len(lengths) > 1:
        raise SchemaError(f"table {name!r}: columns of unequal lengths "
                          f"{sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _storable(cols: Sequence[Sequence], kinds: list[set[type]]
              ) -> tuple[list, list[set[type]]]:
    """*cols* with every value the storage model does not know replaced
    by its ``str``, and each column's type set after that: a column of
    known types is handed on as it is, never copied."""
    given, kinds = list(cols), list(kinds)
    for position, kind in enumerate(kinds):
        if not all(issubclass(k, (int, float, str, _NULL)) for k in kind):
            given[position] = [
                value if value is None
                or isinstance(value, (int, float, str)) else str(value)
                for value in given[position]]
            kinds[position] = set(map(type, given[position]))
    return given, kinds


class BoundView:
    """A relation a statement reads under a name bound per run, as ``?``
    values are (a mediated view's shipped rows): a read-only, index-free
    stand-in for a table that the planner sizes and a
    :class:`~repro.relational.operators.ViewScan` reads.

    :meth:`of` types it as :func:`table_from_columns` types a table —
    each column the narrowest type of its values, a column of mixed
    types coerced to it unless *coerce* is off, unknown objects as their
    ``str`` — from each column's type set (*kinds*), and holds the
    columns it was given wherever they need no change: it never
    writes them, so they may be shared (a cached fragment's).  ``cols``
    is ``None`` for a view planned but never run (an explain's unshipped
    view), sized by an estimate.
    """

    __slots__ = ("name", "schema", "cols", "length")

    def __init__(self, schema: TableSchema, cols: list[list] | None,
                 length: float) -> None:
        self.name = schema.name
        self.schema = schema
        self.cols = cols
        self.length = length

    @classmethod
    def of(cls, name: str, column_names: Sequence[str],
           cols: Sequence[Sequence], kinds: list[set[type]],
           coerce: bool = True) -> "BoundView":
        count = _column_count(name, column_names, cols)
        given, kinds = _storable(cols, kinds)
        types = [_narrowest(kind) for kind in kinds]
        for position, (kind, data_type) in enumerate(zip(kinds, types)):
            if coerce and not kind <= _STORED_AS_IS[data_type]:
                given[position] = list(map(coerce_value, given[position],
                                           repeat(data_type)))
        return cls(TableSchema(name, list(map(Column, column_names,
                                              types))), given, count)

    @property
    def signature(self) -> tuple:
        """What a tree built over this view relies on: its column names
        and types."""
        return tuple((column.name, column.data_type)
                     for column in self.schema.columns)

    def __len__(self) -> int:
        return int(self.length)


def table_from_rows(name: str, column_names: Sequence[str],
                    rows: Iterable[Sequence]) -> Table:
    """:func:`table_from_columns` over *rows*, transposed once (a row of
    the wrong arity is a ``SchemaError``): how a producer that has rows
    — a CSV foreign source, say — reaches the loader."""
    given, _count, error = _transposed(
        name, rows if isinstance(rows, list) else list(rows),
        len(column_names))
    if error is not None:
        raise error
    return table_from_columns(name, column_names, given)


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
