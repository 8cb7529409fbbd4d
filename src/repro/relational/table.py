"""Columnar table storage with constraint enforcement.

Hot storage is one :class:`~repro.relational.vectors.ColumnVector` per
column — a typed value list plus a null bitmap — instead of the old
``dict[row_id, tuple]`` heap.  The stable-row-id contract that DML and
the WAL rely on is preserved: every live row keeps the id it was
inserted with, deletes flip a bit in a deleted bitmap instead of
shifting slots, and a slot map translates ids to positions.  When more
than a quarter of the slots are dead the table compacts in place
(row ids survive, slots are renumbered — the only slots kept outside
this class are the column paths', which the compaction drops).

Row-oriented accessors (``rows`` / ``rows_with_ids`` / ``row``) keep
their exact shapes, so snapshots, ANALYZE fallbacks, replicas and every
other consumer are unaffected.  The scan operator reads
``iter_batches`` (column-slice batches); ANALYZE reads
``column_values`` (one live column); an access path or an index join
gathers the slots its table's column-path store
(:class:`~repro.relational.indexes.ColumnPaths`, ``paths``) names
through ``slot_columns``.  A column's lookup answers every ``=`` /
``IN`` and every index join's probe, and a column's sorted path its
ranges; the declared indexes (PRIMARY KEY and UNIQUE included) are
constraints, and only a UNIQUE one stores its keys.  Every write tells
the store, which keeps the UNIQUE keys and the lookups up, slot by
slot, and merges an append into the sorted paths or drops them; the
table itself builds no path.

Every write but an append moves the table's ``stamp`` (DELETE,
UPDATE, truncate, compaction; a new table has a fresh one), from one
process-wide counter that :class:`~repro.relational.engine.Database`
floors draw from too, so ``state`` — the stamp and the slot count —
tells a cache of a read over the table whether it only grew since.

Writes are columnar too: ``append_rows`` transposes a batch once and
coerces, constraint-checks, indexes and appends it a column at a time
(``append_columns`` is the same tail over columns as they come, and
``insert_row`` is ``append_rows`` over a batch of one), and
``table_from_columns`` — types inferred per column — is the one loader
that makes a result a table: a result held as columns is loaded as it
is, and a producer of rows reaches it through one transpose
(``table_from_rows``).
"""

from __future__ import annotations

from array import array
from itertools import compress, count, repeat
from operator import not_
from typing import Any, Iterable, Iterator, Sequence

from .batch import Batch, slices
from .errors import ConstraintViolation, SchemaError, TypeMismatchError
from .indexes import ColumnPaths, HashIndex
from .schema import Column, TableSchema
from .types import DataType, coerce_value, null_nans
from .vectors import ColumnVector

#: Compaction triggers when both hold: enough dead slots to be worth a
#: rebuild, and dead slots outnumbering a quarter of the heap.
COMPACT_MIN_DELETED = 64
COMPACT_DEAD_FRACTION = 4  # dead * 4 > total  <=>  >25% dead

#: Process-monotonic source of table stamps and database floors.  Never
#: a generation: ``pin_generation`` may move one back, and a stamp that
#: came round again would match a cache entry of older data.
_STAMPS = count(1)

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


def _family(kind: type) -> str:
    """The comparison family of a storable value type."""
    if issubclass(kind, bool):
        return "bool"
    return "num" if issubclass(kind, (int, float)) else "str"


def new_stamp() -> int:
    """A stamp no table or database had before."""
    return next(_STAMPS)


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


#: The key no row holds: a column no key of the row names.
_ABSENT = object()


def positional_rows(schema: TableSchema,
                    rows: Iterable[dict[str, Any]]) -> Iterator[tuple]:
    """Column-name → value dicts as full positional rows: an omitted
    column takes its default (else NULL), a key names its column as SQL
    does (:meth:`TableSchema.position_of`; of two keys naming one
    column the later wins) and an unknown key is a ``SchemaError`` —
    raised when that row is reached.  The keys are resolved once per
    run of rows that spell them alike."""
    defaults = [column.default if column.has_default else None
                for column in schema.columns]
    keys: tuple | None = None
    for row in rows:
        if tuple(row) != keys:
            keys, spelled = tuple(row), [_ABSENT] * len(defaults)
            for key in keys:
                spelled[schema.position_of(key)] = key
        yield tuple(map(row.get, spelled, defaults))


class Table:
    """An in-memory columnar table plus the column paths over it.

    Values live in per-column vectors addressed by *slot*; a parallel
    ``row_id`` array and deleted bitmap give every row a stable id for
    the life of the table, so deletes never shift other rows.
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
        #: Moved by every write but an append (see :attr:`state`).
        self.stamp = new_stamp()
        #: The column-path store: declared indexes, the columns'
        #: lookups and sorted paths.
        self.paths = ColumnPaths(schema)
        #: The ``CREATE INDEX`` indexes by folded name (the store's).
        self.indexes: dict[str, HashIndex] = self.paths.created

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def state(self) -> tuple[int, int]:
        """What a read of this table saw: its stamp, and its slot count,
        which an append moves and nothing else does without moving the
        stamp.  A later state with the same stamp and more slots is this
        table with rows appended, each after every row it had."""
        return self.stamp, len(self._row_ids)

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

    def iter_batches(self, size: int) -> Iterator[Batch]:
        """Batches of at most *size* live rows, in slot order, each
        column a pending slice of the table's (:func:`~.batch.slices`):
        a column no operator reads is never copied.  Dead slots are
        squeezed out per batch (a pending selection), so consumers never
        see the deleted bitmap."""
        slots = len(self._row_ids)
        columns = [column.values for column in self._columns]
        deleted = self._deleted
        for start in range(0, slots, size):
            end = min(start + size, slots)
            batch = slices(columns, start, end)
            window = deleted[start:end]
            if 1 in window:
                batch = batch.select([flag == 0 for flag in window])
            if batch:
                yield batch

    def slot_columns(self) -> tuple[list[list], dict[int, int]]:
        """Every column's value list, dead slots included, and the map
        from row id to slot (live rows only, slots ascending): what a
        gather by row id reads."""
        return [column.values for column in self._columns], self._slots

    def column_values(self, position: int) -> list:
        """Live values of one column, in row order (ANALYZE reads this)."""
        values = self._columns[position].values
        if self._deleted_count == 0:
            return list(values)
        return list(compress(values, map(not_, self._deleted)))

    # -- constraint helpers --------------------------------------------------

    def _check_and_prepare(self, values: dict[str, Any]) -> tuple:
        """Coerce a full row's column-name → value dict (an updated
        row) to a row tuple, enforcing NOT NULL."""
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

    # -- mutation ------------------------------------------------------------

    def insert_row(self, values: dict[str, Any]) -> int:
        """Insert one row given a column-name -> value mapping: a
        one-row :meth:`append_rows`.  Returns its row id."""
        self.append_rows(positional_rows(self.schema, (values,)))
        return self._next_row_id - 1

    def append_rows(self, rows: Iterable[Sequence],
                    names: Sequence[str] | None = None) -> None:
        """Bulk append — every multi-row producer's way in.

        *rows* are positional over *names* (default: every column, in
        schema order); a column left out takes its default, else NULL.
        Observably the rows stored one at a time, in order: same stored
        values, row ids and UNIQUE keys, and when row *k* fails (wrong
        arity, ``TypeMismatchError``, ``ConstraintViolation``, or *rows*
        itself raising) rows ``0..k-1`` are stored before its error
        propagates.  *rows* is drained before any row is stored.  The
        work, though, is per column.
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
            given_values = values
            if not kind <= _STORED_AS_IS[column.data_type]:
                coerced: list = []
                try:
                    coerced.extend(map(coerce_value, values,
                                       repeat(column.data_type)))
                except TypeMismatchError as exc:
                    if len(coerced) < count:
                        count, error = len(coerced), exc
                values = coerced
            elif float in kind:
                values = null_nans(values)
            # A NULL is given, or made of a NaN by coercion or null_nans.
            if not column.nullable and (
                    _NULL in kind or values is not given_values) \
                    and None in values[:count]:
                count = values.index(None)
                error = ConstraintViolation(
                    f"column {column.name!r} of table {self.name!r} "
                    f"is NOT NULL")
            prepared.append(values)
        self._store(prepared, count, error)

    def _store(self, prepared: list, count: int,
               error: Exception | None = None) -> None:
        """Enter the UNIQUE keys of, and append, the first *count* values
        of each (coerced, constraint-checked) column of *prepared* —
        stopping short of the first row an index refuses — then raise
        the pending error."""
        first = self._next_row_id
        count, refused = self.paths.insert(prepared, count)
        error = refused or error
        slot = len(self._row_ids)
        self._slots.update(zip(range(first, first + count),
                               range(slot, slot + count)))
        self._row_ids.extend(range(first, first + count))
        self._deleted.extend(bytes(count))
        for vector, values in zip(self._columns, prepared):
            # Copied into the vector's own list, never adopted.
            vector.extend(values if len(values) == count
                          else values[:count])
        self.paths.merge(self.slot_columns()[0], slot)
        self._next_row_id += count
        if error is not None:
            raise error

    def delete_row(self, row_id: int) -> None:
        slot = self._slots[row_id]
        self.stamp = new_stamp()
        self.paths.delete(slot, tuple(column.values[slot]
                                      for column in self._columns))
        del self._slots[row_id]
        self._deleted[slot] = 1
        self._deleted_count += 1
        if self._deleted_count > COMPACT_MIN_DELETED and \
                self._deleted_count * COMPACT_DEAD_FRACTION \
                > len(self._row_ids):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the vectors without dead slots (row ids survive)."""
        self.stamp = new_stamp()
        live = [flag == 0 for flag in self._deleted]
        for column in self._columns:
            column.rebuild(live)
        self._row_ids = array("q", compress(self._row_ids, live))
        self._deleted = bytearray(len(self._row_ids))
        self._deleted_count = 0
        self._slots = {row_id: slot
                       for slot, row_id in enumerate(self._row_ids)}
        self.paths.forget()

    def update_row(self, row_id: int, changes: dict[int, Any]) -> None:
        """Apply changes, by column position, to one row, re-checking
        constraints."""
        slot = self._slots[row_id]
        self.stamp = new_stamp()
        old_row = tuple(column.values[slot] for column in self._columns)
        names = self.schema.column_names()
        values = dict(zip(names, old_row))
        for position, value in changes.items():
            values[names[position]] = value
        new_row = self._check_and_prepare(values)
        self.paths.update(slot, old_row, new_row)
        for column, value in zip(self._columns, new_row):
            column.set(slot, value)

    def truncate(self) -> None:
        self.stamp = new_stamp()
        for column in self._columns:
            column.clear()
        self._row_ids = array("q")
        self._deleted = bytearray()
        self._deleted_count = 0
        self._slots.clear()
        self.paths.clear()

    # -- secondary index management -------------------------------------------

    def create_index(self, name: str, column_names: list[str],
                     unique: bool = False, kind: str = "hash") -> HashIndex:
        return self.paths.declare(name, column_names, unique, kind,
                                  self.rows())

    def drop_index(self, name: str) -> None:
        self.paths.drop(name)


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
    ``str`` — from each column's type set (*kinds*); with *coerce* off,
    a column whose values span two families (``TRUE`` beside ``1``,
    ``5`` beside ``'x'``) has no type, since its raw values neither hash
    nor order as ``values_equal`` / ``compare_values`` do, so every
    kernel over it takes the generic path.  Its values hold no NaN: they
    are a source's result or an extraction's ``to_sql_value`` s, where a
    NaN is already NULL.  It holds the
    columns it was given wherever they need no change: it never
    writes them, so they may be shared (a cached fragment's).  ``cols``
    is ``None`` for a view planned but never run (an explain's unshipped
    view), sized by an estimate.

    Its rows are the first ``length`` of each list in ``cols``: the
    lists may run on past it, and every read stops there (a
    :class:`~repro.relational.operators.ViewScan`, a lookup probe).
    That is how a held view grows in place (:meth:`grown`): the grown
    view appends to the same lists and a reader of this one never sees
    the new rows.  A lookup is built over every row the lists hold, so
    the views over one set of lists share one column-path store; a view
    grown into copies of its lists has a store of its own.

    Its column-path store (``paths``) answers nothing until the view is
    bound to more runs than one (a mediated view its session holds,
    :meth:`hold`); then, per column a run probes, it keeps a lookup from
    value to the ids of the rows holding it, shared with the views grown
    from it in place and dropped with the last of them.
    """

    __slots__ = ("name", "schema", "cols", "length", "paths")

    def __init__(self, schema: TableSchema, cols: list[list] | None,
                 length: float, paths: ColumnPaths | None = None) -> None:
        self.name = schema.name
        self.schema = schema
        self.cols = cols
        self.length = length
        self.paths = ColumnPaths() if paths is None else paths

    @classmethod
    def of(cls, name: str, column_names: Sequence[str],
           cols: Sequence[Sequence], kinds: list[set[type]],
           coerce: bool = True) -> "BoundView":
        count = _column_count(name, column_names, cols)
        given, kinds = _storable(cols, kinds)
        types = [_narrowest(kind) for kind in kinds]
        for position, (kind, data_type) in enumerate(zip(kinds, types)):
            if kind <= _STORED_AS_IS[data_type]:
                continue
            if coerce:
                given[position] = list(map(coerce_value, given[position],
                                           repeat(data_type)))
            elif len(set(map(_family, kind - {_NULL}))) > 1:
                types[position] = None
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

    def hold(self) -> None:
        """This view will be bound to many runs: let them probe it."""
        self.paths.hold()

    def grown(self, more: list[list], copy: bool = False) -> "BoundView":
        """This view's rows, then the rows *more* holds (one value list
        per column, of types this view's columns were typed from — a
        coerced view's, coerced as :meth:`of` does): appended to this
        view's lists and merged into its lookups, which the grown view
        shares — or, when *copy* (the lists are others' too: a cached
        fragment's), appended to copies of them, under lookups of the
        grown view's own.  This view still reads only its own rows."""
        given, kinds = _storable(more, [set(map(type, column))
                                        for column in more])
        first = len(self)
        if copy:
            cols, paths = [column[:first] for column in self.cols], \
                ColumnPaths()
        else:
            cols, paths = self.cols, self.paths
        for column, values, kind, target in zip(self.schema.columns, given,
                                                kinds, cols):
            if not kind <= _STORED_AS_IS[column.data_type]:
                values = map(coerce_value, values,
                             repeat(column.data_type))
            target.extend(values)
        if not copy:
            paths.merge(cols, first)
        return BoundView(self.schema, cols, len(cols[0]) if cols else first,
                         paths)


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
