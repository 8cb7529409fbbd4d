"""Column paths: how a relation names the rows holding a value.

A :class:`~repro.relational.table.Table` and a held
:class:`~repro.relational.table.BoundView` each own one
:class:`ColumnPaths`, and only it answers "the rows ``column op keys``
names, or decline" for a scan's access path and for an index join's
probe.  It holds two kinds of path, built on demand, beside the
declared indexes:

* **a column's lookup** (:func:`build_lookup`), raw value to the ascending
  slots holding it, answers every column's ``=`` and ``IN`` and every
  index join's probe — any table column, declared index or not, and a
  held view's column — built by the first such read.  A table's is kept
  up by every write: an append adds its new slots, a DELETE takes one
  slot out of its bucket and an UPDATE moves it to its new value's
  bucket (both by bisect); a compaction, which renumbers the slots, and
  a truncate drop it.  A held view's takes the rows of a view grown
  from it, which shares it, and a probe reads only the slots below its
  own view's length;
* **a table column's sorted path** (:class:`SortedColumn`) answers its
  ranges: built by the first range read over it, merged into by an
  append and dropped by any other write.

A **declared index** (:class:`HashIndex`) — a table's PRIMARY KEY,
UNIQUE columns and ``CREATE INDEX`` es — is a constraint, not a path:
a UNIQUE one enforces its key.  Only a UNIQUE index stores anything:
the set of its live keys.  The kind, ``hash`` or ``sorted``, is a label
the DDL, journal and snapshot carry; ``sorted`` allows one column.

On-demand paths are never journaled or snapshotted; readers racing to
build one each build an equal path, and one is kept.
"""

from __future__ import annotations

import bisect
from array import array
from collections import defaultdict
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ConstraintViolation, SchemaError
from .schema import TableSchema, fold
from .types import literal_family, one_family, sql_keys

#: The range operators a sorted path answers by a bisected span.
RANGES = frozenset(("<", "<=", ">", ">="))
#: Up to this many appended values go into a sorted path one by one;
#: more are merged in by one sort of the two runs.
_MERGE_ONE_BY_ONE = 16


class HashIndex:
    """A declared index over one or more columns of a table.  A UNIQUE
    one (the PRIMARY KEY's included) keeps the set of its live keys,
    each the :func:`~repro.relational.types.sql_keys` of its values (a
    key holding NULL never), and refuses a second row with one; any
    other keeps nothing."""

    def __init__(self, name: str, table_name: str, column_names: list[str],
                 unique: bool = False, kind: str = "hash") -> None:
        self.name = name
        self.table_name = table_name
        self.column_names = list(column_names)
        self.unique = unique
        self.kind = kind
        self.keys: set[tuple] = set()

    def _key(self, values: tuple) -> tuple | None:
        if None in values:
            return None
        return sql_keys(values)

    def insert(self, values: tuple) -> None:
        key = self._key(values)
        if key is None:
            return
        if key in self.keys:
            raise ConstraintViolation(
                f"UNIQUE index {self.name!r} violated by key {values!r}")
        self.keys.add(key)

    def delete(self, values: tuple) -> None:
        self.keys.discard(self._key(values))

    def clear(self) -> None:
        """Drop every key (the index definition stays)."""
        self.keys.clear()


class SortedColumn:
    """One table column's live non-NULL values in ascending order
    (``keys``), beside the slot each sits at (``slots``), and its live
    NULL slots ascending (``nulls``): what a range conjunct bisects, and
    what a scan walks to hand its rows out in the column's order
    (:meth:`walk`).  Equal keys sit in slot order: the path is built by
    a stable sort of ascending slots, and :meth:`merge` puts appended
    slots after their equals.  Only a column of one ``family`` has one
    — its raw ``<`` then orders as ``compare_values`` does."""

    __slots__ = ("keys", "slots", "nulls", "family")

    def __init__(self, keys: list, slots: array, nulls: array) -> None:
        self.keys = keys
        self.slots = slots
        self.nulls = nulls
        self.family = literal_family(keys[0]) if keys else None

    def span(self, op: str, key: Any) -> tuple[int, int]:
        """The ``[start, stop)`` of the keys ``key_column op key`` holds
        for (*op* one of :data:`RANGES`)."""
        keys = self.keys
        if op == ">":
            return bisect.bisect_right(keys, key), len(keys)
        if op == ">=":
            return bisect.bisect_left(keys, key), len(keys)
        if op == "<":
            return 0, bisect.bisect_left(keys, key)
        return 0, bisect.bisect_right(keys, key)

    def walk(self, descending: bool, first: int, most: int
             ) -> Iterator[Sequence[int]]:
        """The live slots in the column's order — ascending with the
        NULLs last, or descending with the NULLs first, each run of
        equal keys in slot order — a batch at a time: about *first*
        slots, then twice as many each time up to *most*, every batch
        ending where a run does (the NULLs are one run)."""
        keys, slots = self.keys, self.slots
        size = first
        if descending:
            if self.nulls:
                yield self.nulls
            stop = len(keys)
            while stop:
                start = max(stop - size, 0)
                start = bisect.bisect_left(keys, keys[start], 0, start)
                # The runs from the highest down, each in slot order.
                yield list(map(slots.__getitem__, sorted(
                    range(start, stop), key=keys.__getitem__,
                    reverse=True)))
                stop, size = start, min(size * 2, most)
        else:
            start, count = 0, len(keys)
            while start < count:
                stop = min(start + size, count)
                stop = bisect.bisect_right(keys, keys[stop - 1], stop)
                yield slots[start:stop]
                start, size = stop, min(size * 2, most)
            if self.nulls:
                yield self.nulls

    def merge(self, values: list, first: int) -> bool:
        """Take in the slots of the column's *values* from *first* on,
        just appended: whether they keep it one family."""
        fresh = range(first, len(values))
        added = [slot for slot in fresh if values[slot] is not None]
        if len(added) < len(fresh):
            self.nulls.extend(slot for slot in fresh if values[slot] is None)
        if not added:
            return True
        if not one_family(self.keys[:1] + list(map(values.__getitem__,
                                                    added))):
            return False
        if len(added) > _MERGE_ONE_BY_ONE:
            # Two sorted runs: the sort merges them (stable: the new
            # slots, the highest, go after their equals).
            self.slots = array("q", sorted(chain(self.slots, added),
                                           key=values.__getitem__))
            self.keys = list(map(values.__getitem__, self.slots))
        else:
            keys, slots = self.keys, self.slots
            for slot in added:
                position = bisect.bisect_right(keys, values[slot])
                keys.insert(position, values[slot])
                slots.insert(position, slot)
        self.family = literal_family(self.keys[0])
        return True


def _sorted(table, position: int) -> SortedColumn | None:
    """Column *position*'s sorted path — a sort of its live non-NULL
    slots by value, beside its live NULL slots — or ``None`` when their
    values span more than one family."""
    columns, live = table.slot_columns()
    values = columns[position]
    slots = [slot for slot in live.values() if values[slot] is not None]
    if not one_family(list(map(values.__getitem__, slots))):
        return None
    nulls = array("q", (slot for slot in live.values()
                        if values[slot] is None))
    slots = array("q", sorted(slots, key=values.__getitem__))
    return SortedColumn(list(map(values.__getitem__, slots)), slots, nulls)


def build_lookup(values: Sequence, slots: Iterable[int],
                 into: defaultdict | None = None) -> defaultdict:
    """The lookup of *values* at *slots* (ascending): each non-NULL
    value, as stored, to the ascending slots holding it — added *into*
    a lookup whose slots all come before them, when given (a hash
    join's build lists its repeated keys' row ids so too).  Keys are
    raw values — within one family their own ``sql_key`` s — so a probe
    by a key of the column's family finds exactly the rows its ``=``
    holds for (``1`` finds ``1.0``).  In a column mixing families ``1``
    would find ``TRUE`` too: such a column has no type, and a scan
    offers no path over it."""
    rows = defaultdict(list) if into is None else into
    for slot in slots:
        rows[values[slot]].append(slot)
    rows.pop(None, None)
    return rows


def _leave(lookup: defaultdict, value: Any, slot: int) -> None:
    """Take *slot*, which holds *value*, out of *lookup*."""
    if value is not None:
        bucket = lookup[value]
        del bucket[bisect.bisect_left(bucket, slot)]
        if not bucket:
            del lookup[value]


class ColumnPaths:
    """One relation's column paths.  A table's store (*schema* given)
    answers ``=`` / ``in`` on any column through the column's lookup and
    ranges through the sorted path, keeps the declared indexes (the
    UNIQUE ones' keys up to date) and is told of every write; a
    view's answers ``=`` / ``in`` through the lookup once :meth:`hold`
    is called, and nothing before.  A read is handed the relation (its
    value lists), which the store never keeps."""

    __slots__ = ("schema", "declared", "created", "_lookups", "_sorted")

    def __init__(self, schema: TableSchema | None = None) -> None:
        self.schema = schema
        #: Every declared index — the UNIQUE columns', the PRIMARY
        #: KEY's, then each ``CREATE INDEX``'s — and the last by folded
        #: name.
        self.declared: list[HashIndex] = []
        self.created: dict[str, HashIndex] = {}
        #: Column position -> its on-demand lookup; ``None`` while a
        #: view is bound to one run.
        self._lookups: dict[int, defaultdict] | None = None
        #: Column position -> its sorted path (``None``: the column
        #: cannot have one).
        self._sorted: dict[int, SortedColumn | None] = {}
        if schema is None:
            return
        self._lookups = {}
        self.declared = [
            HashIndex(f"__uq_{schema.name}_{column.name}", schema.name,
                      [column.name], unique=True)
            for column in schema.columns
            if column.unique and not column.primary_key]
        if schema.primary_key:
            self.declared.append(HashIndex(
                f"__pk_{schema.name}", schema.name,
                list(schema.primary_key), unique=True))

    # -- reads -----------------------------------------------------------------

    def offers(self, op: str, position: int) -> bool:
        """Whether :meth:`named` may answer ``column op`` on column
        *position* (a run may still decline): a table's any, a view's
        ``=`` and ``in`` (once held), and no range."""
        return self.schema is not None or op not in RANGES

    def named(self, relation, op: str, position: int, keys: Sequence,
              limit: int) -> tuple[int, Callable[[], Sequence[int]]] | None:
        """How many rows of *relation* ``column op key`` holds for, over
        *keys* (one key; for ``in`` any of them, each of the column's
        family), and a thunk of their slots ascending — or
        ``None`` when no path answers, or they are *limit* or more."""
        if op in RANGES:
            found = self.path(relation, position, op)
            if found is None \
                    or found.family not in (None, literal_family(keys[0])):
                return None
            start, stop = found.span(op, keys[0])
            if stop - start >= limit:
                return None
            return stop - start, lambda: sorted(found.slots[start:stop])
        lookup = self.path(relation, position, op)
        if lookup is None:
            return None
        # Each key's slots are an ascending run, disjoint from the others.
        # A view's are cut at its length, and so copied: a view grown
        # from it shares the lookup and appends to the buckets, before
        # or while a run reads them.
        view = self.schema is None
        count, buckets = 0, []
        for bucket in filter(None, map(lookup.get, keys)):
            if view:
                bucket = bucket[:bisect.bisect_left(bucket, relation.length)]
            count += len(bucket)
            if count >= limit:
                return None
            buckets.append(bucket)
        if len(buckets) == 1:
            return count, lambda: buckets[0]
        return count, lambda: sorted(chain.from_iterable(buckets))

    def path(self, relation, position: int, op: str = "=") -> Any:
        """Column *position*'s on-demand path for *op* over *relation*,
        built on first use: for ``=`` / ``in`` its lookup (``None``
        while a view is not held), for a range a table's sorted path
        (``None`` when the column's values span families)."""
        built = self._sorted if op in RANGES else self._lookups
        if built is None:
            return None
        found = built.get(position, False)
        if found is False:
            if op in RANGES:
                found = _sorted(relation, position)
            elif self.schema is None:
                values = relation.cols[position]
                found = build_lookup(values, range(len(values)))
            else:
                columns, live = relation.slot_columns()
                found = build_lookup(columns[position], live.values())
            built[position] = found
        return found

    def built(self, position: int) -> bool:
        """Whether column *position*'s lookup is built (building none)."""
        return position in (self._lookups or ())

    def hold(self) -> None:
        """Many runs will read this view: let them probe it."""
        if self._lookups is None:
            self._lookups = {}

    def find(self, column_names: Iterable[str]) -> HashIndex | None:
        """The first declared index over exactly these columns."""
        wanted = list(map(fold, column_names))
        return next((index for index in self.declared
                     if list(map(fold, index.column_names)) == wanted),
                    None)

    # -- writes ----------------------------------------------------------------

    def _unique(self) -> list[HashIndex]:
        return [index for index in self.declared if index.unique]

    def _key(self, index: HashIndex, row: Sequence) -> tuple:
        return tuple(row[self.schema.position_of(name)]
                     for name in index.column_names)

    def insert(self, cols: Sequence[Sequence], count: int
               ) -> tuple[int, ConstraintViolation | None]:
        """Enter the keys of the rows *cols* holds (one value sequence
        per column) in the UNIQUE indexes, up to the first of the
        *count* one refuses: how many went in, and the refusal."""
        refused = None
        entered = []
        for index in self._unique():
            keys = [cols[self.schema.position_of(name)]
                    for name in index.column_names]
            done = 0
            try:
                for key in islice(zip(*keys), count):
                    index.insert(key)
                    done += 1
            except ConstraintViolation as exc:
                count, refused = done, exc
            entered.append((index, keys, done))
        for index, keys, done in entered:
            for offset in range(count, done):  # rows past the refused one
                index.delete(tuple(column[offset] for column in keys))
        return count, refused

    def merge(self, cols: list[list], first: int) -> None:
        """The slots from *first* on were just appended to *cols*."""
        for position, lookup in self._lookups.items():
            build_lookup(cols[position],
                         range(first, len(cols[position])), lookup)
        for position, path in list(self._sorted.items()):
            if path is not None and not path.merge(cols[position], first):
                self._sorted[position] = None

    def delete(self, slot: int, row: tuple) -> None:
        """The row at *slot* is deleted."""
        for index in self._unique():
            index.delete(self._key(index, row))
        for position, lookup in self._lookups.items():
            _leave(lookup, row[position], slot)
        self._sorted.clear()

    def update(self, slot: int, old_row: tuple, new_row: tuple) -> None:
        """Re-key the row at *slot*; on a refusal, put its old keys back
        and raise it."""
        unique = self._unique()
        for index in unique:
            index.delete(self._key(index, old_row))
        inserted: list[tuple[HashIndex, tuple]] = []
        try:
            for index in unique:
                key = self._key(index, new_row)
                index.insert(key)
                inserted.append((index, key))
        except ConstraintViolation:
            for index, key in inserted:
                index.delete(key)
            for index in unique:
                index.insert(self._key(index, old_row))
            raise
        for position, lookup in self._lookups.items():
            old, new = old_row[position], new_row[position]
            if old != new:
                _leave(lookup, old, slot)
                if new is not None:
                    bisect.insort(lookup[new], slot)
        self._sorted.clear()

    def forget(self) -> None:
        """The slots were renumbered: drop every on-demand path."""
        self._lookups.clear()
        self._sorted.clear()

    def clear(self) -> None:
        for index in self.declared:
            index.clear()
        self.forget()

    def declare(self, name: str, column_names: list[str], unique: bool,
                kind: str, rows: Iterable[tuple]) -> HashIndex:
        """``CREATE [UNIQUE] INDEX name ... USING kind``: a UNIQUE one
        enters the keys of *rows*, any other reads none."""
        if fold(name) in self.created:
            raise SchemaError(f"index {name!r} already exists")
        for column_name in column_names:
            if not self.schema.has_column(column_name):
                raise SchemaError(f"table {self.schema.name!r} has no "
                                  f"column {column_name!r}")
        if kind not in ("hash", "sorted"):
            raise ConstraintViolation(f"unknown index kind {kind!r}")
        if kind == "sorted" and len(column_names) != 1:
            raise ConstraintViolation(
                "sorted indexes support exactly one column")
        index = HashIndex(name, self.schema.name, column_names, unique, kind)
        for row in rows if unique else ():
            index.insert(self._key(index, row))
        self.created[fold(name)] = index
        self.declared.append(index)
        return index

    def drop(self, name: str) -> None:
        if fold(name) not in self.created:
            raise SchemaError(f"index {name!r} does not exist")
        self.declared.remove(self.created.pop(fold(name)))
