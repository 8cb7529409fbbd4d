"""Secondary index structures for heap tables.

Two index kinds are provided:

* :class:`HashIndex` — equality lookups (the workhorse for enrichment
  joins and foreign-key style probes);
* :class:`SortedIndex` — range lookups via a sorted key list kept in sync
  with bisection (a stand-in for a B-tree; adequate at in-memory scale).

Both map *key tuples* to the ascending ids of their rows; NULL-containing
keys are never indexed (SQL indexes skip NULL keys for uniqueness
purposes).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence

from .errors import ConstraintViolation


def _normalize(value: Any) -> Any:
    """Normalise values so index keys agree with executor equality.

    The tuple tag keeps the SQL type families apart (``1 = TRUE`` is
    false, so booleans must not share a bucket with numbers).  Numbers
    are kept *exact*: Python already hashes ``1`` and ``1.0`` to the
    same bucket, while coercing through ``float`` — as an earlier
    version did — collapses integers beyond 2**53 and makes an index
    probe return rows the executor's ``=`` would reject.  ``None`` maps
    to a dedicated marker so composite keys round-trip NULLs distinctly
    from any storable value (indexes still never *index* NULL keys).
    """
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", value)
    if isinstance(value, str):
        return ("s", value)
    return ("o", value)


class HashIndex:
    """Equality index over one or more columns of a table."""

    kind = "hash"

    def __init__(self, name: str, table_name: str, column_names: list[str],
                 unique: bool = False) -> None:
        self.name = name
        self.table_name = table_name
        self.column_names = list(column_names)
        self.unique = unique
        #: Key -> the ascending ids of its rows.
        self._buckets: dict[tuple, list[int]] = {}

    def _key(self, values: tuple) -> tuple | None:
        if None in values:
            return None
        return tuple(map(_normalize, values))

    def insert(self, row_id: int, values: tuple) -> None:
        key = self._key(values)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [row_id]
            return
        if self.unique:
            raise ConstraintViolation(
                f"UNIQUE index {self.name!r} violated by key {values!r}")
        if bucket[-1] < row_id:
            bucket.append(row_id)   # an append: ids only grow
            return
        position = bisect.bisect_left(bucket, row_id)
        if bucket[position] != row_id:
            bucket.insert(position, row_id)

    def delete(self, row_id: int, values: tuple) -> None:
        key = self._key(values)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            position = bisect.bisect_left(bucket, row_id)
            if position < len(bucket) and bucket[position] == row_id:
                del bucket[position]
            if not bucket:
                del self._buckets[key]

    def lookup(self, values: tuple) -> Sequence[int]:
        """The ascending ids of the rows whose key equals *values* — the
        index's own bucket, not a copy: read it, never write it."""
        key = self._key(values)
        if key is None:
            return ()
        return self._buckets.get(key, ())

    def clear(self) -> None:
        """Drop every entry (the index definition stays)."""
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """Ordered index supporting range scans over a single column."""

    kind = "sorted"

    def __init__(self, name: str, table_name: str, column_names: list[str],
                 unique: bool = False) -> None:
        if len(column_names) != 1:
            raise ConstraintViolation(
                "sorted indexes support exactly one column")
        self.name = name
        self.table_name = table_name
        self.column_names = list(column_names)
        self.unique = unique
        # Parallel arrays of (key, row_id) kept sorted by key then row id.
        self._entries: list[tuple[Any, int]] = []

    @staticmethod
    def _sortable(value: Any) -> Any:
        if isinstance(value, bool):
            return (0, int(value))
        if isinstance(value, (int, float)):
            return (1, float(value))
        return (2, str(value))

    def insert(self, row_id: int, values: tuple) -> None:
        value = values[0]
        if value is None:
            return
        entry = (self._sortable(value), row_id)
        position = bisect.bisect_left(self._entries, entry)
        if self.unique:
            key = entry[0]
            if position < len(self._entries) and self._entries[position][0] == key:
                raise ConstraintViolation(
                    f"UNIQUE index {self.name!r} violated by key {value!r}")
            if position > 0 and self._entries[position - 1][0] == key:
                raise ConstraintViolation(
                    f"UNIQUE index {self.name!r} violated by key {value!r}")
        self._entries.insert(position, entry)

    def delete(self, row_id: int, values: tuple) -> None:
        value = values[0]
        if value is None:
            return
        entry = (self._sortable(value), row_id)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            self._entries.pop(position)

    def _bound(self, value: Any, after: bool) -> int:
        """The entry position where *value*'s run of entries starts, or
        (*after*) ends: row ids are non-negative ints, so ``-1`` sorts
        before any of them and infinity after."""
        entry = (self._sortable(value), float("inf") if after else -1)
        return bisect.bisect_left(self._entries, entry)

    def lookup(self, values: tuple) -> Sequence[int]:
        """The ascending ids of the rows whose key sorts as *values*
        does (a superset of the equal ones: keys compare as floats)."""
        value = values[0]
        if value is None:
            return ()
        return [row_id for _key, row_id in self._entries[
            self._bound(value, False):self._bound(value, True)]]

    def range(self, low: Any = None, high: Any = None,
              low_inclusive: bool = True,
              high_inclusive: bool = True) -> Iterator[int]:
        """Yield row ids whose key falls within [low, high]."""
        start = 0 if low is None else self._bound(low, not low_inclusive)
        stop = len(self._entries) if high is None \
            else self._bound(high, high_inclusive)
        for _key, row_id in self._entries[start:stop]:
            yield row_id

    def clear(self) -> None:
        """Drop every entry (the index definition stays)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


IndexType = HashIndex | SortedIndex


def build_index(kind: str, name: str, table_name: str,
                column_names: Iterable[str], unique: bool = False) -> IndexType:
    """Index factory used by DDL execution."""
    columns = list(column_names)
    if kind == "hash":
        return HashIndex(name, table_name, columns, unique)
    if kind == "sorted":
        return SortedIndex(name, table_name, columns, unique)
    raise ConstraintViolation(f"unknown index kind {kind!r}")
