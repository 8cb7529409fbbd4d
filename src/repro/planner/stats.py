"""The statistics catalog: per-table and per-column summaries.

``StatisticsCatalog.analyze`` scans a table once and records, per
column: non-NULL count, NULL count, number of distinct values, min/max
and (for numeric columns) an equi-width histogram.  The catalog is
maintained *incrementally* on DML routed through the Database facade:
inserts update counts, min/max and histogram buckets in place; deletes
and updates decay the counters.  Live table cardinality is always read
from the heap itself (``len(table)`` is exact and free), so estimates
degrade gracefully between ``ANALYZE`` runs instead of going stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..relational.schema import fold
from ..relational.types import is_number, sql_key

#: Equi-width histogram buckets ANALYZE collects per numeric column.
HISTOGRAM_BUCKETS = 32


@dataclass
class Histogram:
    """Equi-width bucket counts over a numeric column's [low, high]."""

    low: float
    high: float
    counts: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def _bucket_of(self, value: float) -> int:
        if self.high == self.low:
            return 0
        position = (value - self.low) / (self.high - self.low)
        return min(int(position * len(self.counts)), len(self.counts) - 1)

    def add(self, value: float) -> None:
        """Incremental maintenance: count an inserted in-range value."""
        if self.low <= value <= self.high:
            self.counts[self._bucket_of(value)] += 1

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of values ``< value`` (or ``<=``)."""
        if self.total == 0:
            return 0.5
        if value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        width = (self.high - self.low) / len(self.counts)
        bucket = self._bucket_of(value)
        below = sum(self.counts[:bucket])
        # Linear interpolation inside the bucket.
        bucket_start = self.low + bucket * width
        partial = ((value - bucket_start) / width) if width else 0.0
        below += self.counts[bucket] * min(max(partial, 0.0), 1.0)
        fraction = below / self.total
        if inclusive and self.total:
            fraction = min(fraction + 1.0 / self.total, 1.0)
        return fraction

    def fraction_equal(self, value: float) -> float | None:
        """Estimated fraction of values equal to ``value`` (bucket/width)."""
        if self.total == 0:
            return None
        if value < self.low or value > self.high:
            return 0.0
        return self.counts[self._bucket_of(value)] / self.total


@dataclass
class ColumnStats:
    """Summary of one column at ANALYZE time (plus incremental deltas)."""

    name: str
    non_null: int = 0
    null_count: int = 0
    distinct: int = 0
    min_value: Any = None
    max_value: Any = None
    histogram: Histogram | None = None

    @property
    def null_fraction(self) -> float:
        total = self.non_null + self.null_count
        return (self.null_count / total) if total else 0.0

    def note_value(self, value: Any) -> None:
        """Fold one inserted value into the summary (distinct is left
        as analyzed: it can only be re-counted by a full scan)."""
        if value is None:
            self.null_count += 1
            return
        self.non_null += 1
        if is_number(value):
            if self.min_value is None or (is_number(self.min_value)
                                          and value < self.min_value):
                self.min_value = value
            if self.max_value is None or (is_number(self.max_value)
                                          and value > self.max_value):
                self.max_value = value
            if self.histogram is not None:
                self.histogram.add(float(value))
        elif isinstance(value, str) and isinstance(self.min_value, str):
            self.min_value = min(self.min_value, value)
            self.max_value = max(self.max_value, value)


@dataclass
class TableStats:
    """Everything the estimator knows about one table."""

    table_name: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(fold(name))


class StatisticsCatalog:
    """Registry of :class:`TableStats`, keyed by folded table name.

    ``version`` moves whenever a table's statistics are collected or
    forgotten (not on the incremental DML upkeep): a plan built on the
    old estimates is stale from then on."""

    def __init__(self) -> None:
        self._stats: dict[str, TableStats] = {}
        self.version = 0

    def __contains__(self, table_name: str) -> bool:
        return fold(table_name) in self._stats

    def get(self, table_name: str) -> TableStats | None:
        return self._stats.get(fold(table_name))

    def table_names(self) -> list[str]:
        return sorted(stats.table_name for stats in self._stats.values())

    def forget(self, table_name: str) -> None:
        if self._stats.pop(fold(table_name), None) is not None:
            self.version += 1

    def clear(self) -> None:
        self._stats.clear()
        self.version += 1

    # -- collection ---------------------------------------------------------

    def analyze(self, table) -> TableStats:
        """Scan *table* (anything with ``schema`` and ``rows()``) once.

        Columnar tables expose ``column_values``; reading each column
        slice directly skips materializing row tuples entirely.
        """
        schema = table.schema
        column_values = getattr(table, "column_values", None)
        if column_values is not None:
            stats = TableStats(schema.name, row_count=len(table))
            values_of = column_values
        else:
            rows = list(table.rows())
            stats = TableStats(schema.name, row_count=len(rows))

            def values_of(position):
                return [row[position] for row in rows]

        for position, column in enumerate(schema.columns):
            stats.columns[fold(column.name)] = _summarize(
                column.name, values_of(position))
        self._stats[fold(schema.name)] = stats
        self.version += 1
        return stats

    # -- incremental maintenance on DML ------------------------------------

    def note_inserted(self, table_name: str,
                      rows: Iterable[tuple], schema) -> None:
        stats = self.get(table_name)
        if stats is None:
            return
        for row in rows:
            stats.row_count += 1
            for column, value in zip(schema.columns, row):
                column_stats = stats.column(column.name)
                if column_stats is not None:
                    column_stats.note_value(value)

    def note_deleted(self, table_name: str, count: int) -> None:
        stats = self.get(table_name)
        if stats is None:
            return
        stats.row_count = max(stats.row_count - count, 0)

    def note_updated(self, table_name: str,
                     new_rows: Iterable[tuple], schema) -> None:
        """An update keeps the row count; widen min/max for new values."""
        stats = self.get(table_name)
        if stats is None:
            return
        for row in new_rows:
            for column, value in zip(schema.columns, row):
                column_stats = stats.column(column.name)
                if column_stats is not None and is_number(value):
                    if is_number(column_stats.min_value) \
                            and value < column_stats.min_value:
                        column_stats.min_value = value
                    if is_number(column_stats.max_value) \
                            and value > column_stats.max_value:
                        column_stats.max_value = value


def _summarize(name: str, values: list[Any]) -> ColumnStats:
    non_null = [value for value in values if value is not None]
    distinct = len(set(map(sql_key, non_null)))
    stats = ColumnStats(
        name=name,
        non_null=len(non_null),
        null_count=len(values) - len(non_null),
        distinct=distinct,
    )
    numbers = [value for value in non_null if is_number(value)]
    if numbers:
        stats.min_value = min(numbers)
        stats.max_value = max(numbers)
        low, high = float(stats.min_value), float(stats.max_value)
        histogram = Histogram(low, high, [0] * HISTOGRAM_BUCKETS)
        for value in numbers:
            histogram.add(float(value))
        stats.histogram = histogram
    elif non_null and all(isinstance(value, str) for value in non_null):
        stats.min_value = min(non_null)
        stats.max_value = max(non_null)
    return stats
