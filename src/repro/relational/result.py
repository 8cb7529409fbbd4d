"""Query results: materialized sets and streaming cursors.

:class:`ResultSet` is the fully-materialized container the engine has
always returned — a database SELECT's holds the columns its run
collected, and builds no row tuple unless a consumer reads ``rows``;
:class:`Cursor` is its lazy counterpart — a DB-API flavoured handle
(``fetchone`` / ``fetchmany`` / ``fetchall``, iterable, ``columns``)
over a row stream that is only produced as it is consumed, a batch at
a time, so ``LIMIT k`` queries stop after *k* rows instead of
materializing their full input.  A cursor can always be drained into a
``ResultSet`` (``ResultSet.from_cursor``) for backwards
compatibility.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from .errors import ExecutionError
from .types import format_value


class Cursor:
    """A streaming query result.

    Wraps a lazy row iterator plus its column names.  Closing the
    cursor (explicitly, via ``with``, or on exhaustion) closes the
    underlying generator — releasing any read lock and temporary
    resources the producer tied to it — and fires ``on_close`` hooks,
    which must be idempotent.
    """

    def __init__(self, columns: list[str], rows: Iterable[tuple],
                 on_close: Callable[[], None] | None = None,
                 plan=None) -> None:
        self.columns = list(columns)
        #: Root :class:`~repro.relational.operators.Operator` of the
        #: tree producing the rows (``None`` for cursors over anything
        #: but a database SELECT).  Its counters move as rows are drawn.
        self.plan = plan
        self._rows = iter(rows)
        self._on_close = on_close
        self._closed = False
        #: Rows this cursor has handed to its consumer so far.  Unlike
        #: DB-API ``rowcount`` it is exact for partially-drained
        #: streams (early LIMIT, explicit close), which is what trace
        #: spans and pagination accounting need.
        self.rows_yielded = 0

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> tuple:
        if self._closed:
            raise StopIteration
        try:
            row = next(self._rows)
        except StopIteration:
            self.close()
            raise
        self.rows_yielded += 1
        return row

    # -- DB-API-style fetches -------------------------------------------------

    def fetchone(self) -> tuple | None:
        """The next row, or ``None`` when the stream is exhausted."""
        return next(self, None)

    def fetchmany(self, size: int = 256) -> list[tuple]:
        """Up to *size* rows (an empty list means exhausted)."""
        if size < 0:
            raise ExecutionError(
                f"fetchmany size must be non-negative, got {size}")
        return list(itertools.islice(self, size))

    def fetchall(self) -> list[tuple]:
        """Every remaining row (closes the cursor)."""
        return list(self)

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the stream and release producer-side resources."""
        if self._closed:
            return
        self._closed = True
        closer = getattr(self._rows, "close", None)
        if closer is not None:
            closer()
        if self._on_close is not None:
            self._on_close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Cursor(columns={self.columns!r}, {state})"


class ResultSet:
    """An ordered table of result rows with named columns.

    The values are held as rows (one tuple each) or as columns (one
    value list each) — the form their producer had: a database SELECT
    hands on its columns (and its *length*: it may have none), and a
    shipped fragment stays so into the table the mediator loads; a
    cursor drained, or a ranking, hands rows.  The other form
    (``rows`` / ``cols``) is derived on first read and kept, as a
    :class:`~repro.relational.batch.Batch` keeps it — except on a result
    a cache holds (:meth:`share`), which hands a derived form out
    without keeping it, so the entry keeps one form.  ``len`` and
    ``bool`` need neither.  Lists are adopted, not copied, both ways:
    treat what ``rows`` and ``cols`` return as read-only.
    """

    def __init__(self, columns: list[str], rows: list[tuple] | None = None,
                 plan=None, *, cols: list[list] | None = None,
                 length: int | None = None) -> None:
        self.columns = list(columns)
        if rows is None and cols is None:
            rows = []
        elif rows is not None and not isinstance(rows, list):
            rows = list(rows)
        self._len = len(rows) if rows is not None \
            else length if length is not None \
            else len(cols[0]) if cols else 0
        self._rows = rows
        self._cols = cols
        self._shared = False
        self._types: list[set[type]] | None = None
        #: Root :class:`~repro.relational.operators.Operator` of the
        #: tree that produced the rows (per-operator ``actual_rows``,
        #: ``vectorized_ops``, ``vectorized_fallbacks``), or ``None``
        #: for a result no database SELECT computed.
        self.plan = plan

    @classmethod
    def from_cursor(cls, cursor: Cursor) -> "ResultSet":
        """Materialize a streaming cursor (drains and closes it)."""
        return cls(cursor.columns, cursor.fetchall(), plan=cursor.plan)

    @property
    def rows(self) -> list[tuple]:
        """One tuple per row."""
        rows = self._rows
        if rows is None:
            rows = list(zip(*self._cols)) if self._cols \
                else [()] * self._len
            if not self._shared:
                self._rows = rows
        return rows

    @property
    def cols(self) -> list[list]:
        """One value list per column."""
        cols = self._cols
        if cols is None:
            cols = (list(map(list, zip(*self._rows))) if self._rows
                    else [[] for _ in self.columns])
            if not self._shared:
                self._cols = cols
        return cols

    def share(self) -> "ResultSet":
        """Mark this result as held by a cache, and return it: it keeps
        the one form it has (its columns, when it has both) and from now
        on hands the other out without keeping it.  It drops its
        ``plan``: a kept tree is free to re-drive only once no result
        holds the root of its last run."""
        if self._cols is not None:
            self._rows = None
        self._shared = True
        self.plan = None
        return self

    def value_types(self) -> list[set[type]]:
        """Per column, the set of its values' types — computed once and
        kept, so a cached fragment's are computed once per entry."""
        if self._types is None:
            self._types = [set(map(type, column)) for column in self.cols]
        return self._types

    def renamed(self, columns: list[str]) -> "ResultSet":
        """The same values under other column names, in the form they
        have (nothing is copied)."""
        return ResultSet(columns, self._rows, cols=self._cols,
                         length=self._len)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self._len > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def column_index(self, name: str) -> int:
        lowered = [column.lower() for column in self.columns]
        try:
            return lowered.index(name.lower())
        except ValueError:
            raise ExecutionError(
                f"result has no column {name!r} "
                f"(columns: {', '.join(self.columns)})") from None

    def column_values(self, name: str) -> list[Any]:
        return list(self.cols[self.column_index(name)])

    def first(self) -> tuple | None:
        return self.rows[0] if self._len else None

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if self._len != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {self._len} rows x "
                f"{len(self.columns)} columns")
        return self.rows[0][0]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def sorted_rows(self) -> list[tuple]:
        """Rows in a canonical order (for order-insensitive comparisons)."""
        return sorted(self.rows, key=lambda row: tuple(
            (value is None, str(type(value)), str(value)) for value in row))

    def same_rows(self, other: "ResultSet") -> bool:
        """Order-insensitive row equality."""
        return self.sorted_rows() == other.sorted_rows()

    def format_table(self, max_rows: int | None = 40) -> str:
        """ASCII rendering, handy in examples and EXPERIMENTS output."""
        header = list(self.columns)
        body = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[format_value(value) for value in row] for row in body]
        widths = [len(name) for name in header]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        divider = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
        lines = [divider,
                 "|" + "|".join(f" {name.ljust(width)} "
                                for name, width in zip(header, widths)) + "|",
                 divider]
        for row in cells:
            lines.append("|" + "|".join(
                f" {cell.ljust(width)} "
                for cell, width in zip(row, widths)) + "|")
        lines.append(divider)
        if max_rows is not None and self._len > max_rows:
            lines.append(f"... ({self._len - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet(columns={self.columns!r}, rows={self._len})"
