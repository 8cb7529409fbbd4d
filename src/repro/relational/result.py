"""Query results: materialized sets and streaming cursors.

:class:`ResultSet` is the fully-materialized container the engine has
always returned — a database SELECT's holds the columns its run
collected, and builds no row tuple unless a consumer reads ``rows``;
:class:`Cursor` is its lazy counterpart — a DB-API flavoured handle
(``fetchone`` / ``fetchmany`` / ``fetchall``, iterable, ``columns``)
whose rows are produced as they are asked for: ``fetchmany(n)`` asks
its producer for *n* rows, so a page reads a page and ``LIMIT k``
queries stop after *k* rows instead of materializing their full input.
A cursor can always be drained into a ``ResultSet``
(``ResultSet.from_cursor``) for backwards compatibility.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from .errors import ExecutionError
from .schema import fold
from .types import format_value

#: Rows a plain row iterable hands per pull when its consumer asks for
#: what is at hand (iteration, ``fetchall``).
_AT_HAND = 256


class Cursor:
    """A streaming query result.

    Rows come from a *producer*, ``pull(n)``: the next rows for a demand
    of *n*, or for ``None`` what is at hand — the rest of the current
    batch for a database SELECT, a page for a SESQL stream — and ``[]``
    once exhausted.  ``fetchmany(n)`` asks for *n*, ``fetchone`` for 1,
    iteration and ``fetchall`` for what is at hand.  A producer may hand
    back fewer rows (the cursor asks again) or more (a multi-valued
    enrichment emits one or more rows per base row): the cursor keeps
    the excess for the next fetch.  A plain row iterable is adapted
    through ``islice``.

    Closing the cursor (explicitly, via ``with``, on exhaustion, when a
    pull raises, or on GC) closes a plain iterable that has ``close`` (a
    generator) and fires ``on_close`` once — releasing any read lock and
    temporary resources the producer holds.
    """

    def __init__(self, columns: list[str],
                 rows: Callable[[int | None], list] | Iterable[tuple],
                 on_close: Callable[[], None] | None = None,
                 plan=None) -> None:
        self.columns = list(columns)
        #: Root :class:`~repro.relational.operators.Operator` of the
        #: tree producing the rows (``None`` for cursors over anything
        #: but a database SELECT).  Its counters move as rows are drawn,
        #: and on close its ``actual_rows`` are the rows handed out.
        self.plan = plan
        self._closer = None
        if callable(rows):
            self._pull = rows
        else:
            source = iter(rows)
            self._closer = getattr(source, "close", None)
            self._pull = lambda n: list(islice(source, n or _AT_HAND))
        self._on_close = on_close
        self._closed = False
        #: Rows pulled and not handed out yet: ``_held[_at:]``.
        self._held: list = []
        self._at = 0
        #: Rows this cursor has handed to its consumer so far.  Unlike
        #: DB-API ``rowcount`` it is exact for partially-drained
        #: streams (early LIMIT, explicit close), which is what trace
        #: spans and pagination accounting need.
        self.rows_yielded = 0

    # -- the one fetch path ----------------------------------------------------

    def _refill(self, demand: int | None) -> bool:
        """Pull for *demand* into the held rows; ``False`` (and the
        cursor closed) once the producer is exhausted."""
        if self._closed:
            return False
        try:
            rows = self._pull(demand)
        except BaseException:
            self.close()
            raise
        if not rows:
            self.close()
            return False
        self._held, self._at = rows, 0
        return True

    def _hand(self, n: int | None) -> list:
        """Up to *n* rows (``None``: every row held), pulling for *n*
        first when none are held; ``[]`` once exhausted."""
        if (self._closed or self._at == len(self._held)) \
                and not self._refill(n):
            return []
        held, at = self._held, self._at
        stop = len(held) if n is None else min(len(held), at + n)
        self.rows_yielded += stop - at
        self._at = stop
        return held if at == 0 and stop == len(held) else held[at:stop]

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> tuple:
        if (self._closed or self._at == len(self._held)) \
                and not self._refill(None):
            raise StopIteration
        at = self._at
        self._at = at + 1
        self.rows_yielded += 1
        return self._held[at]

    # -- DB-API-style fetches -------------------------------------------------

    def fetchone(self) -> tuple | None:
        """The next row, or ``None`` when the stream is exhausted."""
        rows = self._hand(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int = 256) -> list[tuple]:
        """Up to *size* rows (an empty list means exhausted): the
        producer is asked for *size*."""
        if size < 0:
            raise ExecutionError(
                f"fetchmany size must be non-negative, got {size}")
        rows: list = []
        while len(rows) < size:
            page = self._hand(size - len(rows))
            if not page:
                break
            rows += page
        return rows

    def fetchall(self) -> list[tuple]:
        """Every remaining row (closes the cursor)."""
        rows: list = []
        while page := self._hand(None):
            rows += page
        return rows

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the stream and release producer-side resources."""
        if self._closed:
            return
        self._closed = True
        self._held, self._at = [], 0
        if self.plan is not None:
            self.plan.actual_rows = self.rows_yielded
        if self._closer is not None:
            self._closer()
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
        try:
            return list(map(fold, self.columns)).index(fold(name))
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
