"""Batch-at-a-time execution: the unit every operator exchanges.

Operators (:mod:`repro.relational.operators`) pass :class:`Batch` es —
runs of rows held as columns, from the scan to the result.  A row tuple
is built only where a caller asks for one: a cursor page (the
:meth:`Batch.tuples` of a :meth:`Batch.window` as long as the page),
``ResultSet.rows``, and the generic per-row expression kernel's input
(:attr:`Batch.rows`), so pagination, LIMIT early-termination and
``rows_yielded`` accounting never see a batch edge.  A whole run
becomes one batch of columns through :func:`concat`, and a
``ResultSet`` holds them.

A column may be *pending*: not gathered yet, only the recipe for it — a
``functools.partial`` reading another batch's column as it is, picked at
an index vector or a range or where a mask holds, or several batches'
columns one after the other.  The first ``column(p)`` resolves it and
caches the result; ``cols`` / ``rows`` resolve every column.  A
selection (:meth:`Batch.select`), a join's, sort's or limit's output
(:func:`take`, :func:`pieces`), a join's right input and a sort's
input (:func:`stack`) and a projection hold their columns pending, so a
column no operator above reads is never gathered — a mask kernel
indexes ``batch[p]``, an aggregate, a join key or a sort key reads
``column(p)``, and only those columns are copied.  A window of rows (a cursor's page, a LIMIT's slice) slices the
ids of a pending gather, so only the rows it hands out are copied.

This module holds what is independent of the expression compiler: the
batch type and size, the telemetry hooks, and the two kernels of one
aggregate (column fold and generic state machine).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .types import null_nans, sql_keys

#: Rows per batch.  Large enough to amortize per-batch Python overhead
#: (generator resumption, kernel dispatch), small enough that LIMIT
#: early-termination and pagination stay responsive.  Operators read it
#: at run time, so patching this one name resizes every batch.
BATCH_SIZE = 2048


def _take(source: "Batch", position: int, ids: Sequence[int]) -> Sequence:
    column = source.column(position)
    if type(ids) is range:
        return column[ids.start:ids.stop:ids.step]
    return [column[i] for i in ids]


def _cut(column: Sequence, start: int, stop: int) -> Sequence:
    return column[start:stop]


def _slice(source: "Batch", position: int, start: int, stop: int
           ) -> Sequence:
    """Column *position* of *source*'s rows *start*:*stop*: a pending
    gather (``_take``) or slice (``_cut``) — reached directly or through
    the ``ref`` s that hand it on — stays pending over its own rows'
    slice, so it copies only those rows; a gathered column is sliced
    now; anything else is read whole when the slice is, as :func:`take`
    reads it."""
    column = source._cols[position]
    while type(column) is partial:
        fn, args = column.func, column.args
        if fn is _take:
            origin, at, ids = args
            return partial(_take, origin, at, ids[start:stop])
        if fn is _cut:
            values, low, _high = args
            return partial(_cut, values, low + start, low + stop)
        if getattr(fn, "__func__", None) is not Batch.column:
            return partial(_take, source, position, range(start, stop))
        column = fn.__self__._cols[args[0]]
    return column[start:stop]


def _compress(source: "Batch", position: int, mask: list) -> list:
    return list(compress(source.column(position), mask))


def _stack(batches: list, position: int, null_row: bool) -> Sequence:
    if len(batches) == 1 and not null_row:
        return batches[0].column(position)
    column: list = []
    for batch in batches:
        column.extend(batch.column(position))
    if null_row:
        column.append(None)
    return column


class Batch:
    """A run of rows held as ``cols``, one sequence per column, any of
    them pending (module docstring).  A batch whose first column is
    pending, or that has no columns (a SELECT without FROM), is told its
    *length*.  Operators exchange non-empty batches.
    """

    __slots__ = ("_rows", "_cols", "_len")

    def __init__(self, cols: list, length: Optional[int] = None) -> None:
        self._rows: Optional[list] = None
        self._cols = cols
        self._len = len(cols[0]) if length is None else length

    def __len__(self) -> int:
        return self._len

    @property
    def rows(self) -> list:
        """One tuple per row: the generic per-row kernel's input,
        derived on first read and kept (a join's residual reads its
        build side's once per left batch)."""
        if self._rows is None:
            self._rows = list(self.tuples())
        return self._rows

    def tuples(self) -> Iterator[tuple]:
        """One tuple per row, for one pass and not kept: a cursor's
        page.  ``zip`` of no columns yields no row, so a batch of no
        columns yields its length in empty ones."""
        cols = self.cols
        return zip(*cols) if cols else repeat((), self._len)

    @property
    def cols(self) -> list:
        """Every column, gathered."""
        cols = self._cols
        for position, column in enumerate(cols):
            if type(column) is partial:
                cols[position] = column()
        return cols

    def column(self, position: int) -> Sequence:
        """One column, gathered now if it is pending, without gathering
        the others."""
        cols = self._cols
        column = cols[position]
        if type(column) is partial:
            column = cols[position] = column()
        return column

    #: ``batch[p]`` is ``batch.column(p)``: a mask kernel handed the
    #: batch reads only the columns it tests.
    __getitem__ = column

    def ref(self, position: int):
        """Column *position* for another batch to hold: the column once
        gathered, else a pending read of it through this batch (which
        caches it)."""
        column = self._cols[position]
        if type(column) is not partial:
            return column
        return partial(self.column, position)

    def window(self, start: int, stop: int) -> "Batch":
        """Rows *start*:*stop*, each column composed with its pending
        gather (:func:`_slice`): reading the window gathers its own
        rows, not the batch's — a cursor's page, or ``LIMIT k`` over a
        sort (:func:`take`).  The whole batch is this batch."""
        if start == 0 and stop == self._len:
            return self
        return Batch([_slice(self, position, start, stop)
                      for position in range(len(self._cols))],
                     stop - start)

    def select(self, mask: list) -> "Batch":
        """The rows where *mask* is true, as pending columns — or this
        batch, when that is all of them."""
        kept = sum(mask)
        if kept == self._len:
            return self
        return Batch([partial(_compress, self, position, mask)
                      for position in range(len(self._cols))], kept)


def take(sources: Iterable[tuple[Batch, Sequence[int], int]],
         length: int) -> Batch:
    """A batch of *length* rows whose columns are, side by side, each
    ``(source, ids, width)``'s *width* columns picked at *ids* (an index
    vector or a range) — pending, or *source*'s own where *ids* is all
    of it in order.  A step-1 range is *source*'s :meth:`Batch.window`
    columns: a pending gather below gathers only those rows."""
    cols: list = []
    for source, ids, width in sources:
        if type(ids) is range and ids == range(len(source)):
            cols.extend(map(source.ref, range(width)))
        elif type(ids) is range and ids.step == 1:
            cols.extend(_slice(source, position, ids.start, ids.stop)
                        for position in range(width))
        else:
            cols.extend(partial(_take, source, position, ids)
                        for position in range(width))
    return Batch(cols=cols, length=length)


def slices(columns: Sequence[Sequence], start: int, stop: int) -> "Batch":
    """Rows *start*:*stop* of *columns* — a relation's value lists —
    each column a pending slice, which a :meth:`Batch.window` narrows:
    what a scan hands on, so a column no operator reads is never
    copied."""
    return Batch([partial(_cut, column, start, stop) for column in columns],
                 stop - start)


def pieces(whole: Batch, order: Optional[Sequence[int]] = None
           ) -> Iterator[Batch]:
    """*whole* — a materialised run — handed on in batches of at most
    ``BATCH_SIZE`` rows: each column a pending gather from it of the
    rows *order* lists, in that order, or a slice of it (:func:`take`)."""
    ids = range(len(whole)) if order is None else order
    width = len(whole._cols)
    size = BATCH_SIZE
    for start in range(0, len(ids), size):
        chunk = ids[start:start + size]
        yield take([(whole, chunk, width)], len(chunk))


def concat(batches: Iterable[Batch], width: int) -> Batch:
    """*batches* one after the other as one batch of *width* gathered
    columns: one ``list.extend`` per column per batch, not one row
    tuple."""
    cols: list = [[] for _ in range(width)]
    length = 0
    for batch in batches:
        length += len(batch)
        for position, column in enumerate(cols):
            column.extend(batch.column(position))
    return Batch(cols, length)


def stack(batches: list, width: int, null_row: bool) -> Batch:
    """*batches* one after the other as one batch of *width* pending
    columns, plus an all-NULL last row when *null_row* says so (the pad
    a LEFT join's unmatched rows point at).  A column is concatenated
    when first read; one batch without the pad is handed on as it is."""
    return Batch(cols=[partial(_stack, batches, position, null_row)
                       for position in range(width)],
                 length=sum(map(len, batches)) + null_row)


class ExecHooks:
    """Duck-typed telemetry hooks for the vectorized operators.

    Mirrors the PR 7 convention: the engine builds one of these only
    when telemetry is attached, holds pre-resolved metric children, and
    the operators guard every call site with a single ``is None`` test.
    """

    __slots__ = ("batch_rows", "_counters", "_counter_family")

    def __init__(self, batch_rows_histogram, vectorized_counter) -> None:
        self.batch_rows = batch_rows_histogram
        self._counter_family = vectorized_counter
        self._counters: dict = {}

    def observe(self, op: str, rows: int) -> None:
        """Record one batch of *rows* rows flowing through operator *op*."""
        self.batch_rows.observe(rows)
        counter = self._counters.get(op)
        if counter is None:
            counter = self._counter_family.labels(op)
            self._counters[op] = counter
        counter.inc(rows)


# ---------------------------------------------------------------------------
# The two kernels of one aggregate
# ---------------------------------------------------------------------------
#
# Both keep one state per group, indexed by the group id the Aggregate
# operator assigns, and share a protocol: per batch, ``grow(count)`` for
# the groups it found first (ids numbered on from the last; one group
# before any batch when there is no GROUP BY), then ``step(batch, gids,
# contexts)`` (``gids`` is ``None`` when there is no GROUP BY: every row
# belongs to group 0); at the end ``finals()``.  A group's starting
# state and DISTINCT set are made fresh for it.


def _tally(acc: list, gids: Iterable[int]) -> None:
    """Add to each group's count in *acc* how often *gids* names it."""
    for gid, seen in Counter(gids).items():
        acc[gid] += seen


class ColumnFold:
    """COUNT(*) / COUNT / SUM / AVG / MIN / MAX folded off one column.

    Accumulation order matches :class:`GenericFold` per group (batches
    arrive in row order), so float results are bit-identical: SUM folds
    ``state + value`` left to right from a ``None`` start, AVG
    accumulates ``total + float(value)`` with a separate count, MIN/MAX
    keep the first of ties; a NaN SUM or AVG is NULL.  Counts are
    tallied a batch at a time (integers: the order does not matter).
    The selector only picks a fold for a typed column, whose values (one
    family) are their own ``sql_key`` s: DISTINCT keeps them in a set,
    one ``set.update`` per batch for an ungrouped COUNT.
    """

    def __init__(self, kind: str, position: Optional[int],
                 distinct: bool) -> None:
        self.kind = kind
        self.position = position
        self.acc: list = []
        self.counts: Optional[list] = [] if kind == "AVG" else None
        # DISTINCT MIN/MAX sees the same extrema; skip the dedup
        self.seen: Optional[list] = (
            [] if distinct and kind in ("COUNT", "SUM", "AVG") else None)

    def grow(self, count: int) -> None:
        if self.kind == "AVG":
            self.acc.extend(repeat(0.0, count))
            self.counts.extend(repeat(0, count))
        else:
            self.acc.extend(repeat(
                0 if self.kind in ("COUNT", "COUNT*") else None, count))
        if self.seen is not None:
            self.seen.extend(set() for _ in range(count))

    def _fresh(self, pairs):
        """The (gid, value) pairs whose value is new to its group."""
        seen = self.seen
        for gid, value in pairs:
            if value is not None and value not in seen[gid]:
                seen[gid].add(value)
                yield gid, value

    def step(self, batch: Batch, gids: Optional[list], contexts) -> None:
        acc, kind = self.acc, self.kind
        if kind == "COUNT*":
            if gids is None:
                acc[0] += len(batch)
            else:
                _tally(acc, gids)
            return
        column = batch.column(self.position)
        if self.seen is not None and gids is None and kind == "COUNT":
            seen = self.seen[0]
            seen.update(column)
            seen.discard(None)
            acc[0] = len(seen)
            return
        if kind == "COUNT" and self.seen is None:
            present = map(is_not, column, repeat(None))
            if gids is None:
                acc[0] += sum(present)
            else:
                _tally(acc, compress(gids, present))
            return
        pairs = zip(repeat(0) if gids is None else gids, column)
        if self.seen is not None:
            pairs = self._fresh(pairs)
        if kind == "COUNT":
            _tally(acc, map(itemgetter(0), pairs))
        elif kind == "SUM":
            for gid, value in pairs:
                if value is not None:
                    state = acc[gid]
                    acc[gid] = value if state is None else state + value
        elif kind == "AVG":
            counts = self.counts
            for gid, value in pairs:
                if value is not None:
                    acc[gid] += float(value)
                    counts[gid] += 1
        elif kind == "MIN":
            for gid, value in pairs:
                if value is not None:
                    best = acc[gid]
                    if best is None or value < best:
                        acc[gid] = value
        else:  # MAX
            for gid, value in pairs:
                if value is not None:
                    best = acc[gid]
                    if best is None or value > best:
                        acc[gid] = value

    def finals(self) -> list:
        if self.kind == "AVG":
            return null_nans([total / count if count else None
                              for total, count in zip(self.acc,
                                                      self.counts)])
        return null_nans(self.acc) if self.kind == "SUM" else self.acc


class GenericFold:
    """Any aggregate over any argument expressions: the
    :mod:`~repro.relational.aggregates` state machine stepped once per
    row with the compiled argument functions."""

    def __init__(self, aggregate, arg_fns: list, distinct: bool) -> None:
        self.aggregate = aggregate
        self.arg_fns = arg_fns
        self.states: list = []
        self.seen: Optional[list] = [] if distinct else None

    def grow(self, count: int) -> None:
        initial = self.aggregate.initial
        self.states.extend(initial() for _ in range(count))
        if self.seen is not None:
            self.seen.extend(set() for _ in range(count))

    def step(self, batch: Batch, gids: Optional[list], contexts) -> None:
        states, seen = self.states, self.seen
        step, arg_fns = self.aggregate.step, self.arg_fns
        for gid, context in zip(repeat(0) if gids is None else gids,
                                contexts):
            args = tuple(fn(context) for fn in arg_fns)
            if seen is not None:
                marker = sql_keys(args)
                if marker in seen[gid]:
                    continue
                seen[gid].add(marker)
            states[gid] = step(states[gid], args)

    def finals(self) -> list:
        final = self.aggregate.final
        return [final(state) for state in self.states]
