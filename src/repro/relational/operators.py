"""Physical operators: the tree the builder emits is the thing that runs.

Every SELECT — planned or not, top-level or subquery — is a tree of
:class:`Operator` nodes built by :mod:`repro.relational.executor`.  A
node owns its output schema, children, the planner's ``est_rows``, the
``actual_rows`` it has produced, and one ``chunks(outer_rows)`` generator
of :class:`~repro.relational.batch.Batch` es; ``explain`` renders the
same tree, so what it shows is what ran.

:class:`Filter`, :class:`Project` and :class:`Aggregate` pick a column
kernel (selection mask, gather, fold) per conjunct / item / aggregate
where they see plain typed columns, and apply the generic compiled
expression over the batch's rows otherwise; ``vectorized`` says a column
kernel is in use.  Every operator emits columns; selections,
projections, joins, sorts and limits hand them on pending (see
:mod:`repro.relational.batch`): a column is gathered when an operator
above reads it, and never if none does.

:class:`Join` and :class:`Sort` have one emission and one sort routine
each, whose only variation is how keys are extracted.  Every join mode
but semi / anti emits two index vectors per left batch — left
positions, right row ids — and its output batch gathers from both
inputs' columns; the strategy decides only where the pairs come from.
A hash join whose key pairs are plain typed columns of one comparison
family on both sides hashes the raw values of whole key columns (build
and probe); any other key — an expression, ``BOOLEAN = INTEGER``, an
untyped set-operation column — is evaluated per row and normalised with
``norm_tuple``, still batch by batch.  The same build, with the same two
key extractors, runs a WHERE-side ``[NOT] IN (subquery)`` / ``[NOT]
EXISTS`` as a semi / anti join: the left row comes out, through a
selection mask, when it has a / no witness on the build side.  A sort
gathers or evaluates each ORDER BY key once per row into a key column
and, when every key column turns out to hold one family of values
(checked at run time: slot rows and set-operation outputs are untyped at
build time) and no NaN, sorts on the native values with C comparisons;
otherwise it wraps them in the ``compare_values`` comparator, which is
also what raises ``TypeMismatchError`` for mixed families.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import is_not, ne, not_
from typing import (Any, Callable, Iterable, Iterator, NamedTuple,
                    Sequence)

from . import batch as _batch
from .batch import Batch, concat, norm_tuple, pieces, stack, take
from .compiler import conjunction
from .errors import ExecutionError
from .schema import ResultColumn, RowSchema
from .table import Table
from .types import is_true, sort_key, values_equal
from .vectors import SlotKernel

Rows = tuple
RowFn = Callable[[Rows], Any]


def _round(value: float) -> str:
    if value >= 100 or float(value).is_integer():
        return str(int(round(value)))
    return f"{value:.1f}"


class Operator:
    """One node of an executable plan.

    ``kind`` is the EXPLAIN vocabulary (``scan``, ``filter``,
    ``hash-join``, ``aggregate``, ``result`` ...).  The base class is
    itself the pass-through operator: it yields its first child's
    batches unchanged (the statement root, a derived table and a
    subquery root are exactly that, plus a schema or a label).
    """

    #: Row-preserving operators inherit their child's estimate.
    preserves_rows = True
    #: ``(expression, reason)`` per conjunct kept off a column kernel
    #: (filters fill it in).
    fallbacks: list[tuple[str, str]] = []

    def __init__(self, kind: str, label: str, schema: RowSchema,
                 children: list["Operator"] | None = None,
                 est_rows: float | None = None, detail: str = "",
                 hooks=None) -> None:
        self.kind = kind
        self.label = label
        self.schema = schema
        self.children = children or []
        if est_rows is None and self.preserves_rows and self.children:
            est_rows = self.children[0].est_rows
        self.est_rows = est_rows
        #: Rows produced so far; ``None`` until the operator first runs.
        self.actual_rows: int | None = None
        self.detail = detail
        #: True when a specialised column kernel does this node's work.
        self.vectorized = False
        self._hooks = hooks
        #: True when the output is the first child's, unchanged.
        self.passes_through = type(self)._batches is Operator._batches

    # -- execution -----------------------------------------------------------

    def chunks(self, outer_rows: Rows = ()) -> Iterator[Batch]:
        """This operator's output for one run, batch by batch.
        *outer_rows* carries one row per enclosing query scope."""
        if self.actual_rows is None:
            self.actual_rows = 0
        for batch in self._batches(outer_rows):
            self.actual_rows += len(batch)
            yield batch

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        return self.children[0].chunks(outer_rows)

    def collect(self, outer_rows: Rows = ()) -> Batch:
        """One whole run as one batch of columns
        (:func:`~repro.relational.batch.concat`) — what a SELECT's
        result holds.  Nothing here is batch-sized: a pass-through hands
        on its child's run, a scan copies its table's live columns."""
        if self.passes_through:
            return self._ran(self.children[0].collect(outer_rows))
        return concat(self.chunks(outer_rows), len(self.schema))

    def _ran(self, whole: Batch) -> Batch:
        self.actual_rows = (self.actual_rows or 0) + len(whole)
        self._observe(len(whole))
        return whole

    def reset(self) -> None:
        """Forget the last run — its counters and whatever it left
        behind — before the tree runs again."""
        self.actual_rows = None
        self.release()

    def release(self) -> None:
        """Drop the rows a finished run left behind (a hash build, a
        subquery's cached rows); the counters stay, for the plan of the
        result that run produced."""

    def _observe(self, rows: int) -> None:
        if self._hooks is not None and self.vectorized:
            self._hooks.observe(self.kind, rows)

    # -- introspection -------------------------------------------------------

    def walk(self) -> Iterator["Operator"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def vectorized_ops(self) -> set[str]:
        """Kinds of the operators below (and including) this one that
        use a specialised column kernel."""
        return _vectorized_ops(self.walk())

    @property
    def vectorized_fallbacks(self) -> list[tuple[str, str]]:
        """``(expression, reason)`` per WHERE conjunct a filter over
        typed columns evaluates with the generic kernel — the runtime
        counterpart of the analyzer's ``W-VEC-FALLBACK``."""
        return _vectorized_fallbacks(self.walk())

    def format(self, indent: int = 0) -> str:
        parts = [f"{'  ' * indent}{self.kind} {self.label}".rstrip()]
        annotations = []
        if self.est_rows is not None:
            annotations.append(f"est={_round(self.est_rows)}")
        if self.actual_rows is not None:
            annotations.append(f"actual={self.actual_rows}")
        if self.vectorized:
            annotations.append("vectorized")
        if self.detail:
            annotations.append(self.detail)
        if annotations:
            parts[0] += "  (" + ", ".join(annotations) + ")"
        parts.extend(child.format(indent + 1) for child in self.children)
        return "\n".join(parts)


def _vectorized_ops(nodes: Iterable[Operator]) -> set[str]:
    return {node.kind for node in nodes if node.vectorized}


def _vectorized_fallbacks(nodes: Iterable[Operator]
                          ) -> list[tuple[str, str]]:
    found: list[tuple[str, str]] = []
    for node in nodes:
        for entry in node.fallbacks:
            if entry not in found:
                found.append(entry)
    return found


class Result(Operator):
    """The statement root: the top operator's rows, plus its notes and
    the :class:`~repro.relational.compiler.Slots` its ``?`` placeholders
    read.

    ``remarks`` are what the planner left about the statement (join
    order, degraded planning), ``None`` when it was built unplanned.
    The notes of a planned statement are its remarks, then which
    operators run vectorized and which conjuncts fell back, as the tree
    is laid out for the run — for a prepared statement, for the values
    bound (:meth:`again`).
    """

    def __init__(self, top: Operator, subqueries: list[Operator],
                 slots=None, remarks: list[str] | None = None) -> None:
        super().__init__("result", "select", top.schema, [top] + subqueries)
        self.slots = slots
        self.remarks = remarks
        self.notes: list[str] = []

    def _notes(self, nodes: list[Operator]) -> list[str]:
        """The notes, from *nodes* — every operator below."""
        if self.remarks is None:
            return []
        notes = list(self.remarks)
        vectorized = _vectorized_ops(nodes)
        if vectorized:
            note = "vectorized: " + ", ".join(sorted(vectorized))
            fallbacks = _vectorized_fallbacks(nodes)
            if fallbacks:
                note += "; fallback: " + "; ".join(
                    f"{expression} ({reason})"
                    for expression, reason in fallbacks)
            notes.append(note)
        return notes

    def plan(self, remarks: list[str]) -> None:
        """Mark this statement planned, with the planner's *remarks*."""
        self.remarks = remarks
        self.notes = self._notes(list(self.walk()))

    def again(self, values: tuple, nodes: list[Operator]) -> "Result":
        """One more run of this tree, with *values* in its slots: each
        of *nodes* — the operators below — is reset (a filter lays its
        conjuncts out for the values), and the run gets a root of its
        own, whose notes describe the tree as laid out for it."""
        self.slots.values = values
        for node in nodes:
            node.reset()
        root = Result(self.children[0], self.children[1:], self.slots,
                      self.remarks)
        root.notes = root._notes(nodes)
        return root

    def run(self) -> list[tuple]:
        """One whole run of the statement, as rows."""
        return self.collect().rows

    def format(self, indent: int = 0) -> str:
        lines = [super().format(indent)]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


class Subquery(Operator):
    """The root of a subquery an expression reads (``IN``, ``EXISTS``,
    scalar).  An uncorrelated one runs once per statement: its run —
    and the key set an ``IN`` tests — are kept here until the
    statement's run ends."""

    def __init__(self, top: Operator, correlated: bool) -> None:
        super().__init__("subquery",
                         "correlated" if correlated else "uncorrelated",
                         top.schema, [top])
        self.cached: Batch | None = None
        self.members: set[tuple] | None = None

    def release(self) -> None:
        self.cached = self.members = None


class Values(Operator):
    """A SELECT without FROM: one empty row, a batch of no columns."""

    def __init__(self) -> None:
        super().__init__("values", "no FROM", RowSchema([]), est_rows=1.0)

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        yield Batch([], 1)


class Scan(Operator):
    """Full scan of a catalog table (a mediated view is a
    :class:`ViewScan`).  A columnar :class:`Table` is read
    as column slices, and a whole run is a copy of each live column; any
    other table's rows (foreign wrappers) are transposed once, here."""

    def __init__(self, table, binding: str, label: str,
                 est_rows: float | None = None, hooks=None) -> None:
        super().__init__("scan", label,
                         RowSchema.for_table(table.schema, binding),
                         est_rows=est_rows, hooks=hooks)
        self.table = table
        self.vectorized = isinstance(table, Table)

    def _whole(self) -> Batch:
        table = self.table
        if not self.vectorized:
            rows = list(table.rows())
            cols = [list(column) for column in zip(*rows)]
            return Batch(cols or [[] for _ in self.schema.columns], len(rows))
        return Batch(list(map(table.column_values, range(len(self.schema)))))

    def collect(self, outer_rows: Rows = ()) -> Batch:
        return self._ran(self._whole())

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        # Table state is read at run time, never at build time: SELECTs
        # hold the database's read lock and INSERT ... SELECT
        # materializes before it mutates.
        if not self.vectorized:
            yield from pieces(self._whole())
            return
        for cols in self.table.iter_batches(_batch.BATCH_SIZE):
            self._observe(len(cols[0]))
            yield Batch(cols=cols)


class ViewScan(Operator):
    """Full scan of a relation bound per run — a mediated view or an
    extraction, a :class:`~repro.relational.table.BoundView` — the way a
    ``?`` is: the tree is built over the view's schema and size, and
    each run reads the columns its slots hold under the *name* the
    statement reads it by when it starts, chunked at ``BATCH_SIZE``.
    The bound lists are never written (a cached fragment's columns are
    shared); a whole run is a copy."""

    def __init__(self, view, slots, name: str, binding: str, label: str,
                 est_rows: float | None = None, hooks=None) -> None:
        super().__init__("scan", label,
                         RowSchema.for_table(view.schema, binding),
                         est_rows=est_rows, hooks=hooks)
        self.name = name.lower()
        self.signature = view.signature
        self.slots = slots
        self.vectorized = True

    def _bound(self) -> list[list]:
        return self.slots.views[self.name].cols

    def collect(self, outer_rows: Rows = ()) -> Batch:
        return self._ran(Batch(list(map(list, self._bound()))))

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        cols = self._bound()
        size = _batch.BATCH_SIZE
        for start in range(0, len(cols[0]), size):
            chunk = [column[start:start + size] for column in cols]
            self._observe(len(chunk[0]))
            yield Batch(cols=chunk)


class IndexProbe(Operator):
    """Point lookup through an index: the rows of *table* whose indexed
    columns equal the key the ``key_fns`` evaluate to.

    Serves both ``WHERE col = literal`` (keys are constants) and the
    inner side of an index join (keys read the current outer row, which
    the join appends to ``outer_rows``).  A hash index buckets by the
    same normalization as ``values_equal``, so its candidates are exact;
    any other index (``SortedIndex`` coerces keys to float, collapsing
    integers beyond 2**53) only narrows, and every candidate is
    re-checked here.  ``lookup`` (row ids) and ``fetch`` (those rows, as
    a batch gathering from the table's columns) are the primitives the
    join maps over a batch's keys; only a run through ``chunks`` counts
    ``actual_rows``.
    """

    preserves_rows = False

    def __init__(self, scan: Scan, index, key_fns: list[RowFn],
                 positions: list[int],
                 est_rows: float | None = None) -> None:
        super().__init__("scan", scan.label, scan.schema,
                         est_rows=est_rows, detail=f"index {index.name}")
        self.table = scan.table
        self.index = index
        self.key_fns = key_fns
        self.positions = positions
        self.verify = getattr(index, "kind", None) != "hash"

    def lookup(self, key: tuple) -> list[int]:
        """The ids of the rows whose indexed columns equal *key*, in
        row-id order."""
        row_ids = sorted(self.index.lookup(key))
        if self.verify:
            columns, slots = self.table.slot_columns()
            row_ids = [row_id for row_id in row_ids if all(
                is_true(values_equal(columns[position][slots[row_id]], value))
                for position, value in zip(self.positions, key))]
        return row_ids

    def fetch(self, row_ids: list[int]) -> Batch:
        """The rows *row_ids* name, gathered from the table's columns
        when first read."""
        columns, slots = self.table.slot_columns()
        return take([(Batch(cols=columns), list(map(slots.__getitem__,
                                                    row_ids)),
                      len(columns))], len(row_ids))

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        row_ids = self.lookup(tuple(fn(outer_rows) for fn in self.key_fns))
        size = _batch.BATCH_SIZE
        for start in range(0, len(row_ids), size):
            yield self.fetch(row_ids[start:start + size])


def _narrowed(batch: Batch, kernels: list) -> Batch:
    """*batch* cut down by each mask kernel in turn, each handed the
    selection the ones before it left, until no row is left."""
    for kernel in kernels:
        batch = batch.select(kernel(batch))
        if not batch:
            break
    return batch


def _first_seen(seen: set, batch: Batch) -> list[bool]:
    """Per row of *batch*, whether its ``norm_tuple`` key is new to
    *seen*, which it then joins."""
    mask = []
    for key in map(norm_tuple, batch.tuples()):
        mask.append(key not in seen)
        seen.add(key)
    return mask


class Filter(Operator):
    """Keep the rows a predicate holds for.

    ``conjuncts`` holds ``(kernel, fn)`` per conjunct, in written order:
    a mask kernel, or ``None`` and ``fn`` the conjunct's generic
    predicate.  ``kernels`` are the mask kernels of the conjuncts that
    have one, in written order.  They narrow: the first is handed the
    batch itself, so it gathers only the columns it tests, and each
    later one the pending selection the ones before it left — it tests
    only the rows still in, no two masks are ever ANDed, and a batch
    that empties goes no further.  ``residual_fn`` is the generic
    predicate for the rest, applied to the surviving rows in written
    order.  A conjunct over ``?`` slots has a :class:`SlotKernel` and
    its ``fn``: each run lays the conjuncts out anew, the kernel the
    bound values choose among the kernels or, when they choose none,
    ``fn`` in the residual — where its literal would be.
    """

    preserves_rows = False

    def __init__(self, child: Operator, label: str,
                 conjuncts: list[tuple[Any, RowFn | None]],
                 fallbacks: list[tuple[str, str]],
                 est_rows: float | None = None, hooks=None) -> None:
        super().__init__("filter", label, child.schema, [child], est_rows,
                         hooks=hooks)
        self.conjuncts = conjuncts
        self._fallbacks = fallbacks
        self.slotted = any(isinstance(kernel, SlotKernel)
                           for kernel, _fn in conjuncts)
        self._arrange()

    def _arrange(self) -> None:
        """Lay out ``kernels`` and ``residual_fn`` (and what ``vectorized``
        and ``fallbacks`` report): each slot conjunct's kernel is the one
        the values bound in its slots choose — before any are bound, the
        slot kernel stands for one."""
        kernels: list = []
        parts: list = []
        fallbacks = list(self._fallbacks)
        for kernel, fn in self.conjuncts:
            if isinstance(kernel, SlotKernel) \
                    and kernel.slots.values is not None:
                slot, kernel = kernel, kernel.choose()
                if kernel is None:
                    fallbacks.append(slot.fallback())
            if kernel is None:
                parts.append(fn)
            else:
                kernels.append(kernel)
        self.kernels = kernels
        self.residual_fn = conjunction(parts) if parts else None
        self.fallbacks = fallbacks
        self.vectorized = bool(kernels)

    def reset(self) -> None:
        super().reset()
        if self.slotted:
            self._arrange()

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        kernels, fn = self.kernels, self.residual_fn
        residual = [lambda batch: [fn(outer_rows + (row,))
                                   for row in batch.rows]]
        for batch in self.children[0].chunks(outer_rows):
            if kernels:
                batch = _narrowed(batch, kernels)
                if not batch:
                    continue
                self._observe(len(batch))
            if fn is not None:
                batch = _narrowed(batch, residual)
                if not batch:
                    continue
            yield batch


class Project(Operator):
    """Evaluate the select list, one output column at a time.

    ``columns`` holds ``(source, fn)`` per output column: the input
    column — passed on pending, gathered only if read above — when the
    selector found a plain column there (an ``int`` position), ``fn``'s
    value repeated for a constant (a literal or a ``?``), else
    (``None``) the compiled expression applied over the batch.
    """

    def __init__(self, child: Operator, schema: RowSchema,
                 columns: list[tuple[Any, RowFn]], hooks=None) -> None:
        positions = [position for position, _fn in columns]
        #: Every input column, in order: batches pass through untouched.
        identity = positions == list(range(len(child.schema)))
        label = "*" if identity else ", ".join(schema.names())
        super().__init__("project", label, schema, [child], hooks=hooks)
        self.passes_through = identity
        self.columns = columns
        self.vectorized = None not in positions

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        for batch in self.children[0].chunks(outer_rows):
            if not self.passes_through:
                contexts = None if self.vectorized else [
                    outer_rows + (row,) for row in batch.rows]
                batch = Batch(cols=[
                    batch.ref(source) if type(source) is int
                    else [fn(context) for context in contexts]
                    if source is None else [fn(outer_rows)] * len(batch)
                    for source, fn in self.columns], length=len(batch))
            self._observe(len(batch))
            yield batch


class Aggregate(Operator):
    """Hash aggregation into *slot columns*: group keys first, one slot
    per aggregate after (HAVING, ORDER BY and the select list are
    ordinary operators above, compiled against the slots).

    Groups come out in first-seen order.  ``key_positions`` is set when
    every GROUP BY key is a plain typed column (raw values hash like the
    normalised ones within one type family); otherwise ``group_fns``
    evaluate the keys per row (a single typed key is its own key
    column; key tuples are transposed at the end).  ``folds`` are
    factories — one fresh accumulator per aggregate per run.
    """

    preserves_rows = False

    def __init__(self, child: Operator, label: str, slot_schema: RowSchema,
                 group_fns: list[RowFn], key_positions: list[int] | None,
                 folds: list[Callable[[], Any]], needs_rows: bool,
                 vectorized: bool, hooks=None) -> None:
        super().__init__("aggregate", label, slot_schema, [child],
                         hooks=hooks)
        self.group_fns = group_fns
        self.key_positions = key_positions
        self.folds = folds
        self.needs_rows = needs_rows
        self.vectorized = vectorized

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        # A pipeline breaker: every input row is seen before any group.
        folds = [make() for make in self.folds]
        groups: dict = {}
        group_keys: list = []
        grouped = bool(self.group_fns)
        positions = self.key_positions
        single = positions is not None and len(positions) == 1

        def new_group(key) -> int:
            group_keys.append(key)
            for fold in folds:
                fold.new_group()
            return len(group_keys) - 1

        if not grouped:
            # no GROUP BY: always one group, even over zero rows
            new_group(())
        for batch in self.children[0].chunks(outer_rows):
            self._observe(len(batch))
            contexts = ([outer_rows + (row,) for row in batch.rows]
                        if self.needs_rows else None)
            gids = None
            if grouped:
                gids = []
                add_gid, lookup = gids.append, groups.get
                if single:
                    for key in batch.column(positions[0]):
                        gid = lookup(key)
                        if gid is None:
                            gid = groups[key] = new_group(key)
                        add_gid(gid)
                else:
                    if positions is not None:
                        keys = hashed = list(zip(
                            *[batch.column(p) for p in positions]))
                    else:
                        keys = [tuple(fn(context) for fn in self.group_fns)
                                for context in contexts]
                        hashed = map(norm_tuple, keys)
                    for key, marker in zip(keys, hashed):
                        gid = lookup(marker)
                        if gid is None:
                            gid = groups[marker] = new_group(key)
                        add_gid(gid)
            for fold in folds:
                fold.step(batch, gids, contexts)
        key_cols = [group_keys] if single else list(zip(*group_keys)) \
            or [[] for _ in self.group_fns]
        yield from pieces(Batch(
            key_cols + [fold.finals() for fold in folds], len(group_keys)))


#: The value families ``compare_values`` orders, by exact Python type.
_NATIVE_FAMILIES = ({str}, {int, float}, {bool})


def _one_family(column: list) -> bool:
    """Whether raw ``<`` orders *column*'s non-NULL values exactly as
    ``compare_values`` does: one family, and no NaN (which the
    comparator treats as equal to everything)."""
    kinds = set(map(type, column))
    kinds.discard(type(None))
    if float in kinds and any(map(ne, column, column)):
        return False
    return any(kinds <= family for family in _NATIVE_FAMILIES)


class Sort(Operator):
    """ORDER BY: a pipeline breaker (stable, so ties keep input order).

    Each key is evaluated once per row into a key column — read from
    ``positions[k]`` of the collected input where the selector found a
    plain column or slot, else computed by the compiled expression over
    its rows.  ``positions`` is ``None`` when the selector declined the
    kernel altogether.  Whether the key columns sort natively is only
    known once they exist, so ``vectorized`` says what the latest run
    did.  The sort orders row ids, not rows: the output is pending
    gathers of the input's columns in that order, as a join's is.
    """

    def __init__(self, child: Operator, label: str,
                 order_fns: list[tuple[RowFn, bool]],
                 positions: list[int | None] | None, hooks=None) -> None:
        super().__init__("sort", label, child.schema, [child], hooks=hooks)
        self.order_fns = order_fns
        self.positions = positions
        self.vectorized = positions is not None

    def reset(self) -> None:
        super().reset()
        self.vectorized = self.positions is not None

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        whole = self.children[0].collect(outer_rows)
        contexts = None
        columns = []
        for (fn, _descending), position in zip(
                self.order_fns, self.positions or repeat(None)):
            if position is not None:
                columns.append(whole.column(position))
                continue
            if contexts is None:
                contexts = [outer_rows + (row,) for row in whole.rows]
            columns.append([fn(context) for context in contexts])
        directions = [descending for _fn, descending in self.order_fns]
        order = list(range(len(whole)))
        self.vectorized = self.positions is not None \
            and all(map(_one_family, columns))
        if self.vectorized:
            self._observe(len(whole))
            # Successive stable sorts, last key first; NULLs are
            # partitioned out (LAST for ASC, FIRST for DESC).
            for column, descending in zip(reversed(columns),
                                          reversed(directions)):
                nulls = []
                if None in column:
                    nulls = [i for i in order if column[i] is None]
                    order = [i for i in order if column[i] is not None]
                order.sort(key=column.__getitem__, reverse=descending)
                order = nulls + order if descending else order + nulls
        else:
            keys = list(zip(*[
                [sort_key(value, descending) for value in column]
                for column, descending in zip(columns, directions)]))
            order.sort(key=keys.__getitem__)
        yield from pieces(whole, order)


class Distinct(Operator):
    """Streaming de-duplication: each batch keeps, through a selection
    mask, the rows whose zipped columns are new."""

    preserves_rows = False

    def __init__(self, child: Operator) -> None:
        super().__init__("distinct", "", child.schema, [child])

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        fresh = [partial(_first_seen, set())]
        for batch in self.children[0].chunks(outer_rows):
            batch = _narrowed(batch, fresh)
            if batch:
                yield batch


def _bound_value(fn: RowFn | None, outer_rows: Rows,
                 clause: str) -> int | None:
    """Evaluate a LIMIT/OFFSET expression and validate it.  NULL means
    "no bound"; anything but a non-negative integer is a user error."""
    value = fn(outer_rows) if fn is not None else None
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ExecutionError(
            f"{clause} must be a non-negative integer, got {value!r}")
    return value


class Limit(Operator):
    """Lazy OFFSET/LIMIT: stops pulling its child once satisfied, so the
    batches (and UNION ALL operands) after that point never run.

    *bound* is the LIMIT when it is a literal: the estimate is then at
    most that, and unset when the bound is only known at run time."""

    preserves_rows = False

    def __init__(self, child: Operator, limit_fn: RowFn | None,
                 offset_fn: RowFn | None, label: str,
                 bound: int | None = None) -> None:
        est_rows = bound
        if bound is not None and child.est_rows is not None:
            est_rows = min(child.est_rows, bound)
        super().__init__("limit", label, child.schema, [child], est_rows)
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        skip = _bound_value(self.offset_fn, outer_rows, "OFFSET") or 0
        wanted = _bound_value(self.limit_fn, outer_rows, "LIMIT")
        if wanted == 0:
            return
        for batch in self.children[0].chunks(outer_rows):
            size = len(batch)
            if skip >= size:
                skip -= size
                continue
            if skip or (wanted is not None and size - skip > wanted):
                stop = size if wanted is None else min(size, skip + wanted)
                batch = take([(batch, range(skip, stop), len(self.schema))],
                             stop - skip)
                skip = 0
            yield batch
            if wanted is not None:
                wanted -= len(batch)
                if wanted <= 0:
                    return


class SetOp(Operator):
    """UNION [ALL] / INTERSECT / EXCEPT over same-width operands, folded
    left to right.  A pure UNION ALL chain streams: operand k+1 is not
    started until operand k is exhausted."""

    preserves_rows = False

    def __init__(self, operands: list[Operator],
                 operations: list[str]) -> None:
        # Named after the first operand, but untyped: operands may put
        # values of different type families into one column.
        schema = RowSchema([ResultColumn(column.name, column.qualifier)
                            for column in operands[0].schema.columns])
        super().__init__("set-op", " / ".join(operations), schema, operands)
        self.operations = operations

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        if all(op == "UNION ALL" for op in self.operations):
            for operand in self.children:
                yield from operand.chunks(outer_rows)
            return
        width = len(self.schema)
        current = self.children[0].collect(outer_rows)
        for operation, operand in zip(self.operations, self.children[1:]):
            other = operand.collect(outer_rows)
            if operation == "UNION ALL":
                current = concat([current, other], width)
                continue
            # UNION dedups both sides; INTERSECT / EXCEPT dedup the left
            # side's rows that are / are not among the right side's.
            if operation == "UNION":
                current = concat([current, other], width)
            else:
                keys = set(map(norm_tuple, other.tuples()))
                current = current.select([
                    (key in keys) == (operation == "INTERSECT")
                    for key in map(norm_tuple, current.tuples())])
            current = current.select(_first_seen(set(), current))
        yield from pieces(current)


def _key_rows(fns: list[RowFn], rows: list[tuple],
              outer_rows: Rows) -> list[tuple]:
    """The generic key extractor: per row, the values *fns* evaluate to."""
    return [tuple([fn(context) for fn in fns])
            for context in [outer_rows + (row,) for row in rows]]


class _Built(NamedTuple):
    """One run's hashed right input."""

    #: The key set of a semi / anti join without a residual; else key ->
    #: row id when ``unique``, key -> [row ids] in right-input order if
    #: not.
    index: Any
    unique: bool
    #: The right input's columns, plus the all-NULL pad row of a LEFT
    #: join (``None`` beside a key set).
    right: Batch | None
    #: Whether the right input had no row at all.
    empty: bool
    #: Whether a ``NOT IN`` found a NULL in it.
    has_null: bool


def _expand(found: list, left_join: bool, pad: int,
            size: int) -> Iterator[tuple[list, list]]:
    """``(left positions, right ids)`` from one run of right ids (empty
    or ``None`` when there is none) per left position, in left order; a
    LEFT join pairs a position without any with *pad*.  A chunk ends on
    the left row whose last pair brings it to *size* pairs or more."""
    if left_join:
        positions: Sequence[int] = range(len(found))
        found = [ids or (pad,) for ids in found]
    else:
        positions = list(compress(range(len(found)), found))
        found = list(filter(None, found))
    ends = list(accumulate(map(len, found)))
    first = 0
    while first < len(found):
        base = ends[first - 1] if first else 0
        last = min(bisect_left(ends, base + size, first), len(found) - 1) + 1
        runs = found[first:last]
        yield (list(chain.from_iterable(map(repeat, positions[first:last],
                                            map(len, runs)))),
               list(chain.from_iterable(runs)))
        first = last


class Join(Operator):
    """INNER / LEFT / CROSS / SEMI / ANTI join, batch by batch, in left
    order with each left row's matches in right-input order.

    Every mode but semi / anti emits columns, not rows.  Per left batch
    it finds candidate pairs as two index vectors — left positions and
    right row ids — and the output batch takes the left batch's columns
    at the one and the right input's at the other, each column pending
    until an operator above reads it (``batch.take``), at most
    ``BATCH_SIZE`` rows a batch.  The strategy is the node's ``kind``
    and decides only where the pairs come from: ``hash-join`` keeps its
    right input as columns and indexes key -> row id — one dict built
    in C when every non-NULL key is distinct, which its size tells;
    else key -> row ids — and maps a left batch's keys through it;
    ``index-join`` asks the right child — an :class:`IndexProbe` — for
    the row ids matching each key of the batch and gathers them from
    the table's columns, never scanning it; ``nested-loop`` /
    ``cross-join`` tile the left positions against every right row.  A
    LEFT join pairs a left row without candidates with a pad id, which
    points at an all-NULL row appended to the right columns, so padding
    is a gather like any other.  ``check`` (the residual ON predicate,
    or all of it for a nested loop) runs over the candidate pairs only,
    on their combined rows, and keeps a mask; a LEFT join pads a left
    row none of whose pairs survived, in its place.

    ``semi-join`` / ``anti-join`` are the hash join of a WHERE-side
    ``[NOT] IN (subquery)`` / ``[NOT] EXISTS``: the schema is the left
    one and each left row comes out at most once — when some / no right
    row has its key and passes ``check`` — through a selection mask, so
    the survivors stay columns.  The right input is the subquery, so it
    lives one scope *below* the left row: it runs, and its keys and
    ``check`` are evaluated, under ``outer_rows + (left row,)`` (a
    placeholder where no left row is at hand — the selector only moves
    what never reads it).  Like that subquery it is not run before a
    left row needs it, and with ``build_once`` — it reads no enclosing
    row either — one build serves every run of the statement (the join
    may sit in a subtree that is re-run per outer row).  Without a
    ``check`` the build side is a plain key set.  ``in_predicate`` says
    the join is an ``x [NOT] IN (subquery)``: x is evaluated for every
    left row (an ``EXISTS`` compares nothing when its subquery is
    empty), and ``NOT IN`` is ``null_aware`` — a NULL on the build side
    rejects every row, a NULL x passes only an empty one (``NOT EXISTS``
    is the plain anti join: a NULL key has no match).

    ``key_positions`` — ``(left positions, right positions)`` — is set
    when every hash key pair is a plain typed column of one comparison
    family on both sides: the raw values of those columns then hash and
    compare as ``values_equal`` does, so whole key columns are the
    keys.  Otherwise ``left_keys`` / ``right_keys`` evaluate the keys
    per row and ``norm_tuple`` keeps the families apart.
    """

    preserves_rows = False

    def __init__(self, kind: str, label: str, left: Operator,
                 right: Operator, left_join: bool,
                 left_keys: list[RowFn], right_keys: list[RowFn],
                 check, est_rows: float | None = None,
                 key_positions: tuple[list[int], list[int]] | None = None,
                 hooks=None, in_predicate: bool = False,
                 build_once: bool = False) -> None:
        self.semi = kind in ("semi-join", "anti-join")
        self.in_predicate = in_predicate
        self.null_aware = in_predicate and kind == "anti-join"
        schema = left.schema if self.semi \
            else left.schema.extended(right.schema)
        detail = ", ".join(
            ["null-aware"] * self.null_aware
            + ["residual"] * (self.semi and check is not None))
        super().__init__(kind, label, schema, [left, right], est_rows,
                         detail, hooks)
        self.left_join = left_join
        self.key_fns = (left_keys, right_keys)
        self.check = check
        self.key_positions = key_positions
        self.build_once = build_once
        self._built: _Built | None = None
        self.vectorized = key_positions is not None

    def release(self) -> None:
        self._built = None

    def _hash_keys(self, batch: Batch, side: int,
                   outer_rows: Rows) -> Iterable:
        """One hashable key per row of *batch* (``side`` 0 is the left
        input); ``None`` where a key value is NULL, which matches
        nothing in an equi-join."""
        if self.key_positions is not None:
            columns = [batch.column(position)
                       for position in self.key_positions[side]]
            if len(columns) == 1:
                return columns[0]
            return [None if None in key else key for key in zip(*columns)]
        return [None if None in key else norm_tuple(key) for key in
                _key_rows(self.key_fns[side], batch.rows, outer_rows)]

    def _build(self, outer_rows: Rows) -> _Built:
        """The hashed right input: a semi / anti join without a residual
        needs its key set only, everything else its columns indexed."""
        right = self.children[1]
        if self.semi and self.check is None:
            members: set = set()
            empty = True
            for batch in right.chunks(outer_rows):
                empty = False
                members.update(self._hash_keys(batch, 1, outer_rows))
            has_null = False
            if not self.null_aware:
                members.discard(None)
            else:
                has_null = None in members
                if members:
                    members.add(None)  # the NULL key: rejected, like a match
            return _Built(members, False, None, empty, has_null)
        batches: list[Batch] = []
        keys: list = []
        for batch in right.chunks(outer_rows):
            batches.append(batch)
            keys.extend(self._hash_keys(batch, 1, outer_rows))
        index: dict = dict(zip(keys, range(len(keys))))
        nulls = 0
        if None in index:
            del index[None]
            nulls = keys.count(None)
        unique = len(index) + nulls == len(keys)
        if not unique:
            index = {}
            lookup = index.get
            for row_id, key in enumerate(keys):
                ids = lookup(key)
                if ids is None:
                    index[key] = [row_id]
                else:
                    ids.append(row_id)
            index.pop(None, None)
        return _Built(index, unique,
                      stack(batches, len(right.schema), self.left_join),
                      not batches, False)

    def _batches(self, outer_rows: Rows) -> Iterator[Batch]:
        if self.semi:
            return self._semi_batches(outer_rows)
        return self._joined_batches(outer_rows)

    def _joined_batches(self, outer_rows: Rows) -> Iterator[Batch]:
        left, right = self.children
        widths = (len(left.schema), len(right.schema))
        size = _batch.BATCH_SIZE
        if self.kind == "hash-join":
            pairs = partial(self._hashed_pairs, self._build(outer_rows))
        elif self.kind == "index-join":
            pairs = self._probed_pairs
        else:
            pairs = partial(self._tiled_pairs, stack(
                list(right.chunks(outer_rows)), widths[1], self.left_join))
        for batch in left.chunks(outer_rows):
            for lpos, rids, source in pairs(batch, outer_rows, size):
                if self.check is not None:
                    lpos, rids = self._residual(batch, lpos, rids, source,
                                                outer_rows)
                count = len(rids)
                for start in range(0, count, size):
                    stop = start + size
                    yield take([(batch, lpos[start:stop], widths[0]),
                                (source, rids[start:stop], widths[1])],
                               min(size, count - start))

    def _hashed_pairs(self, built: _Built, batch: Batch, outer_rows: Rows,
                      size: int) -> Iterator[tuple]:
        self._observe(len(batch))
        keys = self._hash_keys(batch, 0, outer_rows)
        right, lookup = built.right, built.index.get
        pad = len(right) - 1
        if not built.unique:
            for lpos, rids in _expand(list(map(lookup, keys)),
                                      self.left_join, pad, size):
                yield lpos, rids, right
        elif self.left_join:
            yield range(len(batch)), list(map(lookup, keys, repeat(pad))), \
                right
        else:
            found = list(map(lookup, keys))
            if None not in found:
                yield range(len(found)), found, right
                return
            hit = list(map(is_not, found, repeat(None)))
            lpos = list(compress(range(len(found)), hit))
            if lpos:
                yield lpos, list(compress(found, hit)), right

    def _probed_pairs(self, batch: Batch, outer_rows: Rows,
                      size: int) -> Iterator[tuple]:
        """The right rows of one left batch are its index matches, in
        the order found, gathered from the table into one source."""
        probe = self.children[1]
        found = list(map(probe.lookup, _key_rows(
            probe.key_fns, batch.rows, outer_rows)))
        matched = list(chain.from_iterable(found))
        source = stack([probe.fetch(matched)], len(probe.schema),
                       self.left_join)
        ends = list(accumulate(map(len, found)))
        for lpos, rids in _expand(list(map(range, chain((0,), ends), ends)),
                                  self.left_join, len(matched), size):
            yield lpos, rids, source

    def _tiled_pairs(self, source: Batch, batch: Batch, outer_rows: Rows,
                     size: int) -> Iterator[tuple]:
        """Every left row against every right row, a run of left rows at
        a time so that a chunk holds about *size* pairs."""
        count = len(source) - self.left_join
        rows = len(batch)
        if not count:
            if self.left_join:
                yield range(rows), [count] * rows, source
            return
        step = max(1, size // count)
        for start in range(0, rows, step):
            positions = range(start, min(rows, start + step))
            yield (list(chain.from_iterable(map(repeat, positions,
                                                repeat(count)))),
                   list(range(count)) * len(positions), source)

    def _residual(self, batch: Batch, lpos, rids, source: Batch,
                  outer_rows: Rows) -> tuple[list, list]:
        """The candidate pairs ``check`` holds for, judged on their
        combined rows; a LEFT join keeps its pad pairs unchecked and pads
        a left row whose every pair failed, where its pairs were."""
        left_rows, right_rows = batch.rows, source.rows
        check = self.check
        pad = len(source) - 1 if self.left_join else None
        mask = [rid == pad or check(outer_rows + (
                    left_rows[position] + right_rows[rid],))
                for position, rid in zip(lpos, rids)]
        if pad is None:
            return list(compress(lpos, mask)), list(compress(rids, mask))
        survivors = set(compress(lpos, mask))
        kept_lpos: list = []
        kept_rids: list = []
        padded = None
        for position, rid, keep in zip(lpos, rids, mask):
            if keep:
                kept_lpos.append(position)
                kept_rids.append(rid)
            elif position not in survivors and position != padded:
                kept_lpos.append(position)
                kept_rids.append(pad)
                padded = position
        return kept_lpos, kept_rids

    def _semi_batches(self, outer_rows: Rows) -> Iterator[Batch]:
        anti = self.kind == "anti-join"
        # The right side is a subquery: it runs when the first left row
        # asks for it — once per statement when it reads no enclosing
        # row.
        built = self._built
        for batch in self.children[0].chunks(outer_rows):
            if built is None:
                built = self._build(outer_rows + (None,))
                if self.build_once:
                    self._built = built
            if built.empty and not self.in_predicate:
                # An EXISTS over nothing: no key is compared.
                if anti:
                    yield batch
                continue
            self._observe(len(batch))
            keys = self._hash_keys(batch, 0, outer_rows)
            if self.check is None:
                if built.has_null:
                    continue  # NOT IN (... NULL ...): true of no x
                mask = list(map(built.index.__contains__, keys))
            else:
                batch, mask = self._witnessed(batch, keys, built, outer_rows,
                                              anti)
            if anti:
                mask = list(map(not_, mask))
            batch = batch.select(mask)
            if batch:
                yield batch

    def _witnessed(self, batch: Batch, keys: Iterable, built: _Built,
                   outer_rows: Rows, anti: bool) -> tuple[Batch, list]:
        """Per left row, whether some right row with its key passes
        ``check``.  A semi join first drops the rows without candidates,
        so it builds left rows only for those with some."""
        found = list(map(built.index.get, keys))
        if not anti and None in found:
            hit = list(map(is_not, found, repeat(None)))
            batch = batch.select(hit)
            if not batch:
                return batch, []
            found = list(compress(found, hit))
        check, right_rows = self.check, built.right.rows
        unique = built.unique
        mask = []
        for left_row, ids in zip(batch.rows, found):
            witness = False
            if ids is not None:
                context = outer_rows + (left_row,)
                for rid in (ids,) if unique else ids:
                    if check(context + (right_rows[rid],)):
                        witness = True
                        break
            mask.append(witness)
        return batch, mask
