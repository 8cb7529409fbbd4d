"""Query building: SELECT AST -> executable operator tree.

``build_select`` turns a SELECT AST into a tree of
:mod:`repro.relational.operators` rooted at a ``Result``; running the
root produces the rows.  A top-level WHERE ``[NOT] IN (subquery)`` /
``[NOT] EXISTS`` that can be one becomes a semi / anti join; of the
other subqueries, correlated ones re-run their subtree per outer row,
uncorrelated ones are cached (their run's columns, and the key set
``IN`` tests) after their first run, until the statement's run ends.

A prepared statement's ``?`` placeholders are slots: the tree is built
once and every run binds the values its ``Slots`` hold (see
:mod:`repro.relational.compiler`).  Nothing a run's values decide is
decided here — a conjunct over a slot picks its mask kernel per run (a
:class:`~repro.relational.vectors.SlotKernel`), and a constant is read
from its slot — except where the statement's very shape would depend on
them (an ORDER BY / GROUP BY term, which a value may turn into a
position); building such a template raises :class:`BindFirst`.  A slot
conjunct beside a semi join is laid out ahead of it, where its
literal's kernel would run, and the tree is re-driven only for values
under which it does (``Slots.admits``).

There is one builder.  The planner rewrites its private AST copy, leaves
its physical decisions on the nodes as :class:`~repro.relational.ast.
PlanHint` s and calls it; planner-off execution, trivial selects,
subqueries and ``INSERT ... SELECT`` call it on the AST as written, and
where a node carries no hint it decides locally (hash join on
equi-conjuncts, index probe into a large enough indexed table, nested
loop otherwise).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from . import ast, vectors
from .aggregates import (AGGREGATE_NAMES, contains_aggregate,
                         make_aggregate)
from .batch import Batch, ColumnFold, GenericFold, norm_tuple
from .catalog import Catalog
from .compiler import (CompileContext, compile_expr, compile_predicate,
                       membership, resolve_column)
from .errors import (AmbiguousColumnError, ExecutionError,
                     NotSupportedError, SchemaError, UnknownColumnError)
from .operators import (Aggregate, Distinct, Filter, IndexProbe, Join,
                        Limit, Operator, Project, Result, RowFn, Rows, Scan,
                        SetOp, Sort, Subquery, Values, ViewScan)
from .render import as_slot, render_expr
from .schema import ResultColumn, RowSchema
from .table import BoundView, Table, find_probe_index
from .types import DataType

#: Without a cost-based decision, equi-joins probe an index on the
#: inner table only when it is at least this large — below that, an
#: in-memory hash build is as fast and has no per-lookup overhead.
INDEX_PROBE_THRESHOLD = 64


#: ``norm_tuple`` of a one-column row holding NULL.
_NULL_ROW = norm_tuple((None,))


class BindFirst(Exception):
    """The statement's shape depends on the values of its ``?``
    placeholders, so it cannot be built as slots: bind, then build."""


def _label(expr: ast.Expr) -> str:
    """*expr* as an operator label shows it (a ``?`` as its slot)."""
    return render_expr(expr, as_slot)


class SubPlan:
    """A built subquery usable from WHERE/SELECT expressions.

    *single_column* names the construct (``IN subquery``, ``scalar
    subquery``) whose subquery must return exactly one column — checked
    here, at build time, whatever the outer rows turn out to be.
    """

    def __init__(self, catalog: Catalog, query: ast.SelectQuery,
                 scopes: list[RowSchema], ctx: CompileContext,
                 single_column: str | None = None) -> None:
        watcher = ctx.push_watcher()
        try:
            top = build_query(query, catalog, scopes, ctx)
        finally:
            ctx.pop_watcher()
        #: The enclosing scopes the subquery reads.
        self.outer_depths = {depth for depth in watcher
                             if depth < len(scopes)}
        self.correlated = bool(self.outer_depths)
        self.root = Subquery(top, self.correlated)
        if single_column is not None:
            self._single_column(single_column)
        ctx.subplans.append(self.root)

    def _collected(self, outer_rows: Rows) -> Batch:
        """The subquery's run, as one batch of columns."""
        root = self.root
        if self.correlated:
            return root.collect(outer_rows)
        if root.cached is None:
            root.cached = root.collect(outer_rows)
        return root.cached

    def _single_column(self, what: str) -> None:
        if len(self.root.schema) != 1:
            raise ExecutionError(f"{what} must return exactly one column")

    def scalar(self, outer_rows: Rows) -> Any:
        found = self._collected(outer_rows)
        if not found:
            return None
        if len(found) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return found.column(0)[0]

    def exists(self, outer_rows: Rows) -> bool:
        return bool(self._collected(outer_rows))

    def membership(self, value: Any, outer_rows: Rows) -> bool | None:
        """3VL ``value IN (this subquery)``.  An uncorrelated subquery
        normalises its column into a key set once; a correlated one is
        re-run and scanned per call."""
        if self.correlated:
            return membership(value, self._collected(outer_rows).column(0))
        members = self.root.members
        if members is None:
            members = self.root.members = set(
                map(norm_tuple, zip(self._collected(outer_rows).column(0))))
        if not members:
            return False
        if value is None:
            return None
        if norm_tuple((value,)) in members:
            return True
        return None if _NULL_ROW in members else False


def make_context(catalog: Catalog, exec_hooks=None,
                 stats=None) -> CompileContext:
    return CompileContext(partial(SubPlan, catalog), exec_hooks, stats)


def build_select(query: ast.SelectQuery, catalog: Catalog,
                 exec_hooks=None, stats=None) -> Result:
    """The executable tree of one top-level SELECT."""
    ctx = make_context(catalog, exec_hooks, stats)
    return Result(build_query(query, catalog, [], ctx), ctx.subplans,
                  ctx.slots)


# ---------------------------------------------------------------------------
# Kernel selectors: where an operator may use a specialised column kernel
# ---------------------------------------------------------------------------
#
# ``vectors.compile_filter_kernel`` is the fifth one (mask kernels, per
# WHERE conjunct) and ``select_semi_joins``, further down with the WHERE
# clause it reads, the sixth.  Each answers from what the builder can
# observe; the generic compiled expression is always the alternative.

def _innermost_position(expr: ast.Expr | None,
                        scopes: list[RowSchema]) -> int | None:
    """The position *expr* reads when it is a plain reference into the
    innermost scope (and not, say, a correlated outer column)."""
    if isinstance(expr, ast.SlotRef):
        return expr.index
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        depth, position = resolve_column(expr, scopes)
    except UnknownColumnError:
        return None  # compiling the expression reports the error
    return position if depth == len(scopes) - 1 else None


def _typed_column(expr: ast.Expr | None, scopes: list[RowSchema]
                  ) -> tuple[int, DataType] | None:
    """``(position, type)`` when *expr* is a plain innermost column of
    known type.  Only such a column's values come unchanged from a table
    column, so they belong to one type family, and raw ``<`` / ``==`` /
    hashing agree with ``compare_values`` / ``values_equal``."""
    position = _innermost_position(expr, scopes)
    if position is None:
        return None
    data_type = scopes[-1].columns[position].data_type
    return None if data_type is None else (position, data_type)


def select_gather(exprs: list[ast.Expr], scopes: list[RowSchema]
                  ) -> list[int | ast.Literal | ast.Param | None]:
    """Per select-list expression, the input position to gather it
    from, the constant (literal or ``?``) to repeat, or ``None`` when it
    needs the expression kernel."""
    return [expr if isinstance(expr, (ast.Literal, ast.Param))
            else _innermost_position(expr, scopes) for expr in exprs]


def select_folds(group_exprs: list[ast.Expr],
                 calls: list[ast.FunctionCall], scopes: list[RowSchema]
                 ) -> tuple[list[int] | None, list[tuple | None]]:
    """Column kernels for one aggregation: the GROUP BY key positions
    (``None`` unless every key is a plain typed column) and, per
    aggregate call, a :class:`ColumnFold` spec or ``None``.  SUM/AVG
    additionally need a numeric column: anything else must keep raising
    ``TypeMismatchError`` from the generic state machine.
    """
    keys = [_typed_column(expr, scopes) for expr in group_exprs]
    specs: list[tuple | None] = []
    for call in calls:
        name = call.name.upper()
        spec = None
        if call.star:
            if name == "COUNT" and not call.distinct:
                spec = ("count*", None, False)
        elif name in ("COUNT", "SUM", "AVG", "MIN", "MAX") \
                and len(call.args) == 1:
            column = _typed_column(call.args[0], scopes)
            if column is not None and (
                    name not in ("SUM", "AVG")
                    or column[1] in (DataType.INTEGER, DataType.REAL)):
                spec = (name.lower(), column[0], call.distinct)
        specs.append(spec)
    return (None if None in keys else [key[0] for key in keys]), specs


#: Column types whose raw values hash and compare as ``values_equal``
#: does: within one family only (``TRUE = 1`` is false in SQL, true in
#: Python).
_KEY_FAMILY = {DataType.INTEGER: "n", DataType.REAL: "n",
               DataType.TEXT: "s", DataType.BOOLEAN: "b"}


def select_join_keys(pairs: list[tuple[ast.Expr, ast.Expr]],
                     left_scopes: list[RowSchema],
                     right_scopes: list[RowSchema]
                     ) -> tuple[list[int], list[int]] | None:
    """The ``(left positions, right positions)`` a hash join may read
    its keys from as raw column values: every ``left = right`` pair must
    be plain typed columns of one comparison family."""
    positions: tuple[list[int], list[int]] = ([], [])
    for left_expr, right_expr in pairs:
        left = _typed_column(left_expr, left_scopes)
        right = _typed_column(right_expr, right_scopes)
        if left is None or right is None \
                or _KEY_FAMILY[left[1]] != _KEY_FAMILY[right[1]]:
            return None
        positions[0].append(left[0])
        positions[1].append(right[0])
    return positions


def select_sort_keys(exprs: list[ast.Expr], scopes: list[RowSchema]
                     ) -> list[int | None] | None:
    """Per ORDER BY key, the input position (plain column or slot) to
    gather its key column from, or ``None`` when it is an expression to
    evaluate.  Always accepts: whether the key columns sort natively is
    decided on their values, at run time."""
    return [_innermost_position(expr, scopes) for expr in exprs]


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------

def _collect_bindings(table_expr: ast.TableExpr, seen: set[str]) -> None:
    if isinstance(table_expr, ast.Join):
        _collect_bindings(table_expr.left, seen)
        _collect_bindings(table_expr.right, seen)
        return
    binding = (table_expr.binding if isinstance(table_expr, ast.TableRef)
               else table_expr.alias)
    if binding.lower() in seen:
        raise SchemaError(f"duplicate table alias {binding!r}")
    seen.add(binding.lower())


_NO_HINT = ast.PlanHint()


def build_table_expr(table_expr: ast.TableExpr, catalog: Catalog,
                     outer_scopes: list[RowSchema],
                     ctx: CompileContext) -> Operator:
    hint = table_expr.hint or _NO_HINT
    if isinstance(table_expr, ast.TableRef):
        label = table_expr.name
        if table_expr.alias and table_expr.alias.lower() != label.lower():
            label = f"{label} as {table_expr.alias}"
        table = catalog.table(table_expr.name)
        if isinstance(table, BoundView):
            return ViewScan(table, ctx.slots, table_expr.name,
                            table_expr.binding, label, hint.est_rows,
                            ctx.exec_hooks)
        return Scan(table, table_expr.binding, label, hint.est_rows,
                    ctx.exec_hooks)
    if isinstance(table_expr, ast.SubqueryRef):
        # A derived table is its query's rows under the alias's schema.
        query = build_query(table_expr.query, catalog, outer_scopes, ctx)
        schema = RowSchema([
            ResultColumn(column.name, table_expr.alias, column.data_type)
            for column in query.schema.columns])
        return Operator("derived", table_expr.alias, schema, [query],
                        hint.est_rows, hint.detail)
    if isinstance(table_expr, ast.Join):
        return _build_join(table_expr, catalog, outer_scopes, ctx)
    raise NotSupportedError(
        f"cannot compile {type(table_expr).__name__} in FROM")


def _try_compile(expr: ast.Expr, scopes: list[RowSchema],
                 ctx: CompileContext) -> RowFn | None:
    try:
        return compile_expr(expr, scopes, ctx)
    except UnknownColumnError:
        return None


def _choose_probe(right: Operator, strategy: str | None,
                  right_positions: list[int | None]
                  ) -> tuple[Any, list[int]] | None:
    """Whether an equi-join probes an index on its inner table instead
    of building a hash table: ``(index, covered pair indices)`` or
    ``None``.  The planner's strategy wins when the join carries one;
    otherwise a matching index on a large enough table is used.
    """
    if not isinstance(right, Scan) or not isinstance(right.table, Table):
        return None  # derived inputs and foreign tables have no index
    if strategy in ("hash-join", "nested-loop"):
        return None  # the cost model already rejected a probe
    candidates = [(pair, position)
                  for pair, position in enumerate(right_positions)
                  if position is not None]
    if not candidates:
        return None
    table = right.table
    found = find_probe_index(table, [table.schema.columns[position].name
                                     for _pair, position in candidates])
    if found is None:
        return None
    if strategy != "index-join" and len(table) < INDEX_PROBE_THRESHOLD:
        return None
    index, covered = found
    return index, [candidates[i][0] for i in covered]


def _build_join(join: ast.Join, catalog: Catalog,
                outer_scopes: list[RowSchema],
                ctx: CompileContext) -> Operator:
    left = build_table_expr(join.left, catalog, outer_scopes, ctx)
    right = build_table_expr(join.right, catalog, outer_scopes, ctx)
    hint = join.hint or _NO_HINT
    left_join = join.join_type == "LEFT"
    label = ("left to " if left_join else "to ") + right.label
    left_scopes = outer_scopes + [left.schema]
    right_scopes = outer_scopes + [right.schema]
    combined_scopes = outer_scopes + [left.schema.extended(right.schema)]

    if join.join_type == "CROSS" or join.condition is None:
        if left_join:
            raise ExecutionError("LEFT JOIN requires an ON condition")
        return Join("cross-join", label, left, right, False, [], [], None,
                    hint.est_rows)

    # Split the ON condition into hashable equi-conjuncts — (conjunct,
    # left key, right key, inner-table position when the right side is
    # a plain inner column: an index-probe candidate) — and a residual.
    equi: list[tuple[ast.Expr, RowFn, RowFn, int | None]] = []
    pairs: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for conjunct in ast.conjuncts(join.condition):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            for left_ast, right_ast in ((conjunct.left, conjunct.right),
                                        (conjunct.right, conjunct.left)):
                left_fn = _try_compile(left_ast, left_scopes, ctx)
                right_fn = _try_compile(right_ast, right_scopes, ctx)
                if left_fn is not None and right_fn is not None:
                    equi.append((conjunct, left_fn, right_fn,
                                 _innermost_position(right_ast,
                                                     right_scopes)))
                    pairs.append((left_ast, right_ast))
                    break
            else:
                residual.append(conjunct)
        else:
            residual.append(conjunct)

    if not equi:
        check = compile_predicate(join.condition, combined_scopes, ctx)
        return Join("nested-loop", label, left, right, left_join, [], [],
                    check, hint.est_rows)

    kind = "hash-join"
    key_positions = None
    probe = _choose_probe(right, hint.strategy,
                          [position for *_rest, position in equi])
    if probe is not None:
        # The index answers the covered pairs (the probe holds their
        # left keys); the others are checked on each candidate row,
        # ahead of the residual.
        index, covered = probe
        kind = "index-join"
        right = IndexProbe(right, index, [equi[i][1] for i in covered],
                           [equi[i][3] for i in covered], right.est_rows)
        residual = [pair[0] for i, pair in enumerate(equi)
                    if i not in covered] + residual
    else:
        key_positions = select_join_keys(pairs, left_scopes, right_scopes)
    residual_expr = ast.conjoin(residual)
    check = (compile_predicate(residual_expr, combined_scopes, ctx)
             if residual_expr is not None else None)
    return Join(kind, label, left, right, left_join,
                [pair[1] for pair in equi], [pair[2] for pair in equi],
                check, hint.est_rows, key_positions, ctx.exec_hooks)


# ---------------------------------------------------------------------------
# WHERE / HAVING
# ---------------------------------------------------------------------------

def _point_probe(scan: Scan, where: ast.Expr, scopes: list[RowSchema],
                 ctx: CompileContext) -> tuple[Operator, ast.Expr | None]:
    """Single-table fast path: the first ``column = constant`` conjunct
    (a literal or a ``?``) over an indexed column becomes an index
    probe, which beats any scan.  Returns the (possibly replaced) source
    and the remaining WHERE.  The probe's estimate is ``rows /
    distinct`` of an ANALYZEd column, and unset (not the table's row
    count) otherwise."""
    conjuncts = ast.conjuncts(where)
    for number, conjunct in enumerate(conjuncts):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for column_side, value_side in ((conjunct.left, conjunct.right),
                                        (conjunct.right, conjunct.left)):
            if not (isinstance(column_side, ast.ColumnRef)
                    and isinstance(value_side, (ast.Literal, ast.Param))):
                continue
            position = _innermost_position(column_side, scopes)
            if position is None:
                continue
            index = scan.table.find_index_on([column_side.name])
            if index is not None:
                stats = ctx.stats
                analyzed = stats and stats.get(scan.table.schema.name)
                column = analyzed and analyzed.column(column_side.name)
                probe = IndexProbe(
                    scan, index, [compile_expr(value_side, scopes, ctx)],
                    [position],
                    len(scan.table) / column.distinct
                    if column and column.distinct else None)
                rest = conjuncts[:number] + conjuncts[number + 1:]
                return probe, ast.conjoin(rest)
    return scan, where


def select_semi_joins(conjuncts: list[ast.Expr],
                      outer_scopes: list[RowSchema], schema: RowSchema,
                      catalog: Catalog, ctx: CompileContext
                      ) -> list[Callable[[Operator], Join] | None]:
    """The sixth kernel selector: per WHERE conjunct over rows of
    *schema*, how to stack it over them as a semi / anti :class:`Join`
    — "has a witness in the other relation" is a join — when it is
    ``expr [NOT] IN (subquery that does not read this row)`` or ``[NOT]
    EXISTS (SELECT ... FROM one table WHERE inner = outer [AND rest])``
    (:func:`vectors.semi_join` says which), else ``None``: the conjunct
    stays in the filter, on the compiled closure, which is the
    reference."""
    scopes = outer_scopes + [schema]

    def inner_scope(source: ast.TableRef):
        chain = scopes + [RowSchema.for_table(
            catalog.table(source.name).schema, source.binding)]

        def level_of(ref: ast.ColumnRef) -> int | None:
            try:
                return len(chain) - 1 - resolve_column(ref, chain)[0]
            except (UnknownColumnError, AmbiguousColumnError):
                return None
        return level_of

    stack: list[Callable[[Operator], Join] | None] = []
    for conjunct in conjuncts:
        found = vectors.semi_join(conjunct, inner_scope)
        stack.append(found and (
            _in_semi_join if isinstance(found.node, ast.InSubquery)
            else _exists_semi_join)(found, scopes, catalog, ctx))
    return stack


def _semi_join(found: vectors.SemiJoin, right: Operator, label: str, check,
               scopes: list[RowSchema], ctx: CompileContext,
               build_once: bool, in_predicate: bool = False
               ) -> Callable[[Operator], Join]:
    """The inner side and *check* live one scope below the left row,
    like the subquery they come from."""
    inner_scopes = scopes + [right.schema]
    kind = "anti-join" if found.negated else "semi-join"
    left_keys = [compile_expr(outer, scopes, ctx)
                 for outer, _inner in found.pairs]
    right_keys = [compile_expr(inner, inner_scopes, ctx)
                  for _outer, inner in found.pairs]
    key_positions = select_join_keys(found.pairs, scopes, inner_scopes)
    est_rows = (found.node.hint or _NO_HINT).est_rows
    return lambda left: Join(
        kind, label, left, right, False, left_keys, right_keys, check,
        est_rows, key_positions, ctx.exec_hooks, in_predicate, build_once)


def _in_semi_join(found: vectors.SemiJoin, scopes: list[RowSchema],
                  catalog: Catalog, ctx: CompileContext
                  ) -> Callable[[Operator], Join] | None:
    conjunct = found.node
    built = len(ctx.subplans)
    plan = SubPlan(catalog, conjunct.query, scopes, ctx, "IN subquery")
    if len(scopes) - 1 in plan.outer_depths:
        # It reads the row being filtered: the closure builds its own.
        del ctx.subplans[built:]
        return None
    ctx.subplans.pop()  # the join shows it, as its build side
    return _semi_join(
        found, plan.root,
        _label(conjunct.operand) + (" NOT IN" if found.negated
                                    else " IN"),
        None, scopes, ctx, not plan.correlated, in_predicate=True)


def _exists_semi_join(found: vectors.SemiJoin, scopes: list[RowSchema],
                      catalog: Catalog, ctx: CompileContext
                      ) -> Callable[[Operator], Join]:
    core = found.node.query.core
    source: ast.TableRef = core.from_clause
    # The inner-only conjuncts stay in the subquery; the equalities are
    # the keys; what else reads this row is checked per candidate pair.
    watcher = ctx.push_watcher()
    try:
        build = build_core(ast.SelectCore(
            items=[ast.SelectItem(ast.Star())], from_clause=source,
            where=ast.conjoin(found.inner_only)), catalog, scopes, ctx)
    finally:
        ctx.pop_watcher()
    right = Operator("subquery", "decorrelated", build.schema, [build])
    chain = scopes + [right.schema]
    # The select list is never evaluated, but its names must resolve.
    for expr in _plain_items(core.items, right.schema, chain)[0]:
        compile_expr(expr, chain, ctx)
    check = (compile_predicate(ast.conjoin(found.mixed), chain, ctx)
             if found.mixed else None)
    return _semi_join(
        found, right,
        ("NOT EXISTS " if found.negated else "EXISTS ") + source.binding,
        check, scopes, ctx,
        not any(depth < len(scopes) for depth in watcher))


def _build_where(op: Operator, where: ast.Expr,
                 outer_scopes: list[RowSchema], catalog: Catalog,
                 ctx: CompileContext, est_rows: float | None) -> Operator:
    """The WHERE clause over *op*: its conjuncts in the order a filter
    runs them — those with a mask kernel, then the others as written —
    each run of conjuncts a :class:`Filter`, each one the selector
    takes a semi / anti join at its place.  A conjunct that guards a
    later one (``b <> 0 AND a / b IN (...)``) so guards it here too, and
    a subquery no row reaches is not run."""
    scopes = outer_scopes + [op.schema]
    parts = ast.conjuncts(where)
    stack = select_semi_joins(parts, outer_scopes, op.schema, catalog, ctx)
    if not any(stack):
        return build_filter(op, "WHERE", where, scopes, ctx, est_rows)
    kernels = [_mask_kernel(part, scopes, ctx.slots) for part in parts]

    def filter_over(op: Operator, pending: list[ast.Expr]) -> Filter:
        # A slot conjunct runs ahead of the joins, where its literal's
        # kernel would: the tree is re-driven only for values that
        # choose one (Slots.admits), any other run is bound and built.
        built = build_filter(op, "WHERE", ast.conjoin(pending), scopes, ctx,
                             est_rows)
        ctx.slots.pinned.extend(
            kernel for kernel, _fn in built.conjuncts
            if isinstance(kernel, vectors.SlotKernel))
        return built

    # The planner estimates the whole filter first, the joins over it.
    pending: list[ast.Expr] = []
    for index in sorted(range(len(parts)),
                        key=lambda index: kernels[index] is None):
        if stack[index] is None:
            pending.append(parts[index])
            continue
        if pending:
            op = filter_over(op, pending)
            pending = []
        op = stack[index](op)
        est_rows = op.est_rows
    if pending:
        op = filter_over(op, pending)
    return op


def _mask_kernel(conjunct: ast.Expr, scopes: list[RowSchema], slots):
    """The mask kernel a filter over ``scopes[-1]`` runs *conjunct* as —
    a :class:`~repro.relational.vectors.SlotKernel` when its ``?`` slots'
    values will choose — or ``None`` (over typed columns only: an
    unresolved ref sends it to the generic predicate, whose compile
    reports unknown columns and marks outer references)."""
    if not any(column.data_type is not None
               for column in scopes[-1].columns):
        return None
    resolve = partial(_typed_column, scopes=scopes)
    return vectors.compile_filter_kernel(conjunct, resolve) \
        or vectors.slot_kernel(conjunct, resolve, slots)


def build_filter(child: Operator, label: str, predicate: ast.Expr,
                 scopes: list[RowSchema], ctx: CompileContext,
                 est_rows: float | None = None) -> Filter:
    """A filter over *child*: every conjunct over typed columns that
    compiles to a mask kernel runs as one — one kernel per conjunct, in
    written order, each narrowing what the one before it kept (an AND
    nested under OR or NOT stays inside its conjunct's kernel) — the
    rest stay on the generic predicate: a hybrid plan, not an error.  A
    conjunct whose kernel its ``?`` values choose keeps its generic
    predicate too, for the runs whose values choose none."""
    typed = any(column.data_type is not None
                for column in scopes[-1].columns)
    resolve = partial(_typed_column, scopes=scopes)
    conjuncts: list[tuple] = []
    fallbacks: list[tuple[str, str]] = []
    for conjunct in ast.conjuncts(predicate):
        kernel = _mask_kernel(conjunct, scopes, ctx.slots)
        if kernel is None and typed:
            # What is of semi-join shape and still here, the selector
            # declined.
            fallbacks.append((_label(conjunct), vectors.fallback_reason(
                conjunct, resolve, declined=True)))
        generic = kernel is None or isinstance(kernel, vectors.SlotKernel)
        conjuncts.append((kernel, compile_expr(conjunct, scopes, ctx)
                          if generic else None))
    return Filter(child, label, conjuncts, fallbacks, est_rows,
                  ctx.exec_hooks)


# ---------------------------------------------------------------------------
# Aggregation rewriting
# ---------------------------------------------------------------------------

class _AggregateRewriter:
    """Rewrites expressions over grouped input into slot references.

    Slots 0..G-1 hold the group keys, slots G.. hold aggregate results.
    """

    def __init__(self, group_exprs: list[ast.Expr],
                 scopes: list[RowSchema]) -> None:
        self.group_keys = {ast.node_key(expr): index
                           for index, expr in enumerate(group_exprs)}
        self.aggregates: list[ast.FunctionCall] = []
        self._agg_slots: dict[Any, int] = {}
        self.scopes = scopes

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        key = ast.node_key(expr)
        if key in self.group_keys:
            return ast.SlotRef(self.group_keys[key])
        if isinstance(expr, ast.FunctionCall) \
                and expr.name.upper() in AGGREGATE_NAMES:
            if key not in self._agg_slots:
                self._agg_slots[key] = \
                    len(self.group_keys) + len(self.aggregates)
                self.aggregates.append(expr)
            return ast.SlotRef(self._agg_slots[key])
        if isinstance(expr, ast.ColumnRef):
            depth, _position = resolve_column(expr, self.scopes)
            if depth < len(self.scopes) - 1:
                return expr  # correlated outer reference: constant per run
            raise ExecutionError(
                f"column {expr.display()!r} must appear in GROUP BY "
                "or be used in an aggregate")
        if isinstance(expr, ast.InSubquery):
            return ast.InSubquery(self.rewrite(expr.operand), expr.query,
                                  expr.negated, expr.hint)
        # A subquery's own text is not rewritten (rebuild_expr returns
        # it, like every other leaf, unchanged): it reaches the group
        # keys by name through the slot scope (see ``slot_columns``).
        return ast.rebuild_expr(expr, self.rewrite)

    def slot_columns(self, group_exprs: list[ast.Expr]
                     ) -> list[ResultColumn]:
        """The slot schema: a group key that is a plain column keeps its
        name, so a correlated subquery in HAVING / the select list
        resolves its outer references to group keys (and to nothing
        else of the grouped table) like any outer column."""
        source = self.scopes[-1].columns
        columns = [ResultColumn(f"?slot{index}", None) for index in range(
            len(group_exprs) + len(self.aggregates))]
        for index, expr in enumerate(group_exprs):
            position = _innermost_position(expr, self.scopes)
            if position is not None:
                columns[index] = ResultColumn(source[position].name,
                                              source[position].qualifier)
        return columns


# ---------------------------------------------------------------------------
# SELECT core
# ---------------------------------------------------------------------------

def _substitute_order_targets(exprs: list[ast.Expr],
                              items: list[ast.SelectItem]
                              ) -> list[ast.Expr]:
    """Resolve ORDER/GROUP BY ordinals and select-list aliases.  A
    ``?`` among them might be a position, or make a term match a select
    item or group key: its value decides (:class:`BindFirst`)."""
    if any(isinstance(node, ast.Param)
           for expr in exprs for node in ast.walk_expr(expr)):
        raise BindFirst("a ? in ORDER BY or GROUP BY")
    resolved: list[ast.Expr] = []
    for expr in exprs:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            index = expr.value
            if index < 1 or index > len(items):
                raise ExecutionError(
                    f"ORDER/GROUP BY position {index} is out of range")
            item = items[index - 1]
            if item.is_star:
                raise ExecutionError(
                    "ORDER/GROUP BY position cannot reference '*'")
            resolved.append(item.expr)
            continue
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            alias_matches = [item for item in items
                            if item.alias
                            and item.alias.lower() == expr.name.lower()]
            if len(alias_matches) == 1:
                # An output alias shadows input columns (PostgreSQL rule).
                resolved.append(alias_matches[0].expr)
                continue
        resolved.append(expr)
    return resolved


def _sort(child: Operator, order_by: list[ast.OrderItem],
          exprs: list[ast.Expr], scopes: list[RowSchema],
          ctx: CompileContext) -> Sort:
    label = ", ".join(_label(item.expr)
                      + (" DESC" if item.descending else "")
                      for item in order_by)
    return Sort(child, label, [
        (compile_expr(expr, scopes, ctx), item.descending)
        for expr, item in zip(exprs, order_by)],
        select_sort_keys(exprs, scopes), ctx.exec_hooks)


def _plain_items(items: list[ast.SelectItem], source: RowSchema,
                 scopes: list[RowSchema]
                 ) -> tuple[list[ast.Expr], RowSchema]:
    """The select list of a non-aggregate core, stars expanded to one
    positional reference per column, and its output schema."""
    exprs: list[ast.Expr] = []
    columns: list[ResultColumn] = []
    for item in items:
        if not item.is_star:
            exprs.append(item.expr)
            # A plain column keeps its type, so operators above a
            # derived table can still see that it is one.
            position = _innermost_position(item.expr, scopes)
            columns.append(ResultColumn(
                item.output_name(),
                item.expr.qualifier if isinstance(item.expr, ast.ColumnRef)
                and not item.alias else None,
                source.columns[position].data_type
                if position is not None else None))
            continue
        qualifier = item.expr.qualifier
        positions = [
            position for position, column in enumerate(source.columns)
            if qualifier is None
            or (column.qualifier or "").lower() == qualifier.lower()]
        if not positions and qualifier is not None:
            raise UnknownColumnError(f"no table named {qualifier!r} in FROM")
        exprs.extend(ast.SlotRef(position) for position in positions)
        columns.extend(
            ResultColumn(column.name, column.qualifier, column.data_type)
            for column in map(source.columns.__getitem__, positions))
    return exprs, RowSchema(columns)


def _project(child: Operator, schema: RowSchema, exprs: list[ast.Expr],
             scopes: list[RowSchema], ctx: CompileContext) -> Project:
    return Project(child, schema, list(zip(
        select_gather(exprs, scopes),
        [compile_expr(expr, scopes, ctx) for expr in exprs])),
        ctx.exec_hooks)


def build_core(core: ast.SelectCore, catalog: Catalog,
               outer_scopes: list[RowSchema], ctx: CompileContext,
               order_by: list[ast.OrderItem] | None = None,
               limit: Callable[[Operator], Operator] | None = None
               ) -> Operator:
    """One SELECT block, with the query's ORDER BY and LIMIT placed in
    it: LIMIT goes *below* the projection whenever that is row-for-row
    (no DISTINCT), so the select list is only evaluated for the rows
    that are returned."""
    order_by = order_by or []
    if core.from_clause is not None:
        _collect_bindings(core.from_clause, set())
        op = build_table_expr(core.from_clause, catalog, outer_scopes, ctx)
    else:
        op = Values()
    scopes = outer_scopes + [op.schema]

    where = core.where
    if where is not None and isinstance(op, Scan):
        op, where = _point_probe(op, where, scopes, ctx)
    if where is not None:
        op = _build_where(op, where, outer_scopes, catalog, ctx,
                          (core.hint or _NO_HINT).est_rows)

    order_exprs = _substitute_order_targets(
        [item.expr for item in order_by], core.items)
    # DISTINCT over a plain core sorts what it emits, by output column;
    # everything else sorts the projection's input.
    sort_output = False
    if bool(core.group_by) or core.having is not None \
            or any(contains_aggregate(item.expr) for item in core.items) \
            or any(contains_aggregate(item.expr) for item in order_by):
        op, scopes, exprs = _build_aggregate(
            core, op, scopes, order_by, order_exprs, ctx)
        out_schema = RowSchema([
            ResultColumn(item.output_name(), None) for item in core.items])
    else:
        exprs, out_schema = _plain_items(core.items, op.schema, scopes)
        sort_output = core.distinct
        if order_by and not sort_output:
            op = _sort(op, order_by, order_exprs, scopes, ctx)

    if limit is not None and not core.distinct:
        op = limit(op)
    op = _project(op, out_schema, exprs, scopes, ctx)
    if core.distinct:
        op = Distinct(op)
        if order_by and sort_output:
            op = _sort(op, order_by, order_exprs,
                       scopes[:-1] + [out_schema], ctx)
        if limit is not None:
            op = limit(op)
    return op


def _build_aggregate(core: ast.SelectCore, source: Operator,
                     scopes: list[RowSchema],
                     order_by: list[ast.OrderItem],
                     order_exprs: list[ast.Expr], ctx: CompileContext
                     ) -> tuple[Operator, list[RowSchema], list[ast.Expr]]:
    """Aggregate -> HAVING filter -> ORDER BY sort, all over slot rows.
    Returns the top operator, the slot scope chain and the select list
    rewritten over the slots, for ``build_core`` to project."""
    for item in core.items:
        if item.is_star:
            raise ExecutionError("'*' cannot be used with GROUP BY")

    group_exprs = _substitute_order_targets(core.group_by, core.items)
    group_fns = [compile_expr(expr, scopes, ctx) for expr in group_exprs]
    rewriter = _AggregateRewriter(group_exprs, scopes)
    exprs = [rewriter.rewrite(item.expr) for item in core.items]
    having = (rewriter.rewrite(core.having)
              if core.having is not None else None)
    order_exprs = [rewriter.rewrite(expr) for expr in order_exprs]

    key_positions, specs = select_folds(group_exprs, rewriter.aggregates,
                                        scopes)
    folds = []
    needs_rows = bool(group_exprs) and key_positions is None
    for call, spec in zip(rewriter.aggregates, specs):
        aggregate = make_aggregate(call.name, call.star, len(call.args))
        arg_fns = [compile_expr(arg, scopes, ctx) for arg in call.args]
        if spec is None:
            needs_rows = True
            folds.append(partial(GenericFold, aggregate, arg_fns,
                                 call.distinct))
        else:
            folds.append(partial(ColumnFold, *spec))
    vectorized = any(spec is not None for spec in specs) \
        or bool(group_exprs) and key_positions is not None

    slot_schema = RowSchema(rewriter.slot_columns(group_exprs))
    slot_scopes = scopes[:-1] + [slot_schema]
    op: Operator = Aggregate(
        source, "group by" if core.group_by else "", slot_schema,
        group_fns, key_positions, folds, needs_rows, vectorized,
        ctx.exec_hooks)
    if having is not None:
        op = build_filter(op, "HAVING", having, slot_scopes, ctx)
    if order_by:
        op = _sort(op, order_by, order_exprs, slot_scopes, ctx)
    return op, slot_scopes, exprs


# ---------------------------------------------------------------------------
# Query level: set operations, ORDER BY, LIMIT
# ---------------------------------------------------------------------------

def build_query(query: ast.SelectQuery, catalog: Catalog,
                outer_scopes: list[RowSchema],
                ctx: CompileContext) -> Operator:
    limit = None
    if query.limit is not None or query.offset is not None:
        limit_fn, offset_fn = (
            compile_expr(expr, outer_scopes, ctx) if expr is not None
            else None for expr in (query.limit, query.offset))
        label = "all" if query.limit is None else _label(query.limit)
        if query.offset is not None:
            label += f" offset {_label(query.offset)}"

        bound = query.limit.value \
            if isinstance(query.limit, ast.Literal) else None
        if type(bound) is not int or bound < 0:
            bound = None  # running it reports the error

        def limit(child: Operator) -> Operator:
            return Limit(child, limit_fn, offset_fn, label, bound)

    if not query.is_compound:
        return build_core(query.core, catalog, outer_scopes, ctx,
                          query.order_by, limit)

    operands = [build_core(core, catalog, outer_scopes, ctx)
                for core in [query.core] + [c for _op, c in query.compounds]]
    for operand in operands[1:]:
        if len(operand.schema) != len(operands[0].schema):
            raise ExecutionError(
                "set operation operands must have the same column count")
    op: Operator = SetOp(operands, [name for name, _c in query.compounds])
    if query.order_by:
        names = [ast.SelectItem(ast.ColumnRef(column.name), None)
                 for column in op.schema.columns]
        order_exprs = _substitute_order_targets(
            [item.expr for item in query.order_by], names)
        op = _sort(op, query.order_by, order_exprs,
                   outer_scopes + [op.schema], ctx)
    return limit(op) if limit is not None else op
