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
where a node carries no hint it decides locally: a join hash-joins on
equi-conjuncts and loops otherwise.  A join probes its inner table's
column only where the planner's hint says ``index-join``.

The builder resolves no name: it reads each column reference from the
statement's bind (:mod:`repro.relational.bind`), as it reads which
subqueries are correlated (their references reach past them).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from . import ast, vectors
from .aggregates import is_aggregate, make_aggregate
from .batch import Batch, ColumnFold, GenericFold
from .bind import Binding, bind, order_target, star_positions
from .catalog import Catalog
from .compiler import (CompileContext, Slots, compile_expr,
                       compile_predicate, membership)
from .errors import ExecutionError, NotSupportedError
from .operators import (Aggregate, Distinct, Filter, IndexProbe,
                        Join, Limit, Operator, Order, Path, Project, Result,
                        RowFn, Rows, Scan, SetOp, Sort, Subquery, Values,
                        ViewScan)
from .render import as_slot, render_expr
from .schema import ResultColumn, RowSchema, fold
from .table import BoundView, Table
from .types import FAMILY, DataType, sql_key


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
        top = build_query(query, catalog, scopes, ctx)
        # Its references reach past it (Binding.reach).
        self.correlated = bool(ctx.bound.reach[id(query)])
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
        keys its column into a set (``sql_key``) once; a correlated one
        is re-run and scanned per call."""
        if self.correlated:
            return membership(value, self._collected(outer_rows).column(0))
        members = self.root.members
        if members is None:
            members = self.root.members = set(
                map(sql_key, self._collected(outer_rows).column(0)))
        if not members:
            return False
        if value is None:
            return None
        if sql_key(value) in members:
            return True
        return None if None in members else False


def make_context(catalog: Catalog, exec_hooks=None, stats=None,
                 bound: Binding | None = None) -> CompileContext:
    return CompileContext(partial(SubPlan, catalog), exec_hooks, stats,
                          bound)


def build_select(query: ast.SelectQuery, catalog: Catalog,
                 exec_hooks=None, stats=None,
                 bound: Binding | None = None) -> Result:
    """The executable tree of one top-level SELECT, its names read from
    *bound* — the planner's bind of the tree it rewrote — or, when none
    is given, from a bind of *query* as written.  The bind's first
    naming error is raised before anything is built."""
    if bound is None:
        bound = bind(query, catalog)
    bound.check()
    ctx = make_context(catalog, exec_hooks, stats, bound)
    top = build_query(query, catalog, [], ctx)
    select_ordered_read(top, ctx.slots)
    return Result(top, ctx.subplans, ctx.slots)


# ---------------------------------------------------------------------------
# Kernel selectors: where an operator may use a specialised column kernel
# ---------------------------------------------------------------------------
#
# ``vectors.compile_filter_kernel`` is the fifth one (mask kernels, per
# WHERE conjunct) and ``select_semi_joins``, further down with the WHERE
# clause it reads, the sixth.  Each answers from what the builder can
# observe; the generic compiled expression is always the alternative.
# Beside them, ``select_access_paths`` finds what a scan may read
# instead of all its rows, and ``select_ordered_read`` the sort whose
# scan may read in its key's order; the alternative to both is the scan.

def _innermost_position(expr: ast.Expr | None, scopes: list[RowSchema],
                        bound: Binding, level: int = 0) -> int | None:
    """The position *expr* reads when it is a slot or a plain bound
    reference into the scope *level* steps out of the innermost (and
    not, say, a correlated outer column)."""
    if isinstance(expr, ast.SlotRef):
        return expr.index if level == 0 else None
    found = bound.ref(expr, len(scopes)) \
        if isinstance(expr, ast.ColumnRef) else None
    if found is None or found.level != level:
        return None
    return scopes[-1 - level].position(found.binding, found.column)


def _typed_column(expr: ast.Expr | None, scopes: list[RowSchema],
                  bound: Binding, level: int = 0
                  ) -> tuple[int, DataType] | None:
    """``(position, type)`` when *expr* is a plain column of known type
    of the scope *level* steps out of the innermost.  Only such a
    column's values come unchanged from a table column, so they belong
    to one type family, and raw ``<`` / ``==`` / hashing agree with
    ``compare_values`` / ``values_equal``."""
    position = _innermost_position(expr, scopes, bound, level)
    if position is None:
        return None
    data_type = scopes[-1 - level].columns[position].data_type
    return None if data_type is None else (position, data_type)


def _typed_columns(expr: ast.Expr, scopes: list[RowSchema],
                   bound: Binding) -> vectors.Columns:
    """What a mask kernel of *expr* over ``scopes[-1]`` reads its
    references as (:data:`~repro.relational.vectors.Columns`)."""
    return {id(node): _typed_column(node, scopes, bound)
            for node in ast.walk_expr(expr) if isinstance(node, ast.ColumnRef)}


def select_gather(exprs: list[ast.Expr], scopes: list[RowSchema],
                  bound: Binding
                  ) -> list[int | ast.Literal | ast.Param | None]:
    """Per select-list expression, the input position to gather it
    from, the constant (literal or ``?``) to repeat, or ``None`` when it
    needs the expression kernel."""
    return [expr if isinstance(expr, (ast.Literal, ast.Param))
            else _innermost_position(expr, scopes, bound) for expr in exprs]


def select_folds(group_exprs: list[ast.Expr],
                 calls: list[ast.FunctionCall], scopes: list[RowSchema],
                 bound: Binding
                 ) -> tuple[list[int] | None, list[tuple | None]]:
    """Column kernels for one aggregation: the GROUP BY key positions
    (``None`` unless every key is a plain typed column) and, per
    aggregate call, a :class:`ColumnFold` spec or ``None``.  SUM/AVG
    additionally need a numeric column: anything else must keep raising
    ``TypeMismatchError`` from the generic state machine.
    """
    keys = [_typed_column(expr, scopes, bound) for expr in group_exprs]
    specs: list[tuple | None] = []
    for call in calls:
        name = call.name.upper()
        spec = None
        if call.star:
            if name == "COUNT" and not call.distinct:
                spec = ("COUNT*", None, False)
        elif name in ("COUNT", "SUM", "AVG", "MIN", "MAX") \
                and len(call.args) == 1:
            column = _typed_column(call.args[0], scopes, bound)
            if column is not None and (
                    name not in ("SUM", "AVG")
                    or column[1] in (DataType.INTEGER, DataType.REAL)):
                spec = (name, column[0], call.distinct)
        specs.append(spec)
    return (None if None in keys else [key[0] for key in keys]), specs


def select_join_keys(pairs: list[tuple[ast.Expr, ast.Expr]],
                     left_scopes: list[RowSchema],
                     right_scopes: list[RowSchema], bound: Binding,
                     left_level: int = 0
                     ) -> tuple[list[int], list[int]] | None:
    """The ``(left positions, right positions)`` a hash join may read
    its keys from as raw column values: every ``left = right`` pair must
    be plain typed columns of one comparison family (the left ones of
    the scope *left_level* steps out of the innermost of
    *left_scopes*)."""
    positions: tuple[list[int], list[int]] = ([], [])
    for left_expr, right_expr in pairs:
        left = _typed_column(left_expr, left_scopes, bound, left_level)
        right = _typed_column(right_expr, right_scopes, bound)
        if left is None or right is None \
                or FAMILY[left[1]] != FAMILY[right[1]]:
            return None
        positions[0].append(left[0])
        positions[1].append(right[0])
    return positions


def select_sort_keys(exprs: list[ast.Expr], scopes: list[RowSchema],
                     bound: Binding) -> list[int | None] | None:
    """Per ORDER BY key, the input position (plain column or slot) to
    gather its key column from, or ``None`` when it is an expression to
    evaluate.  Always accepts: whether the key columns sort natively is
    decided on their values, at run time."""
    return [_innermost_position(expr, scopes, bound) for expr in exprs]


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------

_NO_HINT = ast.PlanHint()


def build_table_expr(table_expr: ast.TableExpr, catalog: Catalog,
                     outer_scopes: list[RowSchema],
                     ctx: CompileContext) -> Operator:
    hint = table_expr.hint or _NO_HINT
    if isinstance(table_expr, ast.TableRef):
        label = table_expr.name
        if table_expr.alias and fold(table_expr.alias) != fold(label):
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


def _reads_only(expr: ast.Expr, scopes: list[RowSchema],
                bound: Binding) -> bool:
    """Does *expr*, a join key, read of the joined rows only columns of
    ``scopes[-1]`` (and hold no subquery)?"""
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return False
        if isinstance(node, ast.ColumnRef):
            found = bound.ref(node, len(scopes))
            if found is None or found.level == 0 and _innermost_position(
                    node, scopes, bound) is None:
                return False
    return True


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
    bound = ctx.bound
    equi: list[tuple[ast.Expr, RowFn, RowFn, int | None]] = []
    pairs: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for conjunct in ast.conjuncts(join.condition):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            for left_ast, right_ast in ((conjunct.left, conjunct.right),
                                        (conjunct.right, conjunct.left)):
                if _reads_only(left_ast, left_scopes, bound) \
                        and _reads_only(right_ast, right_scopes, bound):
                    equi.append((
                        conjunct, compile_expr(left_ast, left_scopes, ctx),
                        compile_expr(right_ast, right_scopes, ctx),
                        _innermost_position(right_ast, right_scopes,
                                            bound)))
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
    probed = None
    if hint.strategy == "index-join" and isinstance(right, Scan) \
            and isinstance(right.table, Table):
        # The planner's choice: probe the first plain inner column.
        probed = next((pair for pair, (*_rest, position) in enumerate(equi)
                       if position is not None), None)
    if probed is not None:
        # The lookup answers one pair (the probe holds its left key);
        # the others are checked on each candidate row, ahead of the
        # residual.
        kind = "index-join"
        right = IndexProbe(right, equi[probed][3], equi[probed][1],
                           right.est_rows)
        residual = [pair[0] for i, pair in enumerate(equi)
                    if i != probed] + residual
    else:
        key_positions = select_join_keys(pairs, left_scopes, right_scopes,
                                         bound)
    residual_expr = ast.conjoin(residual)
    check = (compile_predicate(residual_expr, combined_scopes, ctx)
             if residual_expr is not None else None)
    return Join(kind, label, left, right, left_join,
                [pair[1] for pair in equi], [pair[2] for pair in equi],
                check, hint.est_rows, key_positions, ctx.exec_hooks)


# ---------------------------------------------------------------------------
# WHERE / HAVING
# ---------------------------------------------------------------------------

def select_access_paths(scan: Scan | ViewScan, conjuncts: list[ast.Expr],
                        joins: dict[int, Join], scopes: list[RowSchema],
                        ctx: CompileContext) -> list[Path]:
    """The access paths of *scan* (:class:`~.operators.Path`), one per
    WHERE conjunct that is ``col = v`` or ``col <, <=, >, >= v`` (either
    way round, *v* a literal or a ``?``), or ``col IN (subquery)`` run
    as a semi join built once per run (*joins*, by conjunct), over a
    typed column the relation offers a path on (``scan.offers``), each
    with its conjunct's number.  Which one a run reads, if any, the scan
    decides; the conjunct it answers is not tested again.  A path added
    here must stay exact: it names the rows where its conjunct is TRUE,
    no more."""
    paths: list[Path] = []
    for number, conjunct in enumerate(conjuncts):
        join = joins.get(number)
        if join is not None:
            if not (join.kind == "semi-join" and join.in_predicate
                    and join.build_once and join.check is None):
                continue
            sides = [(vectors.semi_join_conjunct(conjunct)[0].operand,
                      "in", join.members)]
        elif isinstance(conjunct, ast.BinaryOp) and conjunct.op in _SWAPPED:
            sides = [(conjunct.left, conjunct.op, conjunct.right),
                     (conjunct.right, _SWAPPED[conjunct.op], conjunct.left)]
        else:
            continue
        for column_side, op, value_side in sides:
            typed = _typed_column(column_side, scopes, ctx.bound)
            if not isinstance(column_side, ast.ColumnRef) or typed is None:
                continue
            if op == "in":
                keys = value_side
            elif isinstance(value_side, (ast.Literal, ast.Param)):
                keys = compile_expr(value_side, scopes, ctx)
            else:
                continue
            if scan.offers(op, typed[0]):
                paths.append(Path(op, typed[0], column_side.name, keys,
                                  number))
                break
    return paths


def select_ordered_read(top: Operator, slots: Slots) -> None:
    """Let the table scan under the statement's ORDER BY read in the
    leading key's order, a run at a time (:class:`~.operators.Order`):
    where the rows *top* hands out are those of a sort — through
    projections and pass-throughs only, so no LIMIT, DISTINCT or
    aggregate between — whose leading key is a plain column of a scan
    of a :class:`Table` under it through filters, projections, the left
    side of semi / anti joins and pass-throughs, which keep every row's
    place in the key order.  Whether a run does, the scan decides."""
    node = top
    while not isinstance(node, Sort):
        if not (isinstance(node, Project) or node.passes_through) \
                or not node.children:
            return
        node = node.children[0]
    sort = node
    position = sort.positions[0] if sort.positions else None
    node = sort.children[0]
    conjuncts = 0
    while position is not None and not isinstance(node, Scan):
        if isinstance(node, Project):
            position = node.columns[position][0]
            if type(position) is not int:
                return
        elif isinstance(node, Filter):
            conjuncts += len(node.conjuncts)
        elif isinstance(node, Join) and node.semi:
            conjuncts += 1
        elif not node.passes_through:
            return
        node = node.children[0]
    if position is None or not isinstance(node.table, Table):
        return
    node.order = Order(position, node.schema.columns[position].name,
                       sort.order_fns[0][1], conjuncts,
                       sort.children[0].est_rows, slots)
    sort.source = node


def _probe_estimate(scan: Scan | ViewScan, ctx: CompileContext
                    ) -> float | None:
    """What a WHERE the planner left unestimated keeps of a table with
    an ``=`` path: ``rows / distinct`` of its ANALYZEd column."""
    path = isinstance(scan, Scan) and next(
        (path for path in scan.paths if path.op == "="), None)
    analyzed = path and ctx.stats and ctx.stats.get(scan.table.schema.name)
    column = analyzed and analyzed.column(path.column)
    return len(scan.table) / column.distinct \
        if column and column.distinct else None


#: A comparison read the other way round.
_SWAPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


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
    stack: list[Callable[[Operator], Join] | None] = []
    for conjunct in conjuncts:
        found = vectors.semi_join(conjunct, ctx.bound)
        stack.append(found and (
            _in_semi_join if isinstance(found.node, ast.InSubquery)
            else _exists_semi_join)(found, scopes, catalog, ctx))
    return stack


def _semi_join(found: vectors.SemiJoin, right: Operator, label: str, check,
               scopes: list[RowSchema], ctx: CompileContext,
               build_once: bool, in_predicate: bool = False
               ) -> Callable[[Operator], Join]:
    """The inner side and *check* live one scope below the left row,
    like the subquery they come from — and so do an ``EXISTS``'s outer
    keys, bound in it: they read the left row one scope out."""
    inner_scopes = scopes + [right.schema]
    left_scopes, level = (scopes, 0) if in_predicate else (inner_scopes, 1)
    kind = "anti-join" if found.negated else "semi-join"
    left_keys = [compile_expr(outer, left_scopes, ctx)
                 for outer, _inner in found.pairs]
    right_keys = [compile_expr(inner, inner_scopes, ctx)
                  for _outer, inner in found.pairs]
    key_positions = select_join_keys(found.pairs, left_scopes, inner_scopes,
                                     ctx.bound, level)
    est_rows = (found.node.hint or _NO_HINT).est_rows
    return lambda left: Join(
        kind, label, left, right, False, left_keys, right_keys, check,
        est_rows, key_positions, ctx.exec_hooks, in_predicate, build_once)


def _in_semi_join(found: vectors.SemiJoin, scopes: list[RowSchema],
                  catalog: Catalog, ctx: CompileContext
                  ) -> Callable[[Operator], Join] | None:
    conjunct = found.node
    if 0 in ctx.bound.reach[id(conjunct.query)]:
        return None  # it reads the row being filtered: the closure's
    plan = SubPlan(catalog, conjunct.query, scopes, ctx, "IN subquery")
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
    build = build_core(ast.SelectCore(
        items=[ast.SelectItem(ast.Star())], from_clause=source,
        where=ast.conjoin(found.inner_only)), catalog, scopes, ctx)
    right = Operator("subquery", "decorrelated", build.schema, [build])
    chain = scopes + [right.schema]
    # The select list is never evaluated, but it must compile.
    for expr in _plain_items(core.items, right.schema, chain, ctx.bound)[0]:
        compile_expr(expr, chain, ctx)
    check = (compile_predicate(ast.conjoin(found.mixed), chain, ctx)
             if found.mixed else None)
    # Built once when the inner-only conjuncts read no enclosing row
    # (they hold no subquery: vectors.semi_join).
    build_once = not any(
        ctx.bound.level(node) for part in found.inner_only
        for node in ast.walk_expr(part) if isinstance(node, ast.ColumnRef))
    return _semi_join(
        found, right,
        ("NOT EXISTS " if found.negated else "EXISTS ") + source.binding,
        check, scopes, ctx, build_once)


def _build_where(op: Operator, where: ast.Expr,
                 outer_scopes: list[RowSchema], catalog: Catalog,
                 ctx: CompileContext, est_rows: float | None
                 ) -> tuple[Operator, dict[int, Join]]:
    """The WHERE clause over *op*: its conjuncts in the order a filter
    runs them — those with a mask kernel, then the others as written —
    each run of conjuncts a :class:`Filter`, each one the selector
    takes a semi / anti join at its place; and those joins, by
    conjunct.  A conjunct that guards a later one (``b <> 0 AND a / b IN
    (...)``) so guards it here too, and a subquery no row reaches is not
    run — but for an ``IN`` a scan below probes by its keys.  Over a
    scan, each filter and join knows it (``access``) and its conjuncts'
    numbers: what the scan's path answered, it does not test again."""
    scopes = outer_scopes + [op.schema]
    access = op if isinstance(op, (Scan, ViewScan)) else None
    parts = ast.conjuncts(where)
    stack = select_semi_joins(parts, outer_scopes, op.schema, catalog, ctx)
    if not any(stack):
        built = build_filter(op, "WHERE", where, scopes, ctx, est_rows)
        built.access = access
        return built, {}
    kernels = [_mask_kernel(part, scopes, ctx) for part in parts]

    def filter_over(op: Operator, pending: list[int]) -> Filter:
        # A slot conjunct runs ahead of the joins, where its literal's
        # kernel would: the tree is re-driven only for values that
        # choose one (Slots.admits), any other run is bound and built.
        built = build_filter(op, "WHERE", ast.conjoin(
            [parts[index] for index in pending]), scopes, ctx, est_rows,
            pending)
        built.access = access
        ctx.slots.pinned.extend(
            kernel for kernel, _fn in built.conjuncts
            if isinstance(kernel, vectors.SlotKernel))
        return built

    # The planner estimates the whole filter first, the joins over it.
    pending: list[int] = []
    joins: dict[int, Join] = {}
    for index in sorted(range(len(parts)),
                        key=lambda index: kernels[index] is None):
        if stack[index] is None:
            pending.append(index)
            continue
        if pending:
            op = filter_over(op, pending)
            pending = []
        op = joins[index] = stack[index](op)
        op.access, op.number = access, index
        est_rows = op.est_rows
    if pending:
        op = filter_over(op, pending)
    return op, joins


def _mask_kernel(conjunct: ast.Expr, scopes: list[RowSchema],
                 ctx: CompileContext):
    """The mask kernel a filter over ``scopes[-1]`` runs *conjunct* as —
    a :class:`~repro.relational.vectors.SlotKernel` when its ``?`` slots'
    values will choose — or ``None`` (over typed columns only: any other
    reference sends it to the generic predicate)."""
    if not any(column.data_type is not None
               for column in scopes[-1].columns):
        return None
    columns = _typed_columns(conjunct, scopes, ctx.bound)
    return vectors.compile_filter_kernel(conjunct, columns) \
        or vectors.slot_kernel(conjunct, columns, ctx.slots)


def build_filter(child: Operator, label: str, predicate: ast.Expr,
                 scopes: list[RowSchema], ctx: CompileContext,
                 est_rows: float | None = None,
                 numbers: list[int] | None = None) -> Filter:
    """A filter over *child*: every conjunct over typed columns that
    compiles to a mask kernel runs as one — one kernel per conjunct, in
    written order, each narrowing what the one before it kept (an AND
    nested under OR or NOT stays inside its conjunct's kernel) — the
    rest stay on the generic predicate: a hybrid plan, not an error.  A
    conjunct whose kernel its ``?`` values choose keeps its generic
    predicate too, for the runs whose values choose none.  *numbers*
    are the conjuncts' places in the WHERE, when not ``0, 1, ...``."""
    typed = any(column.data_type is not None
                for column in scopes[-1].columns)
    conjuncts: list[tuple] = []
    fallbacks: list[tuple[str, str]] = []
    for conjunct in ast.conjuncts(predicate):
        kernel = _mask_kernel(conjunct, scopes, ctx)
        if kernel is None and typed:
            # What is of semi-join shape and still here, the selector
            # declined.
            fallbacks.append((_label(conjunct), vectors.fallback_reason(
                conjunct, _typed_columns(conjunct, scopes, ctx.bound),
                declined=True, bound=ctx.bound)))
        generic = kernel is None or isinstance(kernel, vectors.SlotKernel)
        conjuncts.append((kernel, compile_expr(conjunct, scopes, ctx)
                          if generic else None))
    return Filter(child, label, conjuncts, fallbacks, est_rows,
                  ctx.exec_hooks, numbers)


# ---------------------------------------------------------------------------
# Aggregation rewriting
# ---------------------------------------------------------------------------

class _AggregateRewriter:
    """Rewrites expressions over grouped input into slot references.

    Slots 0..G-1 hold the group keys, slots G.. hold aggregate results,
    matched by what an expression means (:meth:`Binding.key`); a column
    left over is an outer one, constant per run (the bind refused any
    other)."""

    def __init__(self, group_exprs: list[ast.Expr],
                 scopes: list[RowSchema], bound: Binding) -> None:
        self.group_keys = {bound.key(expr): index
                           for index, expr in enumerate(group_exprs)}
        self.aggregates: list[ast.FunctionCall] = []
        self._agg_slots: dict[Any, int] = {}
        self.scopes = scopes
        self.bound = bound

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        key = self.bound.key(expr)
        if key in self.group_keys:
            return ast.SlotRef(self.group_keys[key])
        if is_aggregate(expr):
            if key not in self._agg_slots:
                self._agg_slots[key] = \
                    len(self.group_keys) + len(self.aggregates)
                self.aggregates.append(expr)
            return ast.SlotRef(self._agg_slots[key])
        if isinstance(expr, ast.InSubquery):
            return ast.InSubquery(self.rewrite(expr.operand), expr.query,
                                  expr.negated, expr.hint)
        # A subquery's own text is not rewritten (rebuild_expr returns
        # it, like every other leaf, unchanged): it reaches the group
        # keys by their keys in the slot scope (see ``slot_columns``).
        return ast.rebuild_expr(expr, self.rewrite)

    def slot_columns(self, group_exprs: list[ast.Expr]
                     ) -> list[ResultColumn]:
        """The slot schema: a group key that is a plain column keeps its
        name and qualifier, so a correlated subquery in HAVING / the
        select list reads its outer references to group keys (and to
        nothing else of the grouped table) like any outer column."""
        source = self.scopes[-1].columns
        columns = [ResultColumn(f"?slot{index}", None) for index in range(
            len(group_exprs) + len(self.aggregates))]
        for index, expr in enumerate(group_exprs):
            position = _innermost_position(expr, self.scopes, self.bound)
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
    """:func:`order_target` of each term.  A ``?`` among them might be
    a position, or make a term match a select item or group key: its
    value decides (:class:`BindFirst`)."""
    if any(isinstance(node, ast.Param)
           for expr in exprs for node in ast.walk_expr(expr)):
        raise BindFirst("a ? in ORDER BY or GROUP BY")
    return [order_target(expr, items) for expr in exprs]


def _sort(child: Operator, order_by: list[ast.OrderItem],
          exprs: list[ast.Expr], scopes: list[RowSchema],
          ctx: CompileContext) -> Sort:
    label = ", ".join(_label(item.expr)
                      + (" DESC" if item.descending else "")
                      for item in order_by)
    return Sort(child, label, [
        (compile_expr(expr, scopes, ctx), item.descending)
        for expr, item in zip(exprs, order_by)],
        select_sort_keys(exprs, scopes, ctx.bound), ctx.exec_hooks)


def _plain_items(items: list[ast.SelectItem], source: RowSchema,
                 scopes: list[RowSchema], bound: Binding
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
            position = _innermost_position(item.expr, scopes, bound)
            columns.append(ResultColumn(
                item.output_name(),
                item.expr.qualifier if isinstance(item.expr, ast.ColumnRef)
                and not item.alias else None,
                source.columns[position].data_type
                if position is not None else None))
            continue
        positions = star_positions(item.expr, source)
        exprs.extend(ast.SlotRef(position) for position in positions)
        columns.extend(
            ResultColumn(column.name, column.qualifier, column.data_type)
            for column in map(source.columns.__getitem__, positions))
    return exprs, RowSchema(columns)


def _project(child: Operator, schema: RowSchema, exprs: list[ast.Expr],
             scopes: list[RowSchema], ctx: CompileContext) -> Project:
    return Project(child, schema, list(zip(
        select_gather(exprs, scopes, ctx.bound),
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
        op = build_table_expr(core.from_clause, catalog, outer_scopes, ctx)
    else:
        op = Values()
    scopes = outer_scopes + [op.schema]

    where = core.where
    if where is not None:
        scan = op
        op, joins = _build_where(op, where, outer_scopes, catalog, ctx,
                                 (core.hint or _NO_HINT).est_rows)
        if isinstance(scan, (Scan, ViewScan)):
            scan.paths = select_access_paths(
                scan, ast.conjuncts(where), joins, scopes, ctx)
            if op.est_rows is None:
                op.est_rows = _probe_estimate(scan, ctx)

    order_exprs = _substitute_order_targets(
        [item.expr for item in order_by], core.items)
    # DISTINCT over a plain core sorts what it emits, by output column;
    # everything else sorts the projection's input.
    sort_output = False
    if ctx.bound.grouped(core):
        op, scopes, exprs = _build_aggregate(
            core, op, scopes, order_by, order_exprs, ctx)
        out_schema = RowSchema([
            ResultColumn(item.output_name(), None) for item in core.items])
    else:
        exprs, out_schema = _plain_items(core.items, op.schema, scopes,
                                         ctx.bound)
        sort_output = core.distinct
        if order_by and not sort_output:
            op = _sort(op, order_by, order_exprs, scopes, ctx)

    if limit is not None and not core.distinct:
        op = limit(op)
    op = _project(op, out_schema, exprs, scopes, ctx)
    if core.distinct:
        op = Distinct(op)
        if order_by and sort_output:
            # A term that is a select item sorts by its output column.
            outputs = {id(expr): ast.SlotRef(position)
                       for position, expr in enumerate(exprs)}
            op = _sort(op, order_by,
                       [outputs.get(id(expr), expr) for expr in order_exprs],
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
    group_exprs = _substitute_order_targets(core.group_by, core.items)
    group_fns = [compile_expr(expr, scopes, ctx) for expr in group_exprs]
    rewriter = _AggregateRewriter(group_exprs, scopes, ctx.bound)
    exprs = [rewriter.rewrite(item.expr) for item in core.items]
    having = (rewriter.rewrite(core.having)
              if core.having is not None else None)
    order_exprs = [rewriter.rewrite(expr) for expr in order_exprs]

    key_positions, specs = select_folds(group_exprs, rewriter.aggregates,
                                        scopes, ctx.bound)
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
    op: Operator = SetOp(operands, [name for name, _c in query.compounds])
    if query.order_by:
        # An ordinal names a result column by position: two columns of
        # one name are not ambiguous to it.
        outputs = [ast.SelectItem(ast.SlotRef(position), None)
                   for position in range(len(op.schema))]
        order_exprs = _substitute_order_targets(
            [item.expr for item in query.order_by], outputs)
        op = _sort(op, query.order_by, order_exprs,
                   outer_scopes + [op.schema], ctx)
    return limit(op) if limit is not None else op
