"""The planning driver: one call turns a parsed SELECT into a
:class:`PlannedStatement` — a rewritten (private) AST and the operator
tree built from it, which is both what EXPLAIN renders and what runs.

The planner decides on the AST: it rewrites its own copy (folding,
pushdown wrappers, pruned projections, the chosen join order), leaves
each physical decision on the node it concerns as a
:class:`~repro.relational.ast.PlanHint`, and hands the AST to the one
operator builder (:func:`repro.relational.executor.build_select`).

The rewrites read what each name means from one bind of the statement
(:func:`repro.relational.bind.bind`), made on the copy before any
rewrite, and hand it to the builder: a rewrite that writes a new column
reference records its meaning as it makes it
(:meth:`~repro.relational.bind.Binding.column`).  Errors in the query
itself surface from the build, as with the planner off; an error in a
rewrite is a planner bug, and raises.

A prepared statement's ``?`` placeholders are opaque here: folding
leaves them be and the estimates know each as a constant of unknown
value (:mod:`repro.planner.estimate`), so the plan — built once and
kept by the database — is the one for every binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational import ast
from ..relational.ast import PlanHint, binding_of, from_leaves
from ..relational.bind import Binding, bind, is_ordinal
from ..relational.executor import build_select
from ..relational.operators import Result
from ..relational.schema import fold
from ..relational.table import BoundView, Table
from ..relational.vectors import semi_join
from .cost import CostModel
from .estimate import predicate_selectivity, semi_join_selectivity
from .joins import (BaseRelation, JoinPredicate, build_join_tree,
                    estimate_query_rows, flatten_inner_joins, join_predicate,
                    make_resolver, order_joins, _column_stats, _leaf_stats,
                    _relation_raw_rows, _step_for)
from .options import PlannerOptions
from .rewrite import (expand_star_items, fold_expr, needed_columns,
                      null_safe_bindings, prune_derived_projection,
                      prune_wrapper_projection, referenced_bindings,
                      wrap_with_filter)
from .stats import StatisticsCatalog


@dataclass
class PlannedStatement:
    """What the planner decided for one SELECT."""

    query: ast.SelectQuery            # the (rewritten) AST that was built
    #: The executable operator tree (set once the rewrite is done).
    root: Result = None               # type: ignore[assignment]
    #: What planning found worth saying (``root.remarks``).
    remarks: list[str] = field(default_factory=list)
    reordered: bool = False

    @property
    def notes(self) -> list[str]:
        """The remarks, then what runs vectorized (``root.notes``)."""
        return self.root.notes

    def format(self) -> str:
        return self.root.format()


def is_trivial_select(query: ast.SelectQuery) -> bool:
    """True when planning cannot improve the statement: a single core
    over at most one base table, with no derived tables and no
    subqueries anywhere.  The executor's own single-table index fast
    path already covers this shape, so the hot path skips the planner
    (no structural copy, no trace) entirely."""
    if query.compounds:
        return False
    core = query.core
    if core.from_clause is not None \
            and not isinstance(core.from_clause, ast.TableRef):
        return False
    for node in ast.iter_query_nodes(query):
        if isinstance(node, (ast.Join, ast.SubqueryRef, ast.InSubquery,
                             ast.Exists, ast.ScalarSubquery)):
            return False
    return True


def plan_select(query: ast.SelectQuery, catalog,
                stats: StatisticsCatalog, options: PlannerOptions,
                exec_hooks=None) -> PlannedStatement:
    """Plan one SELECT (unless the planner is off) and build its
    operator tree."""
    planned = PlannedStatement(query=query)
    bound = None
    if options.enabled:
        planned.query = ast.clone_query(query)
        bound = bind(planned.query, catalog)
        bound.check()  # nothing is planned for a refused statement
        _plan_query(planned.query, catalog, stats, planned, bound)
    planned.root = build_select(planned.query, catalog, exec_hooks, stats,
                                bound)
    planned.root.plan(planned.remarks)
    return planned


# ---------------------------------------------------------------------------
# Query / core planning
# ---------------------------------------------------------------------------


def _plan_query(query: ast.SelectQuery, catalog, stats,
                planned: PlannedStatement, bound: Binding) -> None:
    for core in [query.core] + [core for _op, core in query.compounds]:
        _plan_core(core, query, catalog, stats, planned, bound)
    for item in query.order_by:
        item.expr = _fold_term(item.expr)


def _plan_core(core: ast.SelectCore, query: ast.SelectQuery, catalog,
               stats, planned: PlannedStatement, bound: Binding) -> None:
    _fold_core(core)
    _plan_expression_subqueries(core, catalog, stats, planned, bound)
    if core.from_clause is not None:
        _plan_from(core, query, catalog, stats, planned, bound)


def _fold_core(core: ast.SelectCore) -> None:
    if core.where is not None:
        core.where = fold_expr(core.where)
        if isinstance(core.where, ast.Literal) and core.where.value is True:
            core.where = None
    if core.having is not None:
        core.having = fold_expr(core.having)
        if isinstance(core.having, ast.Literal) \
                and core.having.value is True:
            core.having = None
    for item in core.items:
        if not item.is_star:
            item.expr = fold_expr(item.expr)
    core.group_by = [_fold_term(expr) for expr in core.group_by]


def _fold_term(expr: ast.Expr) -> ast.Expr:
    """A GROUP BY / ORDER BY term folded as the select items it is
    matched with are — but one that would fold to a literal stays as
    written: a literal term is an ordinal there."""
    folded = fold_expr(expr)
    return expr if isinstance(folded, ast.Literal) else folded


def _plan_expression_subqueries(core: ast.SelectCore, catalog, stats,
                                planned, bound: Binding) -> None:
    """Recursively plan subqueries embedded in expressions (the WHERE
    rewrites of the SESQL pipeline inject exactly these)."""
    roots: list[ast.Expr] = [item.expr for item in core.items
                             if not item.is_star]
    if core.where is not None:
        roots.append(core.where)
    if core.having is not None:
        roots.append(core.having)
    for root in roots:
        for node in ast.walk_expr(root):
            if isinstance(node, (ast.InSubquery, ast.Exists,
                                 ast.ScalarSubquery)) \
                    and node.query is not None:
                _plan_query(node.query, catalog, stats, planned, bound)


def _plan_from(core: ast.SelectCore, query: ast.SelectQuery, catalog,
               stats, planned: PlannedStatement, bound: Binding) -> None:
    leaves = from_leaves(core.from_clause)
    bindings = [binding_of(leaf) for leaf in leaves]
    if None in bindings or len(set(bindings)) != len(bindings):
        # Something we do not model (or a duplicate alias the builder
        # will reject): leave the FROM exactly as written.
        return

    # What the query reads of each leaf, told before the rewrites below
    # (a wrapper's star, an expanded one) change the tree.
    needed = {binding: needed_columns(query, core, leaf, bound)
              for leaf, binding in zip(leaves, bindings)}
    # Plan derived tables from the inside out (their own pushdown and
    # ordering), pruning unread columns first.
    for leaf, binding in zip(leaves, bindings):
        if isinstance(leaf, ast.SubqueryRef):
            if needed[binding] is not None \
                    and prune_derived_projection(leaf, needed[binding],
                                                 bound):
                needed[binding] = None  # it outputs only what is read
            _plan_query(leaf.query, catalog, stats, planned, bound)

    flat = flatten_inner_joins(core.from_clause)
    reorderable = flat is not None and len(leaves) >= 2
    if reorderable and any(item.is_star for item in core.items):
        ordinals = any(map(is_ordinal, core.group_by)) or any(
            is_ordinal(item.expr) for item in query.order_by)
        if ordinals or not expand_star_items(core, bound):
            reorderable = False

    if reorderable:
        _reorder_from(core, catalog, stats, planned, flat[0], flat[1],
                      bound, needed)
        return
    # The written shape stays (LEFT joins, single relations, opt-outs):
    # estimate its leaves, push what can be pushed below, cost each join.
    for leaf in leaves:
        leaf.hint = PlanHint(est_rows=_relation_raw_rows(
            leaf, catalog, stats, bound))
    resolve = make_resolver(leaves, stats, bound)
    _pushdown_in_place(core, bound)
    _hint_joins(core.from_clause, catalog, stats, resolve, bound)
    if len(leaves) == 1 and core.where is not None:
        rows, joins = _estimate_where(core, leaves[0].hint.est_rows,
                                      resolve, bound, catalog, stats)
        if joins:
            core.hint = PlanHint(est_rows=rows)


# ---------------------------------------------------------------------------
# The reordering path (all-INNER/CROSS FROM)
# ---------------------------------------------------------------------------


def _reorder_from(core: ast.SelectCore, catalog, stats,
                  planned: PlannedStatement,
                  leaves: list[ast.TableExpr],
                  on_conjuncts: list[ast.Expr], bound: Binding,
                  needed: dict[str, set[str] | None]) -> None:
    resolve = make_resolver(leaves, stats, bound)

    # Classify every conjunct (ON and WHERE are equivalent here).
    conjunct_pool = on_conjuncts + list(ast.conjuncts(core.where))
    pushes: dict[str, list[ast.Expr]] = {}
    join_predicates: list[JoinPredicate] = []
    residual: list[ast.Expr] = []
    for conjunct in conjunct_pool:
        touched = referenced_bindings(conjunct, bound)
        if touched is None or len(touched) == 0:
            residual.append(conjunct)
        elif len(touched) == 1:
            pushes.setdefault(next(iter(touched)), []).append(conjunct)
        else:
            join_predicates.append(join_predicate(
                conjunct, touched, bound, resolve))

    relations = [_build_relation(leaf, catalog, stats, resolve,
                                 pushes.get(binding_of(leaf), []), bound,
                                 needed.get(binding_of(leaf)))
                 for leaf in leaves]

    order, steps = order_joins(relations, join_predicates, CostModel())
    core.from_clause = build_join_tree(relations, order, steps)
    core.where = ast.conjoin(residual)
    if order != list(range(len(relations))):
        planned.reordered = True
        planned.remarks.append(
            "join order: " + " -> ".join(relations[i].binding
                                         for i in order))
    if core.where is not None:
        core.hint = PlanHint(est_rows=_estimate_where(
            core, steps[-1].est_rows or 1.0, resolve, bound, catalog,
            stats)[0])


def _estimate_where(core: ast.SelectCore, rows: float, resolve,
                    bound: Binding, catalog, stats) -> tuple[float, bool]:
    """Estimate *core*'s WHERE over *rows* input rows the way the
    builder runs it: the filter first, then one semi / anti join per
    ``[NOT] IN (subquery)`` / ``[NOT] EXISTS`` conjunct that
    :func:`~repro.relational.vectors.semi_join` takes, in WHERE order —
    each node's hint is the estimate of the rows leaving it.  Returns
    the rows leaving the filter and whether there is any such join.
    (The builder declines an ``IN`` whose subquery reads the row being
    filtered; its hint is then not read.)"""
    parts = ast.conjuncts(core.where)
    joins = [semi_join(part, bound) for part in parts]
    rows *= max(predicate_selectivity(ast.conjoin(
        [part for part, join in zip(parts, joins) if join is None])
        or ast.Literal(True), resolve), 0.0005)
    left = rows
    for join in filter(None, joins):
        outer, inner = join.pairs[0]
        items = join.node.query.core.items
        if isinstance(join.node, ast.InSubquery) and len(items) == 1:
            inner = items[0].expr
        fraction = semi_join_selectivity(
            resolve(outer) if isinstance(outer, ast.ColumnRef) else None,
            _build_distinct(join.node.query, inner, catalog, stats,
                            bound))
        left *= 1.0 - fraction if join.negated else fraction
        join.node.hint = PlanHint(est_rows=left)
    return rows, any(joins)


def _build_distinct(query: ast.SelectQuery, key: ast.Expr, catalog,
                    stats, bound: Binding) -> float | None:
    """Distinct values of a semi-join's build-side *key*: the ANALYZEd
    count when it is a plain column and the subquery reads one table,
    capped by the subquery's estimated rows; ``None`` when nothing is
    known."""
    source = query.core.from_clause
    if query.is_compound or not isinstance(source, ast.TableRef) \
            or not catalog.has_table(source.name):
        return None
    rows = estimate_query_rows(query, catalog, stats, bound)
    analyzed = _column_stats(stats.get(source.name), key.name) \
        if isinstance(key, ast.ColumnRef) else None
    if analyzed is None or not analyzed.distinct:
        return rows
    return min(float(analyzed.distinct), rows)


def _local_table(leaf: ast.TableExpr, catalog):
    """The columnar relation a bare FROM leaf reads, or ``None``."""
    table = catalog.table(leaf.name) if isinstance(leaf, ast.TableRef) \
        and catalog.has_table(leaf.name) else None
    return table if isinstance(table, (Table, BoundView)) else None


def _build_relation(leaf, catalog, stats, resolve,
                    pushed: list[ast.Expr], bound: Binding,
                    needed: set[str] | None) -> BaseRelation:
    binding = binding_of(leaf)
    raw_rows = _relation_raw_rows(leaf, catalog, stats, bound)
    leaf.hint = PlanHint(est_rows=raw_rows)
    table = _local_table(leaf, catalog)

    if not pushed:
        return BaseRelation(leaf, binding, table, raw_rows, raw_rows, False,
                            _leaf_stats(leaf, stats))

    selectivity = 1.0
    for conjunct in pushed:
        selectivity *= predicate_selectivity(conjunct, resolve)
    est_rows = max(raw_rows * selectivity, 0.05)
    wrapper = wrap_with_filter(leaf, pushed)
    wrapper.hint = PlanHint(est_rows=est_rows,
                            detail="pushed-down predicate")
    if needed is not None:
        columns = bound.scope(leaf).columns
        keep = [column for column in columns if fold(column.name) in needed]
        # Join/residual predicates live above the wrapper and read
        # through it, so their columns are part of "needed" already.
        if keep and len(keep) < len(columns):
            prune_wrapper_projection(wrapper, keep, bound)
    return BaseRelation(wrapper, binding, table, raw_rows, est_rows, True,
                        _leaf_stats(leaf, stats))


# ---------------------------------------------------------------------------
# The as-written path (LEFT joins, single relations, opt-outs)
# ---------------------------------------------------------------------------


def _pushdown_in_place(core: ast.SelectCore, bound: Binding) -> None:
    """Push WHERE conjuncts into null-safe leaves of a FROM tree whose
    shape is kept (LEFT joins present, or not re-orderable)."""
    if core.where is None:
        return
    if not isinstance(core.from_clause, ast.Join):
        return  # single relation: WHERE already sits on the scan
    safe = null_safe_bindings(core.from_clause)
    pushes: dict[str, list[ast.Expr]] = {}
    residual: list[ast.Expr] = []
    for conjunct in ast.conjuncts(core.where):
        touched = referenced_bindings(conjunct, bound)
        if touched is not None and len(touched) == 1 \
                and next(iter(touched)) in safe:
            pushes.setdefault(next(iter(touched)), []).append(conjunct)
        else:
            residual.append(conjunct)
    if not pushes:
        return
    core.where = ast.conjoin(residual)
    core.from_clause = _wrap_leaves(core.from_clause, pushes)


def _hint_joins(table_expr: ast.TableExpr, catalog, stats, resolve,
                bound: Binding) -> float:
    """Hint every join of a FROM tree kept as written with its estimated
    rows and strategy, costed as the reordering path costs a step (its
    right side the inner one); return the tree's estimated rows."""
    if not isinstance(table_expr, ast.Join):
        return _relation_raw_rows(table_expr, catalog, stats, bound)
    left_rows = _hint_joins(table_expr.left, catalog, stats, resolve, bound)
    right = table_expr.right
    right_rows = _hint_joins(right, catalog, stats, resolve, bound)
    relation = BaseRelation(right, binding_of(right),
                            _local_table(right, catalog), right_rows,
                            right_rows, False, _leaf_stats(right, stats))
    step = _step_for(
        frozenset(map(binding_of, from_leaves(table_expr.left))),
        left_rows, relation,
        [join_predicate(conjunct, referenced_bindings(
            conjunct, bound) or frozenset(), bound, resolve)
         for conjunct in ast.conjuncts(table_expr.condition)],
        CostModel())
    rows = step.est_rows
    if table_expr.join_type == "LEFT":
        rows = max(rows, left_rows)
    table_expr.hint = PlanHint(est_rows=rows, strategy=step.strategy)
    return rows


def _wrap_leaves(table_expr: ast.TableExpr,
                 pushes: dict[str, list[ast.Expr]]) -> ast.TableExpr:
    if isinstance(table_expr, ast.Join):
        table_expr.left = _wrap_leaves(table_expr.left, pushes)
        table_expr.right = _wrap_leaves(table_expr.right, pushes)
        return table_expr
    binding = binding_of(table_expr)
    if binding in pushes:
        return wrap_with_filter(table_expr, pushes[binding])
    return table_expr
