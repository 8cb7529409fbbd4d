"""Join-order optimization: left-deep DP for small FROM lists, greedy
beyond, with a physical strategy picked per join step.

The optimizer works on a *join graph*: base relations (the leaves of an
all-INNER/CROSS FROM tree) and conjuncts classified by the set of
relations they touch.  Single-relation conjuncts are pushed below the
joins by the caller before ordering; what remains here are genuine join
predicates (and the residual unclassifiable ones the caller keeps in
WHERE).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..relational import ast
from ..relational.ast import from_leaves
from ..relational.bind import Binding, aggregates, bind
from ..relational.schema import fold
from ..relational.table import BoundView, Table
from .cost import CostModel, Inner
from .estimate import join_selectivity, predicate_selectivity
from .stats import StatisticsCatalog, TableStats

FOREIGN_ROWS_GUESS = 1000.0
GROUP_FACTOR = 0.2
DISTINCT_FACTOR = 0.5
#: Exhaustive (left-deep DP) ordering up to this many relations; larger
#: FROM lists fall back to the greedy heuristic.
DP_RELATION_LIMIT = 6


@dataclass
class BaseRelation:
    """One FROM leaf as the optimizer sees it."""

    expr: ast.TableExpr          # possibly a pushdown wrapper
    binding: str                 # folded
    table: Table | BoundView | None  # columnar relation, if a bare scan
    raw_rows: float              # before any pushed filter
    est_rows: float              # after pushed filters
    filtered: bool
    stats: TableStats | None = None  # its table's, when ANALYZEd


@dataclass
class JoinPredicate:
    """A conjunct spanning two or more relations."""

    expr: ast.Expr
    bindings: frozenset[str]
    selectivity: float
    #: ``(binding_a, column_a, binding_b, column_b)`` for an equi
    #: conjunct ``a.x = b.y``; ``None`` otherwise.
    equi: tuple[str, str, str, str] | None = None


@dataclass
class JoinStep:
    """One step of the chosen left-deep order."""

    relation: BaseRelation
    predicates: list[JoinPredicate]
    strategy: str                # the chosen JoinChoice.strategy
    est_rows: float
    est_cost: float


# ---------------------------------------------------------------------------
# Flattening and predicate analysis
# ---------------------------------------------------------------------------


def flatten_inner_joins(table_expr: ast.TableExpr
                        ) -> tuple[list[ast.TableExpr],
                                   list[ast.Expr]] | None:
    """Leaves and ON-conjuncts of an all-INNER/CROSS join tree, or
    ``None`` when an outer join pins the written shape."""
    leaves: list[ast.TableExpr] = []
    conditions: list[ast.Expr] = []

    def walk(expr: ast.TableExpr) -> bool:
        if isinstance(expr, ast.Join):
            if expr.join_type == "LEFT":
                return False
            if not walk(expr.left) or not walk(expr.right):
                return False
            if expr.condition is not None:
                conditions.extend(ast.conjuncts(expr.condition))
            return True
        leaves.append(expr)
        return True

    if not walk(table_expr):
        return None
    return leaves, conditions


def classify_equi(expr: ast.Expr,
                  bound: Binding) -> tuple[str, str, str, str] | None:
    """``a.x = b.y`` across two distinct relations of its FROM."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None
    sides = []
    for side in (expr.left, expr.right):
        binding = bound.owner(side) \
            if isinstance(side, ast.ColumnRef) else None
        if binding is None:
            return None
        sides.append((binding, fold(side.name)))
    if sides[0][0] == sides[1][0]:
        return None
    return sides[0][0], sides[0][1], sides[1][0], sides[1][1]


def join_predicate(conjunct: ast.Expr, touched: frozenset[str],
                   bound: Binding, resolve) -> JoinPredicate:
    """*conjunct*, over the bindings *touched*, as a join predicate."""
    equi = classify_equi(conjunct, bound)
    if equi is None:
        selectivity = predicate_selectivity(conjunct, resolve)
    else:
        selectivity = join_selectivity(resolve(conjunct.left),
                                       resolve(conjunct.right))
    return JoinPredicate(conjunct, touched, selectivity, equi)


# ---------------------------------------------------------------------------
# Row estimation for relations and whole queries
# ---------------------------------------------------------------------------


def table_rows(table, stats: TableStats | None) -> float:
    if isinstance(table, (Table, BoundView)):
        return float(len(table))
    if stats is not None:
        return float(stats.row_count)
    snapshot = getattr(table, "_snapshot", None)
    if snapshot is not None:
        return float(len(snapshot))
    return FOREIGN_ROWS_GUESS


def estimate_query_rows(query: ast.SelectQuery, catalog,
                        stats: StatisticsCatalog,
                        bound: Binding | None = None) -> float:
    """Estimated rows of *query*.  Only its conditions' names are read,
    as *bound* binds them; when not given, *query* is bound here over
    *catalog* — if a condition of its own may name a column."""
    cores = [query.core] + [core for _op, core in query.compounds]
    if bound is None and any(core.where is not None or isinstance(
            core.from_clause, ast.Join) for core in cores):
        bound = bind(query, catalog)
    total = 0.0
    for core in cores:
        total += _estimate_core_rows(
            core, [] if query.is_compound else query.order_by, catalog,
            stats, bound)
    if query.limit is not None and isinstance(query.limit, ast.Literal) \
            and isinstance(query.limit.value, (int, float)):
        total = min(total, float(query.limit.value))
    return max(total, 0.1)


def _estimate_core_rows(core: ast.SelectCore,
                        order_by: list[ast.OrderItem], catalog,
                        stats: StatisticsCatalog,
                        bound: Binding | None) -> float:
    if core.from_clause is None:
        return 1.0
    flat = flatten_inner_joins(core.from_clause)
    if flat is None:
        leaves = from_leaves(core.from_clause)
        conditions = []
    else:
        leaves, conditions = flat
    rows = 1.0
    for leaf in leaves:
        rows *= _relation_raw_rows(leaf, catalog, stats, bound)
    resolve = make_resolver(leaves, stats, bound)
    for conjunct in conditions + ast.conjuncts(core.where):
        rows *= join_predicate(conjunct, frozenset(), bound,
                               resolve).selectivity
    if aggregates(core, order_by):
        rows = max(rows * GROUP_FACTOR, 1.0) if core.group_by else 1.0
    if core.distinct:
        rows *= DISTINCT_FACTOR
    return max(rows, 0.1)


def _relation_raw_rows(leaf: ast.TableExpr, catalog,
                       stats: StatisticsCatalog,
                       bound: Binding | None) -> float:
    if isinstance(leaf, ast.TableRef):
        if not catalog.has_table(leaf.name):
            return FOREIGN_ROWS_GUESS
        return table_rows(catalog.table(leaf.name), stats.get(leaf.name))
    if isinstance(leaf, ast.SubqueryRef):
        return estimate_query_rows(leaf.query, catalog, stats, bound)
    return FOREIGN_ROWS_GUESS


def _leaf_stats(leaf: ast.TableExpr,
                stats: StatisticsCatalog) -> TableStats | None:
    if isinstance(leaf, ast.TableRef):
        return stats.get(leaf.name)
    return None


def _column_stats(table_stats: TableStats | None, column: str):
    return None if table_stats is None else table_stats.column(column)


def make_resolver(leaves: list[ast.TableExpr], stats: StatisticsCatalog,
                  bound: Binding):
    """Build the ``ColumnRef -> ColumnStats | None`` lookup the
    selectivity estimator needs: a column of one of the FROM *leaves*
    has its table's statistics, when ANALYZEd."""
    leaf_stats = {id(leaf): _leaf_stats(leaf, stats) for leaf in leaves}

    def resolve(ref: ast.ColumnRef):
        found = bound.ref(ref)
        return None if found is None \
            else _column_stats(leaf_stats.get(id(found.leaf)), ref.name)

    return resolve


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def order_joins(relations: list[BaseRelation],
                predicates: list[JoinPredicate],
                cost_model: CostModel) -> tuple[list[int], list[JoinStep]]:
    """Choose a left-deep order (as relation indices) and its steps."""
    if len(relations) <= DP_RELATION_LIMIT:
        return _order_dp(relations, predicates, cost_model)
    return _order_greedy(relations, predicates, cost_model)


def _access_cost(relation: BaseRelation, cost_model: CostModel) -> float:
    # A local table is columnar, so its scan (with any pushed-down
    # filter) runs vectorized; foreign/subquery relations do not.
    return cost_model.scan_cost(relation.raw_rows,
                                vectorized=relation.table is not None)


def _step_for(acc_bindings: frozenset[str], acc_rows: float,
              relation: BaseRelation, predicates: list[JoinPredicate],
              cost_model: CostModel) -> JoinStep:
    joined = acc_bindings | {relation.binding}
    applicable = [p for p in predicates
                  if relation.binding in p.bindings
                  and p.bindings <= joined]
    out_rows = acc_rows * relation.est_rows
    for predicate in applicable:
        out_rows *= predicate.selectivity
    out_rows = max(out_rows, 0.05)

    inner_equi_columns = []
    for predicate in applicable:
        if predicate.equi is None:
            continue
        binding_a, column_a, binding_b, column_b = predicate.equi
        if binding_a == relation.binding and binding_b in acc_bindings:
            inner_equi_columns.append(column_a)
        elif binding_b == relation.binding and binding_a in acc_bindings:
            inner_equi_columns.append(column_b)
    keys = lookup = None
    if inner_equi_columns:
        # A key repeats in the rows read as ANALYZE counted it over the
        # table (every row its own key when not analyzed; several
        # columns' keys count as unique).  An index join probes the
        # first column, as the executor does.
        table, column = relation.table, inner_equi_columns[0]
        analyzed = _column_stats(relation.stats, column)
        share = min(analyzed.distinct / max(relation.raw_rows, 1.0), 1.0) \
            if analyzed is not None and analyzed.distinct else 1.0
        keys = relation.est_rows * (
            share if len(inner_equi_columns) == 1 else 1.0)
        if isinstance(table, Table) and not relation.filtered:
            lookup = (relation.raw_rows, relation.raw_rows * share)
            if table.paths.built(table.schema.position_of(column)):
                lookup = (0.0, 0.0)
    choice = cost_model.choose_join(acc_rows, Inner(
        relation.est_rows, _access_cost(relation, cost_model), keys,
        lookup), out_rows)
    return JoinStep(relation, applicable, choice.strategy, out_rows,
                    choice.cost)


def _order_dp(relations: list[BaseRelation],
              predicates: list[JoinPredicate],
              cost_model: CostModel
              ) -> tuple[list[int], list[JoinStep]]:
    indices = range(len(relations))
    best: dict[frozenset[int], tuple[float, float, list[int],
                                     list[JoinStep]]] = {}
    for i in indices:
        best[frozenset([i])] = (_access_cost(relations[i], cost_model),
                                relations[i].est_rows, [i], [])
    for size in range(2, len(relations) + 1):
        for subset in combinations(indices, size):
            key = frozenset(subset)
            champion = None
            for last in subset:
                prev_key = key - {last}
                if prev_key not in best:
                    continue
                prev_cost, prev_rows, prev_order, prev_steps = best[prev_key]
                acc_bindings = frozenset(
                    relations[i].binding for i in prev_order)
                step = _step_for(acc_bindings, prev_rows, relations[last],
                                 predicates, cost_model)
                total = prev_cost + step.est_cost
                if champion is None or total < champion[0]:
                    champion = (total, step.est_rows, prev_order + [last],
                                prev_steps + [step])
            best[key] = champion
    _cost, _rows, order, steps = best[frozenset(indices)]
    return order, steps


def _order_greedy(relations: list[BaseRelation],
                  predicates: list[JoinPredicate],
                  cost_model: CostModel
                  ) -> tuple[list[int], list[JoinStep]]:
    remaining = set(range(len(relations)))
    start = min(remaining, key=lambda i: relations[i].est_rows)
    order = [start]
    remaining.discard(start)
    steps: list[JoinStep] = []
    rows = relations[start].est_rows
    while remaining:
        acc_bindings = frozenset(relations[i].binding for i in order)
        champion = None
        for i in remaining:
            step = _step_for(acc_bindings, rows, relations[i],
                             predicates, cost_model)
            rank = (step.est_cost + step.est_rows, step.est_rows)
            if champion is None or rank < champion[0]:
                champion = (rank, i, step)
        _rank, chosen, step = champion
        order.append(chosen)
        remaining.discard(chosen)
        steps.append(step)
        rows = step.est_rows
    return order, steps


# ---------------------------------------------------------------------------
# Tree rebuild
# ---------------------------------------------------------------------------

def build_join_tree(relations: list[BaseRelation], order: list[int],
                    steps: list[JoinStep]) -> ast.TableExpr:
    """Assemble the chosen left-deep ast.Join chain; every join carries
    its costed strategy and estimate for the operator builder."""
    tree = relations[order[0]].expr
    for step in steps:
        condition = ast.conjoin([p.expr for p in step.predicates])
        tree = ast.Join("INNER", tree, step.relation.expr, condition,
                        ast.PlanHint(step.est_rows, step.strategy))
    return tree
