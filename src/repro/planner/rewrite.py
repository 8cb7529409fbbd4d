"""Logical rewrites: constant folding, predicate classification and
pushdown, star expansion and projection pruning.

All rewrites operate on (already deep-copied) AST nodes from
:mod:`repro.relational.ast` and are individually semantics-preserving:

* **constant folding** evaluates literal-only sub-expressions with the
  executor's own operator semantics and simplifies AND/OR/NOT around
  boolean literals (3VL-safely: ``FALSE AND x`` is ``FALSE`` even when
  ``x`` is unknown); a ``?`` is not a literal, and stays;
* **predicate pushdown** relocates a WHERE/ON conjunct that touches a
  single relation below the joins by wrapping that relation in a
  derived table (``t`` becomes ``(SELECT * FROM t WHERE p) AS t``),
  which also re-enables the executor's single-table index fast path
  under a join;
* **projection pruning** narrows a derived table's select list to the
  columns the outer query actually reads.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from ..relational import ast
from ..relational.aggregates import is_aggregate
from ..relational.ast import binding_of, from_leaves
from ..relational.bind import Binding, bind
from ..relational.compiler import CompileContext, compile_expr
from ..relational.schema import ResultColumn, fold

# ---------------------------------------------------------------------------
# Generic expression transformation
# ---------------------------------------------------------------------------


def map_expr(expr: ast.Expr,
             fn: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    """Rebuild *expr* bottom-up, applying *fn* to every node (subquery
    internals are rewritten by the plan driver, not here)."""
    return fn(ast.rebuild_expr(expr, lambda child: map_expr(child, fn)))


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_FOLDABLE = (ast.Literal, ast.UnaryOp, ast.BinaryOp, ast.IsNull, ast.Like,
             ast.InList, ast.Between, ast.FunctionCall, ast.CaseExpr,
             ast.Cast)

_fold_ctx = CompileContext(subplan_factory=None)  # type: ignore[arg-type]


def _is_literal_only(expr: ast.Expr, bound: bool = False) -> bool:
    foldable = _FOLDABLE + (ast.Param,) if bound else _FOLDABLE
    return all(isinstance(node, foldable) and not is_aggregate(node)
               for node in ast.walk_expr(expr))


def constant_once_bound(expr: ast.Expr) -> bool:
    """Whether *expr* is literal-only once its ``?`` are bound: what
    :func:`fold_expr` folds to a literal then."""
    return _is_literal_only(expr, bound=True)


def folds_when_bound(expr: ast.Expr) -> bool:
    """Whether :func:`fold_expr` may fold *expr* further once its ``?``
    are bound: some subtree of it reads a ``?`` and is literal-only
    then — other than a bare ``?``, which bound is just the literal it
    reads — or a ``?`` is an operand of AND / OR / NOT, which fold on a
    boolean literal."""
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Param):
            if node is expr:
                return True
            continue
        if (isinstance(node, ast.BinaryOp) and node.op in ("AND", "OR")
                or isinstance(node, ast.UnaryOp) and node.op == "NOT") \
                and any(isinstance(child, ast.Param)
                        for child in ast.child_exprs(node)):
            return True
        if constant_once_bound(node) and any(
                isinstance(inner, ast.Param)
                for inner in ast.walk_expr(node)):
            return True
    return False


def _bool_literal(expr: ast.Expr) -> Optional[bool]:
    if isinstance(expr, ast.Literal) and isinstance(expr.value, bool):
        return expr.value
    return None


def fold_expr(expr: ast.Expr) -> ast.Expr:
    """Fold literal-only subtrees and simplify boolean connectives."""

    def fold_node(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Literal):
            return node
        if isinstance(node, ast.BinaryOp) and node.op in ("AND", "OR"):
            left, right = _bool_literal(node.left), _bool_literal(node.right)
            if node.op == "AND":
                if left is False or right is False:
                    return ast.Literal(False)
                if left is True:
                    return node.right
                if right is True:
                    return node.left
            else:
                if left is True or right is True:
                    return ast.Literal(True)
                if left is False:
                    return node.right
                if right is False:
                    return node.left
            return node
        if isinstance(node, ast.UnaryOp) and node.op == "NOT":
            operand = _bool_literal(node.operand)
            if operand is not None:
                return ast.Literal(not operand)
            if isinstance(node.operand, ast.Literal) \
                    and node.operand.value is None:
                return ast.Literal(None)
            return node
        if _is_literal_only(node):
            try:
                value = compile_expr(node, [], _fold_ctx)(())
            except Exception:
                return node  # e.g. 1/0: keep runtime semantics intact
            if value is None or isinstance(value, (bool, int, float, str)):
                return ast.Literal(value)
        return node

    return map_expr(expr, fold_node)


# ---------------------------------------------------------------------------
# Conjunct classification
# ---------------------------------------------------------------------------


def _contains_subquery(expr: ast.Expr) -> bool:
    return any(isinstance(node, (ast.InSubquery, ast.Exists,
                                 ast.ScalarSubquery))
               for node in ast.walk_expr(expr))


def referenced_bindings(expr: ast.Expr,
                        bound: Binding) -> frozenset[str] | None:
    """FROM bindings a conjunct touches, as *bound* binds its names;
    ``None`` = not safely relocatable (unknown/ambiguous column, outer
    reference or embedded subquery)."""
    if _contains_subquery(expr):
        return None
    touched: set[str] = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Star):
            return None
        if isinstance(node, ast.ColumnRef):
            owner = bound.owner(node)
            if owner is None:
                return None
            touched.add(owner)
    return frozenset(touched)


# ---------------------------------------------------------------------------
# Pushdown and pruning
# ---------------------------------------------------------------------------


def null_safe_bindings(table_expr: ast.TableExpr,
                       under_nullable: bool = False) -> set[str]:
    """Bindings a WHERE predicate may be pushed onto: everything not on
    the nullable (right) side of a LEFT join."""
    if isinstance(table_expr, ast.Join):
        left = null_safe_bindings(table_expr.left, under_nullable)
        right = null_safe_bindings(
            table_expr.right,
            under_nullable or table_expr.join_type == "LEFT")
        return left | right
    binding = binding_of(table_expr)
    if binding is None or under_nullable:
        return set()
    return {binding}


def wrap_with_filter(leaf: ast.TableExpr,
                     conjuncts: list[ast.Expr]) -> ast.SubqueryRef:
    """``t`` -> ``(SELECT * FROM t WHERE p) AS t`` with the original
    binding preserved, so references above the join keep resolving."""
    binding = binding_of(leaf)
    assert binding is not None
    inner = ast.SelectQuery(core=ast.SelectCore(
        items=[ast.SelectItem(ast.Star(None), None)],
        from_clause=leaf,
        where=ast.conjoin(conjuncts)))
    return ast.SubqueryRef(inner, alias=binding)


def compose_filter(query: ast.SelectQuery, binding: str,
                   columns: list[str], conjuncts: list[ast.Expr],
                   catalog) -> ast.SelectQuery | None:
    """*conjuncts* over ``binding``, whose column *i* (``columns[i]``) is
    *query*'s output column *i*, applied inside *query*.  **Merged**
    where the shape allows: a copy (stars expanded) whose WHERE is its
    own AND the conjuncts with each column replaced by its select item,
    folded — a literal WHERE (never TRUE) admits no row.  A compound,
    aggregating, grouped or LIMIT/OFFSET query, or a subquery in its
    select list: ``SELECT * FROM (query) AS binding WHERE ...``, columns
    renamed positionally.  ``None`` when neither mapping is known (its
    names bound over *catalog*)."""
    positions: dict[str, int] = {}
    for position, name in enumerate(columns):
        positions.setdefault(name, position)

    def substitute(targets: list) -> list[ast.Expr]:
        return [map_expr(conjunct, lambda node: targets[
                    positions[fold(node.name)]]
                    if isinstance(node, ast.ColumnRef) else node)
                for conjunct in conjuncts]

    core = query.core
    items = [item.expr for item in core.items]
    bound = bind(query, catalog)
    if not (query.is_compound or bound.grouped(core)
            or query.limit is not None or query.offset is not None
            or any(map(_contains_subquery, items))):
        merged = replace(core)
        if (not any(item.is_star for item in core.items)
                or expand_star_items(merged, bound)) \
                and len(merged.items) == len(columns):
            pushed = substitute([item.expr for item in merged.items])
            where = fold_expr(ast.conjoin(ast.conjuncts(core.where) + pushed))
            merged.where = None if isinstance(where, ast.Literal) \
                and where.value is True else where
            return replace(query, core=merged)
    output = bound.scope(core)
    names = [fold(column.name) for column in output.columns]
    if output.open or len(set(names)) != len(names) \
            or len(names) != len(columns):
        return None
    renamed = substitute([ast.ColumnRef(name, binding) for name in names])
    return wrap_with_filter(ast.SubqueryRef(query, binding), renamed).query


def needed_columns(query: ast.SelectQuery, core: ast.SelectCore,
                   leaf: ast.TableExpr, bound: Binding) -> set[str] | None:
    """Folded names of the columns of *core*'s FROM leaf *leaf* that
    *query* (of which *core* is a core) reads anywhere, as *bound*
    bound its references; ``None`` = all (a star of the core may expand
    to them, or they are not known)."""
    binding = binding_of(leaf)
    scope = bound.scope(leaf)
    if scope.open or any(
            item.is_star and (item.expr.qualifier is None
                              or fold(item.expr.qualifier) == binding)
            for item in core.items):
        return None
    needed: set[str] = set()
    for node in ast.iter_query_nodes(query):
        if isinstance(node, ast.ColumnRef):
            found = bound.ref(node)
            if found is not None and found.leaf is leaf:
                needed.add(found.column)
    return needed


def prune_wrapper_projection(wrapper: ast.SubqueryRef,
                             keep: list[ResultColumn],
                             bound: Binding) -> bool:
    """Narrow a planner-generated ``SELECT *`` wrapper to the columns
    *keep* of its leaf, each new reference bound as *bound* binds it."""
    inner = wrapper.query.core
    leaf = inner.from_clause
    if leaf is None or binding_of(leaf) is None or len(inner.items) != 1 \
            or not inner.items[0].is_star or not keep:
        return False
    inner.items = [ast.SelectItem(bound.column(leaf, column))
                   for column in keep]
    return True


def prune_derived_projection(derived: ast.SubqueryRef, needed: set[str],
                             bound: Binding) -> bool:
    """Drop select items of a user-written derived table that the outer
    query never reads.  Only applies to shapes where dropping an item
    cannot change row counts or positional resolution."""
    query = derived.query
    core = query.core
    if query.is_compound or core.distinct or query.order_by:
        return False
    if bound.grouped(core):
        return False  # an ordinal could shift, the grouping end
    if any(item.is_star for item in core.items):
        return False
    kept = [item for item in core.items
            if fold(item.output_name()) in needed]
    if not kept or len(kept) == len(core.items):
        return False
    if {fold(item.output_name()) for item in kept} < needed:
        return False  # something needed is not among the items
    core.items = kept
    return True


def expand_star_items(core: ast.SelectCore, bound: Binding) -> bool:
    """Replace ``*`` / ``alias.*`` select items with explicit qualified
    column references (so join re-ordering cannot permute the output),
    each leaf's columns as *bound* bound them, and bound there.  Returns
    False (leaving the core untouched) when a leaf's columns cannot be
    determined."""
    if core.from_clause is None:
        return False
    expanded: list[ast.SelectItem] = []
    for item in core.items:
        if not item.is_star:
            expanded.append(item)
            continue
        star: ast.Star = item.expr  # type: ignore[assignment]
        matched = False
        for leaf in from_leaves(core.from_clause):
            leaf_binding = binding_of(leaf)
            if leaf_binding is None:
                return False
            if star.qualifier is not None \
                    and leaf_binding != fold(star.qualifier):
                continue
            scope = bound.scope(leaf)
            if scope.open:
                return False
            matched = True
            expanded.extend(ast.SelectItem(bound.column(leaf, column))
                            for column in scope.columns)
        if not matched:
            return False
    core.items = expanded
    return True
