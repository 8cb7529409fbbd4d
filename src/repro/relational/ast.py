"""Abstract syntax tree for the SQL dialect understood by the engine.

The same node classes are produced by the parser and consumed by the
compiler/executor; the SESQL layer additionally builds these nodes
programmatically when it synthesises the final enriched query (Fig. 6 of
the paper), so every node can also be rendered back to SQL text by
:mod:`repro.relational.render`.

``node_key`` provides structural equality by spelling; what two
expressions *mean* is compared by :meth:`repro.relational.bind.Binding.key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Optional, Union

from .schema import fold


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


@dataclass
class Literal(Expr):
    value: Any  # None, bool, int, float or str


@dataclass
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None

    def display(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` — only valid in select lists and COUNT(*)."""

    qualifier: Optional[str] = None


@dataclass
class UnaryOp(Expr):
    op: str  # '-', '+', 'NOT'
    operand: Expr


@dataclass
class BinaryOp(Expr):
    op: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%', '||'
    left: Expr
    right: Expr


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expr):
    operand: Expr
    query: "SelectQuery" = None
    negated: bool = False
    #: The planner's estimate for the semi/anti join a top-level WHERE
    #: conjunct of this shape runs as.
    hint: Optional["PlanHint"] = field(default=None, compare=False,
                                       repr=False)


@dataclass
class Exists(Expr):
    query: "SelectQuery"
    negated: bool = False
    hint: Optional["PlanHint"] = field(default=None, compare=False,
                                       repr=False)


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class FunctionCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass
class CaseExpr(Expr):
    operand: Optional[Expr]  # CASE x WHEN ... vs searched CASE
    whens: list[tuple[Expr, Expr]] = field(default_factory=list)
    else_result: Optional[Expr] = None


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str


@dataclass
class ScalarSubquery(Expr):
    query: "SelectQuery"


@dataclass
class SlotRef(Expr):
    """Internal: positional reference into the current row (aggregation)."""

    index: int
    name: str = "?slot"


@dataclass
class Param(Expr):
    """A ``?`` placeholder of a prepared statement: the *index*-th value
    (in text order) of a run.  A built tree reads it from its slot
    (``compiler.Slots``); ``clone_query(query, values)`` binds it to a
    literal instead."""

    index: int


# ---------------------------------------------------------------------------
# Table expressions (FROM clause)
# ---------------------------------------------------------------------------

class TableExpr(Node):
    __slots__ = ()


@dataclass
class PlanHint:
    """What the planner decided for the operator built from one node of
    its private, rewritten AST copy.  The operator builder copies the
    hint onto the operator; a node without one is built as written."""

    est_rows: Optional[float] = None
    #: Joins only: 'hash-join' | 'index-join' | 'nested-loop'.
    strategy: Optional[str] = None
    detail: str = ""


@dataclass
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None
    hint: Optional[PlanHint] = field(default=None, compare=False, repr=False)

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(TableExpr):
    query: "SelectQuery"
    alias: str
    hint: Optional[PlanHint] = field(default=None, compare=False, repr=False)

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class Join(TableExpr):
    join_type: str  # 'INNER', 'LEFT', 'CROSS'
    left: TableExpr
    right: TableExpr
    condition: Optional[Expr] = None
    hint: Optional[PlanHint] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass
class SelectItem(Node):
    """One entry of the SELECT list: an expression with an optional alias,
    or a (qualified) star."""

    expr: Expr
    alias: Optional[str] = None

    @property
    def is_star(self) -> bool:
        return isinstance(self.expr, Star)

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, FunctionCall):
            return fold(self.expr.name)
        return "?column?"


@dataclass
class OrderItem(Node):
    expr: Expr
    descending: bool = False


@dataclass
class SelectCore(Node):
    """A single SELECT ... FROM ... WHERE ... GROUP BY ... HAVING block."""

    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_clause: Optional[TableExpr] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    #: The planner's estimate for this core's WHERE filter.
    hint: Optional[PlanHint] = field(default=None, compare=False, repr=False)


@dataclass
class SelectQuery(Node):
    """A full query: one or more cores chained by set operators, plus the
    trailing ORDER BY / LIMIT / OFFSET that apply to the combined result."""

    core: SelectCore = None
    compounds: list[tuple[str, SelectCore]] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None

    @property
    def is_compound(self) -> bool:
        return bool(self.compounds)


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

@dataclass
class InsertStmt(Node):
    table: str
    columns: Optional[list[str]] = None
    rows: Optional[list[list[Expr]]] = None
    query: Optional[SelectQuery] = None


@dataclass
class UpdateStmt(Node):
    table: str
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class DeleteStmt(Node):
    table: str
    where: Optional[Expr] = None


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

@dataclass
class ColumnDef(Node):
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expr] = None


@dataclass
class CreateTableStmt(Node):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class DropTableStmt(Node):
    name: str
    if_exists: bool = False


@dataclass
class CreateIndexStmt(Node):
    name: str
    table: str
    columns: list[str] = field(default_factory=list)
    unique: bool = False
    kind: str = "hash"  # USING hash | sorted: a label; both are hash indexes


@dataclass
class DropIndexStmt(Node):
    name: str
    if_exists: bool = False


@dataclass
class AnalyzeStmt(Node):
    """``ANALYZE [table]`` — collect planner statistics."""

    table: Optional[str] = None


Statement = Union[SelectQuery, InsertStmt, UpdateStmt, DeleteStmt,
                  CreateTableStmt, DropTableStmt, CreateIndexStmt,
                  DropIndexStmt, AnalyzeStmt]


# ---------------------------------------------------------------------------
# Structural keys and tree walking
# ---------------------------------------------------------------------------

def node_key(node: Any, column: Any = None) -> Any:
    """A hashable structural key; column names compare case-insensitively,
    or, given *column*, each ``ColumnRef`` is keyed by ``column(node)``
    (what the bind keys meaning by)."""
    key = partial(node_key, column=column)
    if node is None:
        return None
    if isinstance(node, Literal):
        return ("lit", repr(node.value))
    if isinstance(node, ColumnRef):
        return column(node) if column is not None \
            else ("col", fold(node.qualifier or ""), fold(node.name))
    if isinstance(node, Star):
        return ("star", fold(node.qualifier or ""))
    if isinstance(node, SlotRef):
        return ("slot", node.index)
    if isinstance(node, Param):
        return ("param", node.index)
    if isinstance(node, UnaryOp):
        return ("un", node.op, key(node.operand))
    if isinstance(node, BinaryOp):
        return ("bin", node.op, key(node.left), key(node.right))
    if isinstance(node, IsNull):
        return ("isnull", node.negated, key(node.operand))
    if isinstance(node, Like):
        return ("like", node.negated, key(node.operand), key(node.pattern))
    if isinstance(node, InList):
        return ("inlist", node.negated, key(node.operand),
                tuple(map(key, node.items)))
    if isinstance(node, Between):
        return ("between", node.negated, key(node.operand),
                key(node.low), key(node.high))
    if isinstance(node, FunctionCall):
        return ("fn", fold(node.name), node.distinct, node.star,
                tuple(map(key, node.args)))
    if isinstance(node, CaseExpr):
        return ("case", key(node.operand),
                tuple((key(c), key(r)) for c, r in node.whens),
                key(node.else_result))
    if isinstance(node, Cast):
        return ("cast", node.type_name.upper(), key(node.operand))
    if isinstance(node, (InSubquery, Exists, ScalarSubquery)):
        # A subquery equals only itself.
        return ("subq", id(node))
    raise TypeError(f"no structural key for {type(node).__name__}")


def child_exprs(node: Expr) -> list[Expr]:
    """Direct expression children (subqueries are not descended into)."""
    if isinstance(node, UnaryOp):
        return [node.operand]
    if isinstance(node, BinaryOp):
        return [node.left, node.right]
    if isinstance(node, IsNull):
        return [node.operand]
    if isinstance(node, Like):
        return [node.operand, node.pattern]
    if isinstance(node, InList):
        return [node.operand] + list(node.items)
    if isinstance(node, InSubquery):
        return [node.operand]
    if isinstance(node, Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, FunctionCall):
        return list(node.args)
    if isinstance(node, CaseExpr):
        children: list[Expr] = []
        if node.operand is not None:
            children.append(node.operand)
        for condition, result in node.whens:
            children.extend((condition, result))
        if node.else_result is not None:
            children.append(node.else_result)
        return children
    if isinstance(node, Cast):
        return [node.operand]
    return []


def rebuild_expr(expr: Expr, recurse) -> Expr:
    """A copy of *expr* with *recurse* applied to each direct child.
    Literals, column/slot refs, parameters and subquery expressions are
    leaves and come back unchanged."""
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, recurse(expr.operand))
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, recurse(expr.left), recurse(expr.right))
    if isinstance(expr, IsNull):
        return IsNull(recurse(expr.operand), expr.negated)
    if isinstance(expr, Like):
        return Like(recurse(expr.operand), recurse(expr.pattern),
                    expr.negated)
    if isinstance(expr, InList):
        return InList(recurse(expr.operand),
                      [recurse(item) for item in expr.items], expr.negated)
    if isinstance(expr, Between):
        return Between(recurse(expr.operand), recurse(expr.low),
                       recurse(expr.high), expr.negated)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, [recurse(arg) for arg in expr.args],
                            expr.distinct, expr.star)
    if isinstance(expr, CaseExpr):
        operand = recurse(expr.operand) if expr.operand is not None else None
        whens = [(recurse(c), recurse(r)) for c, r in expr.whens]
        else_result = (recurse(expr.else_result)
                       if expr.else_result is not None else None)
        return CaseExpr(operand, whens, else_result)
    if isinstance(expr, Cast):
        return Cast(recurse(expr.operand), expr.type_name)
    return expr


# ---------------------------------------------------------------------------
# Structural copy and parameter binding
# ---------------------------------------------------------------------------
#
# What the planner needs before it rewrites a statement in place: every
# node it may assign to (queries, cores, select/order items, FROM nodes,
# interior expressions, hints) is new; ``Literal`` / ``ColumnRef`` /
# ``Star`` / ``SlotRef`` leaves, which nothing mutates, are shared.  The
# same walk binds a prepared statement: given values, each ``Param(i)``
# comes back as ``Literal(values[i])``.

def _clone_hint(hint: Optional[PlanHint]) -> Optional[PlanHint]:
    return None if hint is None else replace(hint)


class _Clone:
    """One structural copy; *values* (or None) bind the parameters."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[tuple]) -> None:
        self.values = values

    def expr(self, expr: Optional[Expr]) -> Optional[Expr]:
        if isinstance(expr, Param) and self.values is not None:
            return Literal(self.values[expr.index])
        if isinstance(expr, InSubquery):
            return InSubquery(self.expr(expr.operand), self.query(expr.query),
                              expr.negated, _clone_hint(expr.hint))
        if isinstance(expr, Exists):
            return Exists(self.query(expr.query), expr.negated,
                          _clone_hint(expr.hint))
        if isinstance(expr, ScalarSubquery):
            return ScalarSubquery(self.query(expr.query))
        return rebuild_expr(expr, self.expr)

    def table_expr(self, table_expr: Optional[TableExpr]
                   ) -> Optional[TableExpr]:
        hint = _clone_hint(getattr(table_expr, "hint", None))
        if isinstance(table_expr, TableRef):
            return TableRef(table_expr.name, table_expr.alias, hint)
        if isinstance(table_expr, SubqueryRef):
            return SubqueryRef(self.query(table_expr.query),
                               table_expr.alias, hint)
        if isinstance(table_expr, Join):
            return Join(table_expr.join_type,
                        self.table_expr(table_expr.left),
                        self.table_expr(table_expr.right),
                        self.expr(table_expr.condition), hint)
        return table_expr

    def core(self, core: SelectCore) -> SelectCore:
        return SelectCore(
            [SelectItem(self.expr(item.expr), item.alias)
             for item in core.items],
            core.distinct, self.table_expr(core.from_clause),
            self.expr(core.where), [self.expr(expr) for expr in core.group_by],
            self.expr(core.having), _clone_hint(core.hint))

    def query(self, query: Optional["SelectQuery"]
              ) -> Optional["SelectQuery"]:
        if query is None:
            return None
        return SelectQuery(
            self.core(query.core),
            [(operation, self.core(core))
             for operation, core in query.compounds],
            [OrderItem(self.expr(item.expr), item.descending)
             for item in query.order_by],
            self.expr(query.limit), self.expr(query.offset))


def clone_query(query: Optional["SelectQuery"],
                values: Optional[tuple] = None) -> Optional["SelectQuery"]:
    """A structural copy of *query* (``clone_query(q) == q``) that the
    planner may rewrite without the original noticing; with *values*,
    the copy binds each ``Param(i)`` to ``Literal(values[i])``."""
    return _Clone(values).query(query)


def clone_expr(expr: Optional[Expr],
               values: Optional[tuple] = None) -> Optional[Expr]:
    """:func:`clone_query` for one expression tree."""
    return _Clone(values).expr(expr)


def walk_expr(node: Expr):
    """Yield *node* and every expression beneath it (not into subqueries)."""
    yield node
    for child in child_exprs(node):
        yield from walk_expr(child)


def iter_query_nodes(query: SelectQuery):
    """Yield every Expr and TableExpr node of *query*, including the
    contents of nested subqueries (IN/EXISTS/scalar subqueries and
    derived tables).  Used for whole-query analyses such as mediator
    view pruning."""
    cores = [query.core] + [core for _op, core in query.compounds]
    for core in cores:
        for item in core.items:
            yield from iter_expr_nodes(item.expr)
        if core.from_clause is not None:
            yield from _iter_table_nodes(core.from_clause)
        roots: list[Expr] = []
        if core.where is not None:
            roots.append(core.where)
        roots.extend(core.group_by)
        if core.having is not None:
            roots.append(core.having)
        for root in roots:
            yield from iter_expr_nodes(root)
    for order_item in query.order_by:
        yield from iter_expr_nodes(order_item.expr)
    if query.limit is not None:
        yield from iter_expr_nodes(query.limit)
    if query.offset is not None:
        yield from iter_expr_nodes(query.offset)


def iter_expr_nodes(expr: Expr):
    for node in walk_expr(expr):
        yield node
        if isinstance(node, (InSubquery, Exists, ScalarSubquery)) \
                and node.query is not None:
            yield from iter_query_nodes(node.query)


def _iter_table_nodes(table_expr: TableExpr):
    yield table_expr
    if isinstance(table_expr, SubqueryRef):
        yield from iter_query_nodes(table_expr.query)
    elif isinstance(table_expr, Join):
        yield from _iter_table_nodes(table_expr.left)
        yield from _iter_table_nodes(table_expr.right)
        if table_expr.condition is not None:
            yield from iter_expr_nodes(table_expr.condition)


def from_leaves(table_expr: TableExpr) -> list[TableExpr]:
    """The base relations of a FROM tree, left to right."""
    if isinstance(table_expr, Join):
        return (from_leaves(table_expr.left)
                + from_leaves(table_expr.right))
    return [table_expr]


def binding_of(table_expr: TableExpr) -> str | None:
    """The folded name a FROM leaf binds its columns under."""
    return fold(table_expr.binding) \
        if isinstance(table_expr, (TableRef, SubqueryRef)) else None


def referenced_tables(query: SelectQuery) -> set[str]:
    """Folded names of every table referenced anywhere in *query*."""
    return {fold(node.name) for node in iter_query_nodes(query)
            if isinstance(node, TableRef)}


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Split a predicate on top-level ANDs."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(parts: list[Expr]) -> Optional[Expr]:
    """Rebuild a predicate from conjuncts (inverse of :func:`conjuncts`)."""
    result: Optional[Expr] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result
