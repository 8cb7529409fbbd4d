"""One name-binding pass over a SELECT: what every name in it means.

:func:`bind` walks a statement once — its FROM leaves, derived tables,
compounds and expression subqueries — and resolves each column
reference by the executor's own rule (:func:`~repro.relational.
compiler.resolve_column` over :class:`~repro.relational.schema.
RowSchema` scopes, innermost out).  The query analyzer, the planner and
the mediator's pushdown read the :class:`Binding` instead of resolving
names themselves.  The executor still resolves when it compiles: it
compiles the tree the planner rewrote, whose scopes are not these.

Scopes are the analyzer's: ON and WHERE see the whole FROM clause, a
GROUP BY / ORDER BY term is first matched against the select list
(:func:`~repro.relational.executor.order_target`), a compound's ORDER
BY sees its combined result only, and LIMIT / OFFSET the enclosing
scopes only.  A scope is **open** when its columns cannot be told — a
FROM name the catalog does not know, or a derived table whose star is
over one — and a lookup that fails with an open scope in the chain is
no error: the name may live in the table that cannot be seen.

A derived column's type is the one standing for the family its
expression infers (:meth:`Binding.family`), so family checks see
through derived tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import ast
from .aggregates import contains_aggregate
from .compiler import resolve_column
from .errors import (AmbiguousColumnError, ExecutionError,
                     TypeMismatchError, UnknownColumnError)
from .executor import order_target, star_positions
from .schema import ResultColumn, RowSchema, TableSchema, fold
from .types import FAMILY, DataType, literal_family, parse_type_name


class Relation(NamedTuple):
    """A FROM name known to a catalog that holds no tables (a
    mediator's view); ``schema`` is ``None`` when its columns cannot be
    told."""

    schema: TableSchema | None


@dataclass
class Scope(RowSchema):
    """The columns of a FROM leaf, of a FROM clause or of a core's
    output."""

    #: True when it may hold columns that cannot be enumerated.
    open: bool = False


class Ref(NamedTuple):
    """Where one column reference resolves."""

    #: Scopes outward from the reference's own (0: its own FROM).
    level: int
    #: The folded qualifier of the column it names (a FROM binding).
    binding: str | None
    #: The folded name of that column.
    column: str
    data_type: DataType | None
    #: The FROM leaf of that column; ``None`` for an output column (a
    #: compound's ORDER BY).
    leaf: ast.TableExpr | None


#: The type standing for each family.
_TYPE_OF = {family: data_type for data_type, family in FAMILY.items()}

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})

#: Scalar functions by result family (everything else infers unknown).
_STR_FUNCTIONS = frozenset({
    "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "REPLACE", "SUBSTR",
    "SUBSTRING", "CONCAT", "TYPEOF", "GROUP_CONCAT"})
_NUM_FUNCTIONS = frozenset({
    "LENGTH", "ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT",
    "POWER", "SIGN", "MOD", "INSTR", "COUNT", "SUM", "AVG"})
_PASSTHROUGH_FUNCTIONS = frozenset({
    "MIN", "MAX", "COALESCE", "IFNULL", "NULLIF"})


def is_ordinal(expr: ast.Expr) -> bool:
    """Is *expr* an integer literal (an ordinal where a term is)?"""
    return isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
        and not isinstance(expr.value, bool)


def bind(query: ast.SelectQuery, catalog) -> "Binding":
    """Bind every name of *query*.  *catalog* answers ``get(name)`` with
    the relation a FROM name reads (its ``schema``; a :class:`Relation`
    may have none) or ``None`` when there is none; a ``None`` catalog
    knows no name, so every FROM name binds an open scope."""
    binding = Binding(catalog)
    binding._query(query, [])
    binding._catalog = None  # read; a caller may be the catalog
    return binding


class Binding:
    """What :func:`bind` found, by node identity."""

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        #: Per resolved ``ColumnRef`` (by id), where it resolves.
        self.refs: dict[int, Ref] = {}
        #: Per FROM leaf and per SELECT core (by id), its columns — a
        #: core's are its output.
        self.scopes: dict[int, Scope] = {}
        #: Per GROUP BY / ORDER BY term (by id) that is no bad ordinal,
        #: what it groups or orders by (:func:`~repro.relational.
        #: executor.order_target`).
        self.targets: dict[int, ast.Expr] = {}
        #: Each naming error once: ``(code, message, node)``.
        self.errors: list[tuple[str, str, ast.Node]] = []
        self._leaf_of: dict[int, ast.TableExpr] = {}
        self._met: set[int] = set()

    def ref(self, node: ast.ColumnRef) -> Ref | None:
        """Where *node* resolves; ``None`` when it does not (unknown,
        ambiguous, behind an open scope), was not bound, or is one node
        written at two places that mean two things."""
        return self.refs.get(id(node))

    def scope(self, node: ast.TableExpr | ast.SelectCore) -> Scope:
        return self.scopes[id(node)]

    def level(self, node: ast.ColumnRef) -> int | None:
        """:data:`repro.relational.vectors.InnerScope`'s answer for
        *node*: its :attr:`Ref.level`."""
        found = self.refs.get(id(node))
        return None if found is None else found.level

    def owner(self, node: ast.ColumnRef) -> str | None:
        """The FROM binding of the clause *node* is written over whose
        column it names; ``None`` for an outer or unresolved reference."""
        found = self.refs.get(id(node))
        return found.binding if found is not None and found.level == 0 \
            else None

    def family(self, expr: ast.Expr) -> str | None:
        """Best-effort family of *expr*: num/str/bool, "null", or None."""
        if isinstance(expr, ast.Literal):
            return literal_family(expr.value)
        if isinstance(expr, ast.ColumnRef):
            found = self.refs.get(id(expr))
            return None if found is None else FAMILY.get(found.data_type)
        if isinstance(expr, ast.UnaryOp):
            return "bool" if expr.op.upper() == "NOT" else "num"
        if isinstance(expr, ast.BinaryOp):
            if expr.op.upper() in ("AND", "OR") or expr.op in _COMPARISONS:
                return "bool"
            if expr.op == "||":
                return "str"
            return "num" if expr.op in _ARITHMETIC else None
        if isinstance(expr, (ast.IsNull, ast.Like, ast.InList, ast.Between,
                             ast.InSubquery, ast.Exists)):
            return "bool"
        if isinstance(expr, ast.FunctionCall):
            upper = expr.name.upper()
            if upper in _STR_FUNCTIONS:
                return "str"
            if upper in _NUM_FUNCTIONS:
                return "num"
            if upper in _PASSTHROUGH_FUNCTIONS:
                return self._one_family(expr.args)
            return None
        if isinstance(expr, ast.Cast):
            try:
                return FAMILY[parse_type_name(expr.type_name)]
            except TypeMismatchError:
                return None
        if isinstance(expr, ast.CaseExpr):
            results = [result for _cond, result in expr.whens]
            if expr.else_result is not None:
                results.append(expr.else_result)
            return self._one_family(results)
        return None  # Star, SlotRef, ScalarSubquery, Param (a bound value)

    def _one_family(self, exprs: list[ast.Expr]) -> str | None:
        families = {self.family(expr) for expr in exprs} - {"null", None}
        return families.pop() if len(families) == 1 else None

    # -- the walk -----------------------------------------------------------

    def _error(self, code: str, message: str, node: ast.Node) -> None:
        self.errors.append((code, message, node))

    def _query(self, query: ast.SelectQuery, outer: list[Scope]) -> Scope:
        simple = not query.is_compound
        result = self._core(query.core, outer,
                            query.order_by if simple else [])
        for _op, core in query.compounds:
            self._core(core, outer, [])
        if not simple:
            for item in query.order_by:
                expr = item.expr
                if not is_ordinal(expr):
                    self._expr(expr, [result])
                elif not result.open \
                        and not 1 <= expr.value <= len(result.columns):
                    self._error(
                        "E-ORDINAL-RANGE",
                        f"ORDER BY position {expr.value} is out of range",
                        expr)
        for expr in (query.limit, query.offset):
            if expr is not None:
                self._expr(expr, outer)
        return result

    def _core(self, core: ast.SelectCore, outer: list[Scope],
              order_by: list[ast.OrderItem]) -> Scope:
        from_scope = Scope()
        on: list[ast.Expr] = []
        if core.from_clause is not None:
            self._from(core.from_clause, outer, from_scope, set(), on)
        scopes = outer + [from_scope]
        for expr in on + [core.where, core.having]:
            if expr is not None:
                self._expr(expr, scopes)
        aggregate = bool(core.group_by) or core.having is not None \
            or any(contains_aggregate(item.expr)
                   for item in list(core.items) + list(order_by))
        out = Scope()
        for item in core.items:
            expr = item.expr
            if item.is_star:
                try:
                    positions = [] if from_scope.open \
                        else star_positions(expr, from_scope)
                except UnknownColumnError as exc:
                    self._error("E-UNKNOWN-TABLE", str(exc), expr)
                    continue
                if not aggregate:
                    out.open = out.open or from_scope.open
                    out.columns.extend(
                        ResultColumn(column.name, column.qualifier,
                                     column.data_type)
                        for column in map(from_scope.columns.__getitem__,
                                          positions))
                continue
            self._expr(expr, scopes)
            qualifier = expr.qualifier if isinstance(expr, ast.ColumnRef) \
                and not item.alias and not aggregate else None
            out.columns.append(ResultColumn(
                item.output_name(), qualifier,
                _TYPE_OF.get(self.family(expr))))
        for term in core.group_by + [item.expr for item in order_by]:
            try:
                target = order_target(term, core.items)
            except ExecutionError as exc:
                self._error("E-ORDINAL-RANGE", str(exc), term)
                continue
            self.targets[id(term)] = target
            if target is term:  # else a select item's, bound above
                self._expr(term, scopes)
        self.scopes[id(core)] = out
        return out

    def _from(self, table_expr: ast.TableExpr, outer: list[Scope],
              from_scope: Scope, seen: set[str],
              on: list[ast.Expr]) -> None:
        if isinstance(table_expr, ast.Join):
            self._from(table_expr.left, outer, from_scope, seen, on)
            self._from(table_expr.right, outer, from_scope, seen, on)
            if table_expr.condition is not None:
                on.append(table_expr.condition)
            return
        binding = ast.binding_of(table_expr)
        if binding in seen:
            self._error("E-DUPLICATE-ALIAS",
                        f"duplicate table alias {table_expr.binding!r}",
                        table_expr)
        seen.add(binding)
        if isinstance(table_expr, ast.TableRef):
            relation = None if self._catalog is None \
                else self._catalog.get(table_expr.name)
            if relation is None and self._catalog is not None:
                self._error("E-UNKNOWN-TABLE",
                            f"no such table: {table_expr.name!r}",
                            table_expr)
            scope = Scope(open=True) \
                if relation is None or relation.schema is None \
                else Scope(RowSchema.for_table(relation.schema,
                                               table_expr.binding).columns)
        else:
            # A derived table's columns are requalified to its alias, as
            # the executor requalifies them.
            out = self._query(table_expr.query, outer)
            scope = Scope([ResultColumn(column.name, table_expr.binding,
                                        column.data_type)
                           for column in out.columns], out.open)
        self.scopes[id(table_expr)] = scope
        for column in scope.columns:
            self._leaf_of[id(column)] = table_expr
        from_scope.open = from_scope.open or scope.open
        from_scope.columns.extend(scope.columns)

    def _expr(self, expr: ast.Expr, scopes: list[Scope]) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.ColumnRef):
                self._ref(node, scopes)
            elif isinstance(node, (ast.InSubquery, ast.Exists,
                                   ast.ScalarSubquery)) \
                    and node.query is not None:
                self._query(node.query, scopes)

    def _ref(self, node: ast.ColumnRef, scopes: list[Scope]) -> None:
        found = None
        # Only the message outlives the handler: a kept exception would
        # hold this frame, and every caller's, through its traceback.
        try:
            depth, position = resolve_column(node, scopes)
        except AmbiguousColumnError as exc:
            code, message = "E-AMBIGUOUS-COLUMN", str(exc)
        except UnknownColumnError as exc:
            code, message = "E-UNKNOWN-COLUMN", str(exc)
        else:
            column = scopes[depth].columns[position]
            found = Ref(len(scopes) - 1 - depth,
                        column.qualifier and fold(column.qualifier),
                        fold(column.name), column.data_type,
                        self._leaf_of.get(id(column)))
        if found is None and not any(scope.open for scope in scopes):
            self._error(code, message, node)
        key = id(node)
        if key not in self._met:
            self._met.add(key)
            if found is not None:
                self.refs[key] = found
            return
        # One node written at two places (a statement built by program
        # may share one): it keeps a meaning only if both give it one.
        kept = self.refs.get(key)
        if kept is None or found is None or kept[:4] != found[:4] \
                or kept.leaf is not found.leaf:
            self.refs.pop(key, None)
