"""Expression compilation: AST -> Python closures.

Expressions are compiled once per (sub)query against a *scope chain*: a
list of :class:`~repro.relational.schema.RowSchema` objects, outermost
first.  The compiled closure receives a parallel tuple of row tuples and
returns the SQL value, honouring three-valued logic.

A column reference reads where the statement's bind
(:mod:`repro.relational.bind`, the :class:`CompileContext`'s ``bound``)
says: the scope its level counts to, outwards from the innermost — an
outer one for a correlated subquery's reference — at the position of
its exact ``(binding, column)`` key there (:meth:`CompileContext.
locate`).  Nothing here resolves a name.

A ``?`` placeholder (``ast.Param``) compiles to a read of its slot: the
context's :class:`Slots` hold the values one run of the tree binds, so
a prepared statement's tree is compiled once and re-driven with other
values (see ``Database`` in :mod:`repro.relational.engine`).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Protocol

from . import ast
from .errors import ExecutionError, NotSupportedError, TypeMismatchError
from .functions import int_divmod, lookup_function, remainder
from .schema import RowSchema
from .types import (and3, coerce_value, compare_values, format_value,
                    is_number, is_true, not3, or3, parse_type_name,
                    values_equal)

Rows = tuple
CompiledExpr = Callable[[Rows], Any]


class SubPlanLike(Protocol):
    """What compiled expressions need from a subquery plan."""

    def scalar(self, outer_rows: Rows) -> Any: ...

    def exists(self, outer_rows: Rows) -> bool: ...

    def membership(self, value: Any, outer_rows: Rows) -> bool | None: ...


class Slots:
    """The values a tree's ``?`` placeholders read: ``values[i]`` is
    the value of ``Param(i)`` for the run in progress (``None`` until a
    run binds them).  One per tree, shared by every closure and kernel
    compiled into it; a run binds them before it starts (a tree runs one
    statement at a time).

    ``pinned`` are the slot kernels the tree was laid out for as if
    their values chose a kernel (a WHERE conjunct ahead of a semi join):
    the tree runs only values that :meth:`admits`.

    ``views`` are the relations bound for the run the same way, by
    lower-cased name: what each ``ViewScan`` of the tree reads.

    ``demand`` is how many rows the run's consumer asked for first — a
    cursor's first ``fetchmany(n)`` — or ``None`` while it drains the
    run whole: what a scan under an ORDER BY weighs reading in the
    key's order by (:class:`~repro.relational.operators.Order`)."""

    __slots__ = ("values", "pinned", "views", "demand")

    def __init__(self) -> None:
        self.values: tuple | None = None
        self.pinned: list = []
        self.views: dict | None = None
        self.demand: int | None = None

    def admits(self, values: tuple) -> bool:
        """Does each pinned slot kernel choose a kernel under *values*?"""
        return all(kernel.admits(values) for kernel in self.pinned)


class CompileContext:
    """Build state shared across a query tree.

    ``subplan_factory(query, scopes, ctx[, single_column])`` is injected
    by the executor (it owns query building, and rejects a subquery of
    the wrong width while doing so); the compiler only knows
    :class:`SubPlanLike`.  ``bound`` is the bind of the statement being
    built (a :class:`repro.relational.bind.Binding`), ``None`` where
    what is compiled names no column.
    """

    def __init__(self, subplan_factory: Callable[..., SubPlanLike],
                 exec_hooks=None, stats=None, bound=None) -> None:
        self.subplan_factory = subplan_factory
        self.bound = bound
        #: What the tree's ``?`` placeholders read.
        self.slots = Slots()
        #: Duck-typed telemetry hooks for vectorized operators (see
        #: :class:`repro.relational.batch.ExecHooks`), or ``None``.
        self.exec_hooks = exec_hooks
        #: The database's statistics catalog (duck-typed
        #: :class:`repro.planner.StatisticsCatalog`), or ``None``: where
        #: the builder itself picks an access path, it estimates it.
        self.stats = stats
        #: Root operators of the subqueries built for expressions; the
        #: statement root shows them beside the main tree.
        self.subplans: list = []

    def locate(self, node: ast.ColumnRef,
               scopes: list[RowSchema]) -> tuple[int, int]:
        """``(depth, position)`` of the bound reference *node* in
        *scopes*.  It raises only where the tree and its bind disagree
        (a rewrite wrote a reference it did not record)."""
        found = self.bound.ref(node, len(scopes)) \
            if self.bound is not None else None
        depth = len(scopes) - 1 - found.level if found is not None else -1
        position = scopes[depth].position(found.binding, found.column) \
            if depth >= 0 else None
        if position is None:
            raise ExecutionError(
                f"column reference {node.display()!r} was not bound here")
        return depth, position


# ---------------------------------------------------------------------------
# Operator semantics
# ---------------------------------------------------------------------------

def _numeric(op: str, value: Any) -> Any:
    if not is_number(value):
        raise TypeMismatchError(
            f"operator {op} expects numbers, got {type(value).__name__}")
    return value


def arithmetic(op: str, left: Any, right: Any) -> Any:
    """NULL-propagating SQL arithmetic with PostgreSQL-style division; a
    NaN result (``inf - inf``) is NULL, as in sqlite."""
    if left is None or right is None:
        return None
    if op == "||":
        left_text = left if isinstance(left, str) else format_value(left)
        right_text = right if isinstance(right, str) else format_value(right)
        return left_text + right_text
    _numeric(op, left)
    _numeric(op, right)
    if op == "+":
        result = left + right
    elif op == "-":
        result = left - right
    elif op == "*":
        result = left * right
    elif op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int_divmod(left, right)[0]
        result = left / right
    elif op == "%":
        return remainder(left, right, "modulo")
    else:
        raise NotSupportedError(f"unknown arithmetic operator {op!r}")
    return None if result != result else result


def comparison(op: str, left: Any, right: Any) -> bool | None:
    """Three-valued comparison dispatch."""
    if op == "=":
        return values_equal(left, right)
    if op == "<>":
        return not3(values_equal(left, right))
    result = compare_values(left, right)
    if result is None:
        return None
    if op == "<":
        return result < 0
    if op == "<=":
        return result <= 0
    if op == ">":
        return result > 0
    if op == ">=":
        return result >= 0
    raise NotSupportedError(f"unknown comparison operator {op!r}")


_LIKE_CACHE: dict[str, re.Pattern] = {}


def like_match(value: Any, pattern: Any) -> bool | None:
    """SQL LIKE with %/_ wildcards; NULL operands yield unknown."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeMismatchError("LIKE expects TEXT operands")
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        pieces = ["^"]
        for char in pattern:
            if char == "%":
                pieces.append(".*")
            elif char == "_":
                pieces.append(".")
            else:
                pieces.append(re.escape(char))
        pieces.append("$")
        compiled = re.compile("".join(pieces), re.DOTALL)
        if len(_LIKE_CACHE) < 1024:
            _LIKE_CACHE[pattern] = compiled
    return compiled.match(value) is not None


def membership(value: Any, candidates: list[Any]) -> bool | None:
    """3VL semantics of ``value IN (candidates)``."""
    saw_unknown = False
    for candidate in candidates:
        result = values_equal(value, candidate)
        if result is True:
            return True
        if result is None:
            saw_unknown = True
    if saw_unknown:
        return None
    return False


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_expr(expr: ast.Expr, scopes: list[RowSchema],
                 ctx: CompileContext) -> CompiledExpr:
    """Compile an expression against a scope chain."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda rows: value

    if isinstance(expr, ast.ColumnRef):
        depth, position = ctx.locate(expr, scopes)
        return lambda rows: rows[depth][position]

    if isinstance(expr, ast.SlotRef):
        index = expr.index
        return lambda rows: rows[-1][index]

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, scopes, ctx)
        if expr.op == "NOT":
            return lambda rows: not3(operand(rows))
        if expr.op == "-":
            def negate(rows: Rows) -> Any:
                value = operand(rows)
                if value is None:
                    return None
                return -_numeric("-", value)
            return negate
        if expr.op == "+":
            def positive(rows: Rows) -> Any:
                value = operand(rows)
                if value is None:
                    return None
                return _numeric("+", value)
            return positive
        raise NotSupportedError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op == "AND":
            left = compile_expr(expr.left, scopes, ctx)
            right = compile_expr(expr.right, scopes, ctx)

            def and_eval(rows: Rows) -> bool | None:
                left_value = _truth(left(rows))
                if left_value is False:
                    return False
                return and3(left_value, _truth(right(rows)))
            return and_eval
        if op == "OR":
            left = compile_expr(expr.left, scopes, ctx)
            right = compile_expr(expr.right, scopes, ctx)

            def or_eval(rows: Rows) -> bool | None:
                left_value = _truth(left(rows))
                if left_value is True:
                    return True
                return or3(left_value, _truth(right(rows)))
            return or_eval
        left = compile_expr(expr.left, scopes, ctx)
        right = compile_expr(expr.right, scopes, ctx)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda rows: comparison(op, left(rows), right(rows))
        return lambda rows: arithmetic(op, left(rows), right(rows))

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, scopes, ctx)
        if expr.negated:
            return lambda rows: operand(rows) is not None
        return lambda rows: operand(rows) is None

    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, scopes, ctx)
        pattern = compile_expr(expr.pattern, scopes, ctx)
        if expr.negated:
            return lambda rows: not3(like_match(operand(rows), pattern(rows)))
        return lambda rows: like_match(operand(rows), pattern(rows))

    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, scopes, ctx)
        low = compile_expr(expr.low, scopes, ctx)
        high = compile_expr(expr.high, scopes, ctx)

        def between(rows: Rows) -> bool | None:
            value = operand(rows)
            result = and3(comparison(">=", value, low(rows)),
                          comparison("<=", value, high(rows)))
            return result
        if expr.negated:
            return lambda rows: not3(between(rows))
        return between

    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, scopes, ctx)
        items = [compile_expr(item, scopes, ctx) for item in expr.items]

        def in_list(rows: Rows) -> bool | None:
            return membership(operand(rows), [item(rows) for item in items])
        if expr.negated:
            return lambda rows: not3(in_list(rows))
        return in_list

    if isinstance(expr, ast.InSubquery):
        operand = compile_expr(expr.operand, scopes, ctx)
        plan = ctx.subplan_factory(expr.query, scopes, ctx, "IN subquery")

        def in_subquery(rows: Rows) -> bool | None:
            return plan.membership(operand(rows), rows)
        if expr.negated:
            return lambda rows: not3(in_subquery(rows))
        return in_subquery

    if isinstance(expr, ast.Exists):
        plan = ctx.subplan_factory(expr.query, scopes, ctx)
        if expr.negated:
            return lambda rows: not plan.exists(rows)
        return lambda rows: plan.exists(rows)

    if isinstance(expr, ast.ScalarSubquery):
        plan = ctx.subplan_factory(expr.query, scopes, ctx,
                                   "scalar subquery")
        return lambda rows: plan.scalar(rows)

    if isinstance(expr, ast.FunctionCall):
        function = lookup_function(expr.name, len(expr.args))
        args = [compile_expr(arg, scopes, ctx) for arg in expr.args]
        return lambda rows: function(*[arg(rows) for arg in args])

    if isinstance(expr, ast.CaseExpr):
        whens = [(compile_expr(condition, scopes, ctx),
                  compile_expr(result, scopes, ctx))
                 for condition, result in expr.whens]
        else_fn = (compile_expr(expr.else_result, scopes, ctx)
                   if expr.else_result is not None else None)
        if expr.operand is None:
            def searched_case(rows: Rows) -> Any:
                for condition, result in whens:
                    if is_true(_truth(condition(rows))):
                        return result(rows)
                return else_fn(rows) if else_fn else None
            return searched_case
        operand = compile_expr(expr.operand, scopes, ctx)

        def simple_case(rows: Rows) -> Any:
            subject = operand(rows)
            for condition, result in whens:
                if is_true(values_equal(subject, condition(rows))):
                    return result(rows)
            return else_fn(rows) if else_fn else None
        return simple_case

    if isinstance(expr, ast.Cast):
        target = parse_type_name(expr.type_name)
        operand = compile_expr(expr.operand, scopes, ctx)
        return lambda rows: coerce_value(operand(rows), target)

    if isinstance(expr, ast.Param):
        slots, index = ctx.slots, expr.index
        return lambda rows: slots.values[index]

    raise NotSupportedError(
        f"cannot compile {type(expr).__name__} expression")


def _truth(value: Any) -> bool | None:
    """Interpret a value in boolean context (non-boolean -> error)."""
    if value is None or isinstance(value, bool):
        return value
    raise TypeMismatchError(
        f"expected a boolean condition, got {type(value).__name__}")


def compile_predicate(expr: ast.Expr, scopes: list[RowSchema],
                      ctx: CompileContext) -> Callable[[Rows], bool]:
    """Compile a WHERE/ON/HAVING predicate to a strict boolean test."""
    compiled = compile_expr(expr, scopes, ctx)
    return lambda rows: is_true(_truth(compiled(rows)))


def conjunction(parts: list[CompiledExpr]) -> Callable[[Rows], bool]:
    """:func:`compile_predicate` of ``p1 AND p2 AND ...`` from its
    conjuncts compiled one by one: left to right, each a boolean
    condition, stopping at the first FALSE — exactly as the compiled
    ``AND`` chain evaluates (and fails)."""
    if len(parts) == 1:
        part = parts[0]
        return lambda rows: is_true(_truth(part(rows)))

    def test(rows: Rows) -> bool:
        result: bool | None = True
        for part in parts:
            value = _truth(part(rows))
            if value is False:
                return False
            if value is None:
                result = None
        return result is True
    return test
