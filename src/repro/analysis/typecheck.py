"""Expression checking: resolution, function arity, 3VL type families.

One recursive pass per expression root does three jobs the executor's
compiler does at its own compile time — resolve every column reference,
validate every function call, reject bad CAST targets — and one job the
executor only does per-row at runtime: family-aware type inference
under the three-valued comparison rules of
:mod:`repro.relational.types` (``compare_values`` raises across type
families, ``values_equal`` is plain ``False``, booleans are their own
family).  Sure compile-time failures surface as ``E-`` codes;
data-dependent hazards (the query still succeeds over all-NULL or empty
data) surface as ``W-`` codes.
"""

from __future__ import annotations

from ..relational import ast
from ..relational.aggregates import AGGREGATE_NAMES
from ..relational.errors import ExecutionError, TypeMismatchError
from ..relational.functions import SCALAR_FUNCTIONS, lookup_function
from ..relational.render import render_expr
from ..relational.schema import fold
from ..relational.types import FAMILY, literal_family, parse_type_name
from .scopes import Scope, resolve

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ORDERED = frozenset({"<", "<=", ">", ">="})
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


def infer_family(expr: ast.Expr, scopes: list[Scope]) -> str | None:
    """Best-effort family of *expr*: num/str/bool, "null", or None."""
    if isinstance(expr, ast.Literal):
        return literal_family(expr.value)
    if isinstance(expr, ast.ColumnRef):
        resolution = resolve(expr, scopes)
        return resolution.family if resolution.status == "ok" else None
    if isinstance(expr, ast.UnaryOp):
        if expr.op.upper() == "NOT":
            return "bool"
        return "num"
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op in ("AND", "OR") or expr.op in _COMPARISONS:
            return "bool"
        if expr.op == "||":
            return "str"
        if expr.op in _ARITHMETIC:
            return "num"
        return None
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
            families = {infer_family(arg, scopes) for arg in expr.args}
            families.discard("null")
            families.discard(None)
            if len(families) == 1:
                return families.pop()
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
        families = {infer_family(result, scopes) for result in results}
        families.discard("null")
        families.discard(None)
        if len(families) == 1:
            return families.pop()
        return None
    return None  # Star, SlotRef, ScalarSubquery, Param (a bound value)


def _known(family: str | None) -> bool:
    return family in ("num", "str", "bool")


def _check_function(node: ast.FunctionCall, report,
                    aggregates_ok: bool) -> None:
    upper = node.name.upper()
    rendered = render_expr(node)
    if node.star:
        if upper != "COUNT":
            code = ("E-FUNCTION-ARITY" if upper in AGGREGATE_NAMES
                    or upper in SCALAR_FUNCTIONS else "E-UNKNOWN-FUNCTION")
            report.add(code, f"{upper}(*) is not a valid call",
                       expression=rendered)
        elif not aggregates_ok:
            report.add("E-AGGREGATE-CONTEXT",
                       "aggregate COUNT(*) is not allowed here",
                       expression=rendered)
        return
    if upper in AGGREGATE_NAMES:
        if not aggregates_ok:
            report.add("E-AGGREGATE-CONTEXT",
                       f"aggregate {upper} is not allowed here",
                       expression=rendered)
        if upper == "GROUP_CONCAT":
            if len(node.args) not in (1, 2):
                report.add("E-FUNCTION-ARITY",
                           "GROUP_CONCAT takes 1 or 2 arguments",
                           expression=rendered)
        elif len(node.args) != 1:
            report.add("E-FUNCTION-ARITY",
                       f"{upper} takes exactly 1 argument",
                       expression=rendered)
        return
    if upper not in SCALAR_FUNCTIONS:
        report.add("E-UNKNOWN-FUNCTION",
                   f"unknown function {node.name!r}", expression=rendered)
        return
    try:
        lookup_function(node.name, len(node.args))
    except ExecutionError as exc:
        report.add("E-FUNCTION-ARITY", str(exc), expression=rendered)


def _check_comparison(node: ast.BinaryOp, scopes: list[Scope],
                      report) -> None:
    rendered = render_expr(node)
    left_family = infer_family(node.left, scopes)
    right_family = infer_family(node.right, scopes)
    for side in (node.left, node.right):
        if isinstance(side, ast.Literal) and side.value is None:
            report.add("W-NULL-COMPARE",
                       "comparison with NULL is never TRUE",
                       expression=rendered,
                       hint="use IS NULL / IS NOT NULL")
            return
    if _known(left_family) and _known(right_family) \
            and left_family != right_family:
        if node.op in _ORDERED:
            report.add(
                "W-TYPE-MISMATCH",
                f"ordered comparison between {left_family} and "
                f"{right_family} raises on non-NULL values",
                expression=rendered)
        else:
            report.add(
                "W-CROSS-EQ-FALSE",
                f"equality between {left_family} and {right_family} "
                "can never be TRUE",
                expression=rendered)


def check_expr(expr: ast.Expr, scopes: list[Scope], env, *,
               aggregates_ok: bool) -> None:
    """Resolve and type-check one expression tree.

    Subqueries hand off to ``env.analyze_subquery`` with the current
    scope chain appended (correlated references resolve outward exactly
    as the executor's ``SubPlan`` sees them).
    """
    report = env.report
    if isinstance(expr, ast.ColumnRef):
        resolution = resolve(expr, scopes)
        if resolution.status == "unknown" \
                and expr.qualifier is None \
                and fold(expr.name) in env.excused:
            return  # a REPLACECONSTANT target: rewritten before execution
        if resolution.status == "unknown":
            report.add("E-UNKNOWN-COLUMN",
                       f"no such column: {expr.display()!r}")
        elif resolution.status == "ambiguous":
            report.add("E-AMBIGUOUS-COLUMN",
                       f"column reference {expr.display()!r} is ambiguous")
        return
    if isinstance(expr, (ast.Literal, ast.Star, ast.SlotRef)):
        return
    if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
        if isinstance(expr, ast.InSubquery):
            check_expr(expr.operand, scopes, env,
                       aggregates_ok=aggregates_ok)
        if expr.query is not None:
            env.analyze_subquery(expr.query, scopes)
        return
    if isinstance(expr, ast.FunctionCall):
        _check_function(expr, report, aggregates_ok)
        for arg in expr.args:
            check_expr(arg, scopes, env, aggregates_ok=aggregates_ok)
        return
    if isinstance(expr, ast.Cast):
        try:
            parse_type_name(expr.type_name)
        except TypeMismatchError:
            report.add("E-BAD-CAST",
                       f"unknown SQL type {expr.type_name!r}",
                       expression=render_expr(expr))
        check_expr(expr.operand, scopes, env, aggregates_ok=aggregates_ok)
        return

    # Generic descent first, then node-specific family checks.
    for child in ast.child_exprs(expr):
        check_expr(child, scopes, env, aggregates_ok=aggregates_ok)

    if isinstance(expr, ast.BinaryOp):
        if expr.op in _COMPARISONS:
            _check_comparison(expr, scopes, env.report)
        elif expr.op in _ARITHMETIC:
            for side in (expr.left, expr.right):
                family = infer_family(side, scopes)
                if family in ("str", "bool"):
                    report.add(
                        "W-TYPE-MISMATCH",
                        f"arithmetic on a {family} operand raises on "
                        "non-NULL values",
                        expression=render_expr(expr))
    elif isinstance(expr, ast.UnaryOp):
        op = expr.op.upper()
        operand_family = infer_family(expr.operand, scopes)
        if op == "NOT" and operand_family in ("num", "str"):
            report.add("W-NONBOOL-WHERE",
                       f"NOT over a {operand_family} operand raises on "
                       "non-NULL values",
                       expression=render_expr(expr))
        elif op in ("-", "+") and operand_family in ("str", "bool"):
            report.add("W-TYPE-MISMATCH",
                       f"unary {expr.op} on a {operand_family} operand "
                       "raises on non-NULL values",
                       expression=render_expr(expr))
    elif isinstance(expr, ast.Like):
        operand_family = infer_family(expr.operand, scopes)
        pattern_family = infer_family(expr.pattern, scopes)
        if operand_family in ("num", "bool") \
                or pattern_family in ("num", "bool"):
            report.add("W-LIKE-NONTEXT",
                       "LIKE requires text operands",
                       expression=render_expr(expr))
    elif isinstance(expr, ast.Between):
        operand_family = infer_family(expr.operand, scopes)
        for bound in (expr.low, expr.high):
            bound_family = infer_family(bound, scopes)
            if _known(operand_family) and _known(bound_family) \
                    and operand_family != bound_family:
                report.add(
                    "W-TYPE-MISMATCH",
                    f"BETWEEN bound is {bound_family} but the operand "
                    f"is {operand_family}",
                    expression=render_expr(expr))
    elif isinstance(expr, ast.InList):
        operand_family = infer_family(expr.operand, scopes)
        if _known(operand_family):
            for item in expr.items:
                item_family = infer_family(item, scopes)
                if _known(item_family) and item_family != operand_family:
                    report.add(
                        "W-CROSS-EQ-FALSE",
                        f"IN item is {item_family} but the operand is "
                        f"{operand_family}; it can never match",
                        expression=render_expr(item))


def check_predicate(expr: ast.Expr, scopes: list[Scope], env, *,
                    aggregates_ok: bool = False,
                    clause: str = "WHERE") -> None:
    """Checks for boolean contexts: WHERE, HAVING, JOIN ... ON."""
    report = env.report
    for conjunct in ast.conjuncts(expr):
        if isinstance(conjunct, ast.Literal):
            report.add("W-CONST-PREDICATE",
                       f"{clause} conjunct is a constant",
                       expression=render_expr(conjunct))
            continue
        family = infer_family(conjunct, scopes)
        if family in ("num", "str"):
            report.add("W-NONBOOL-WHERE",
                       f"{clause} conjunct is {family}-valued, not "
                       "boolean",
                       expression=render_expr(conjunct))
    check_expr(expr, scopes, env, aggregates_ok=aggregates_ok)
