"""Expression checking: 3VL type families only.

One recursive pass per expression root, over the names the statement's
bind (:mod:`repro.relational.bind`) resolved and typed.  Whether a
statement is valid at all — its calls, CASTs, grouping — the bind
decided, and the analyzer reports its errors; this pass does the one
job the executor only does per row at run time: family-aware checks
under the three-valued comparison rules of
:mod:`repro.relational.types` (``compare_values`` raises across type
families, ``values_equal`` is plain ``False``, booleans are their own
family).  They are data-dependent hazards (the query still succeeds
over all-NULL or empty data), so they surface as ``W-`` codes.
"""

from __future__ import annotations

from ..relational import ast
from ..relational.render import render_expr

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ORDERED = frozenset({"<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})


def _known(family: str | None) -> bool:
    return family in ("num", "str", "bool")


def _check_comparison(node: ast.BinaryOp, family, report) -> None:
    rendered = render_expr(node)
    left_family = family(node.left)
    right_family = family(node.right)
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


def check_expr(expr: ast.Expr, env) -> None:
    """Type-check one expression tree, its names as ``env.bound`` bound
    them (which reported the ones it could not).  Subqueries hand off
    to ``env.analyze_subquery``."""
    report = env.report
    family = env.bound.family
    # Generic descent first, then node-specific family checks.
    for child in ast.child_exprs(expr):
        check_expr(child, env)

    if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
        if expr.query is not None:
            env.analyze_subquery(expr.query)
    elif isinstance(expr, ast.BinaryOp):
        if expr.op in _COMPARISONS:
            _check_comparison(expr, family, env.report)
        elif expr.op in _ARITHMETIC:
            for side in (expr.left, expr.right):
                side_family = family(side)
                if side_family in ("str", "bool"):
                    report.add(
                        "W-TYPE-MISMATCH",
                        f"arithmetic on a {side_family} operand raises on "
                        "non-NULL values",
                        expression=render_expr(expr))
    elif isinstance(expr, ast.UnaryOp):
        op = expr.op.upper()
        operand_family = family(expr.operand)
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
        operand_family = family(expr.operand)
        pattern_family = family(expr.pattern)
        if operand_family in ("num", "bool") \
                or pattern_family in ("num", "bool"):
            report.add("W-LIKE-NONTEXT",
                       "LIKE requires text operands",
                       expression=render_expr(expr))
    elif isinstance(expr, ast.Between):
        operand_family = family(expr.operand)
        for bound in (expr.low, expr.high):
            bound_family = family(bound)
            if _known(operand_family) and _known(bound_family) \
                    and operand_family != bound_family:
                report.add(
                    "W-TYPE-MISMATCH",
                    f"BETWEEN bound is {bound_family} but the operand "
                    f"is {operand_family}",
                    expression=render_expr(expr))
    elif isinstance(expr, ast.InList):
        operand_family = family(expr.operand)
        if _known(operand_family):
            for item in expr.items:
                item_family = family(item)
                if _known(item_family) and item_family != operand_family:
                    report.add(
                        "W-CROSS-EQ-FALSE",
                        f"IN item is {item_family} but the operand is "
                        f"{operand_family}; it can never match",
                        expression=render_expr(item))


def check_predicate(expr: ast.Expr, env, *, clause: str = "WHERE") -> None:
    """Checks for boolean contexts: WHERE, HAVING, JOIN ... ON."""
    report = env.report
    for conjunct in ast.conjuncts(expr):
        if isinstance(conjunct, ast.Literal):
            report.add("W-CONST-PREDICATE",
                       f"{clause} conjunct is a constant",
                       expression=render_expr(conjunct))
            continue
        family = env.bound.family(conjunct)
        if family in ("num", "str"):
            report.add("W-NONBOOL-WHERE",
                       f"{clause} conjunct is {family}-valued, not "
                       "boolean",
                       expression=render_expr(conjunct))
    check_expr(expr, env)
