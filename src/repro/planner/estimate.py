"""Cardinality estimation: selectivities from statistics + heuristics.

The estimator is deliberately System-R-shaped: independent-predicate
selectivities multiplied together, equi-join selectivity of
``1 / max(distinct(left), distinct(right))``, and fixed magic fractions
when no statistics exist.  Its job is not to be precise — it only has
to order alternatives correctly often enough for the join orderer to
avoid catastrophic plans.

A ``?`` placeholder is a constant the estimator knows to be there but
not its value: a prepared statement is planned once for every binding.
Equality with it is ``1 / distinct`` of the column (no histogram, no
range check), a range the fixed ``RANGE_SELECTIVITY``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..relational import ast
from ..relational.types import is_number
from .stats import ColumnStats

# Fallback selectivities when statistics are missing (System-R lore).
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
LIKE_SELECTIVITY = 0.15
DEFAULT_SELECTIVITY = 0.25
JOIN_SELECTIVITY = 0.1

#: ``resolve(column_ref) -> ColumnStats | None`` — the caller (which
#: knows which relation a column belongs to) supplies the lookup.
StatsResolver = Callable[[ast.ColumnRef], "ColumnStats | None"]


def _clamp(fraction: float) -> float:
    return min(max(fraction, 0.0005), 1.0)


#: The value of a ``?``: a constant, but none the estimator may read.
_UNBOUND = object()


def _literal(expr: ast.Expr) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Param):
        return True, _UNBOUND
    if isinstance(expr, ast.UnaryOp) and expr.op == "-" \
            and isinstance(expr.operand, ast.Literal) \
            and is_number(expr.operand.value):
        return True, -expr.operand.value
    return False, None


def equality_selectivity(stats: ColumnStats | None, value: Any) -> float:
    if stats is None or stats.non_null == 0:
        return EQ_SELECTIVITY
    base = 1.0 / max(stats.distinct, 1)
    if is_number(value):
        if is_number(stats.min_value) and (value < stats.min_value
                                            or value > stats.max_value):
            return 0.0005  # out of the observed range
        if stats.histogram is not None:
            bucket = stats.histogram.fraction_equal(float(value))
            if bucket is not None:
                if bucket == 0.0:
                    return 0.0005  # empty bucket: key effectively absent
                # One key holds ~ bucket_fraction / (distinct / buckets)
                # of the rows, assuming keys spread evenly over buckets;
                # the whole bucket is an upper bound either way.
                per_key = bucket * len(stats.histogram.counts) \
                    / max(stats.distinct, 1)
                base = min(max(per_key, 1.0 / max(stats.non_null, 1)),
                           bucket)
    return _clamp(base * (1.0 - stats.null_fraction)
                  if stats.null_fraction < 1.0 else 0.0005)


def range_selectivity(stats: ColumnStats | None, op: str,
                      value: Any) -> float:
    if stats is None or not is_number(value) \
            or not is_number(stats.min_value) \
            or not is_number(stats.max_value):
        return RANGE_SELECTIVITY
    low, high = float(stats.min_value), float(stats.max_value)
    if stats.histogram is not None and stats.histogram.total:
        below = stats.histogram.fraction_below(
            float(value), inclusive=op == "<=")
    elif high == low:
        below = 1.0 if float(value) >= low else 0.0
    else:
        below = (float(value) - low) / (high - low)
        below = min(max(below, 0.0), 1.0)
    if op in ("<", "<="):
        fraction = below
    else:  # '>', '>='
        fraction = 1.0 - below
    return _clamp(fraction * (1.0 - stats.null_fraction))


def predicate_selectivity(expr: ast.Expr, resolve: StatsResolver) -> float:
    """Selectivity of one WHERE/ON conjunct (3VL folded into 'kept')."""
    if isinstance(expr, ast.Literal):
        if expr.value is True:
            return 1.0
        return 0.0005 if expr.value in (False, None) else 1.0

    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            return _clamp(predicate_selectivity(expr.left, resolve)
                          * predicate_selectivity(expr.right, resolve))
        if expr.op == "OR":
            left = predicate_selectivity(expr.left, resolve)
            right = predicate_selectivity(expr.right, resolve)
            return _clamp(left + right - left * right)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            column, value = _column_vs_literal(expr)
            if column is not None:
                stats = resolve(column)
                if expr.op == "=":
                    return equality_selectivity(stats, value)
                if expr.op == "<>":
                    return _clamp(1.0 - equality_selectivity(stats, value))
                return range_selectivity(stats, _oriented_op(expr, column),
                                         value)
            if expr.op == "=":
                return EQ_SELECTIVITY
            if expr.op == "<>":
                return 1.0 - EQ_SELECTIVITY
            return RANGE_SELECTIVITY
        return DEFAULT_SELECTIVITY

    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        return _clamp(1.0 - predicate_selectivity(expr.operand, resolve))

    if isinstance(expr, ast.IsNull):
        stats = (resolve(expr.operand)
                 if isinstance(expr.operand, ast.ColumnRef) else None)
        fraction = stats.null_fraction if stats is not None else 0.05
        return _clamp(1.0 - fraction if expr.negated else fraction)

    if isinstance(expr, ast.Between):
        low_ok, low = _literal(expr.low)
        high_ok, high = _literal(expr.high)
        if isinstance(expr.operand, ast.ColumnRef) and low_ok and high_ok \
                and _UNBOUND not in (low, high):
            stats = resolve(expr.operand)
            fraction = _clamp(
                range_selectivity(stats, "<=", high)
                - range_selectivity(stats, "<", low))
            return _clamp(1.0 - fraction) if expr.negated else fraction
        return RANGE_SELECTIVITY

    if isinstance(expr, ast.InList):
        if isinstance(expr.operand, ast.ColumnRef):
            stats = resolve(expr.operand)
            total = 0.0
            for item in expr.items:
                ok, value = _literal(item)
                total += (equality_selectivity(stats, value)
                          if ok else EQ_SELECTIVITY)
            fraction = _clamp(total)
            return _clamp(1.0 - fraction) if expr.negated else fraction
        return DEFAULT_SELECTIVITY

    if isinstance(expr, ast.Like):
        return _clamp(1.0 - LIKE_SELECTIVITY) if expr.negated \
            else LIKE_SELECTIVITY

    return DEFAULT_SELECTIVITY


def join_selectivity(left: ColumnStats | None,
                     right: ColumnStats | None) -> float:
    """Equi-join selectivity: ``1 / max(distinct sides)``."""
    distincts = [stats.distinct for stats in (left, right)
                 if stats is not None and stats.distinct > 0]
    if not distincts:
        return JOIN_SELECTIVITY
    return _clamp(1.0 / max(distincts))


def semi_join_selectivity(operand: ColumnStats | None,
                          build_distinct: float | None) -> float:
    """Fraction of rows with a witness on the build side of a semi
    join (``x IN (subquery)``, ``EXISTS (... inner = x)``): the share
    ``build_distinct / distinct(x)`` of x's values that occur there, of
    the rows where x is not NULL; the anti join keeps the rest."""
    if operand is None or not operand.distinct or build_distinct is None:
        return DEFAULT_SELECTIVITY
    return _clamp(min(1.0, build_distinct / operand.distinct)
                  * (1.0 - operand.null_fraction))


def _column_vs_literal(
        expr: ast.BinaryOp) -> tuple[ast.ColumnRef | None, Any]:
    for column_side, value_side in ((expr.left, expr.right),
                                    (expr.right, expr.left)):
        if isinstance(column_side, ast.ColumnRef):
            ok, value = _literal(value_side)
            if ok:
                return column_side, value
    return None, None


def _oriented_op(expr: ast.BinaryOp, column: ast.ColumnRef) -> str:
    """Flip the comparison when the literal is on the left side."""
    if expr.left is column:
        return expr.op
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[expr.op]
