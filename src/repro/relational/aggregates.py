"""Aggregate function implementations (COUNT/SUM/AVG/MIN/MAX/GROUP_CONCAT).

Each aggregate is a small state machine: ``initial()`` produces the state,
``step(state, args)`` folds one input row in, ``final(state)`` yields the
result.  DISTINCT handling is done by the executor, which de-duplicates
argument tuples before calling ``step``.
"""

from __future__ import annotations

from typing import Any

from . import ast
from .errors import ExecutionError, TypeMismatchError
from .types import compare_values, is_number


class Aggregate:
    """Base aggregate; subclasses override the three-phase protocol."""

    name = "?"

    def initial(self) -> Any:
        raise NotImplementedError

    def step(self, state: Any, args: tuple) -> Any:
        raise NotImplementedError

    def final(self, state: Any) -> Any:
        raise NotImplementedError


class CountStar(Aggregate):
    name = "COUNT(*)"

    def initial(self) -> int:
        return 0

    def step(self, state: int, args: tuple) -> int:
        return state + 1

    def final(self, state: int) -> int:
        return state


class Count(Aggregate):
    name = "COUNT"

    def initial(self) -> int:
        return 0

    def step(self, state: int, args: tuple) -> int:
        if args[0] is None:
            return state
        return state + 1

    def final(self, state: int) -> int:
        return state


class Sum(Aggregate):
    name = "SUM"

    def initial(self) -> Any:
        return None

    def step(self, state: Any, args: tuple) -> Any:
        value = args[0]
        if value is None:
            return state
        if not is_number(value):
            raise TypeMismatchError(
                f"SUM expects numbers, got {type(value).__name__}")
        if state is None:
            return value
        return state + value

    def final(self, state: Any) -> Any:
        return None if state != state else state   # NaN is NULL


class Avg(Aggregate):
    name = "AVG"

    def initial(self) -> tuple[float, int]:
        return (0.0, 0)

    def step(self, state: tuple[float, int], args: tuple) -> tuple[float, int]:
        value = args[0]
        if value is None:
            return state
        if not is_number(value):
            raise TypeMismatchError(
                f"AVG expects numbers, got {type(value).__name__}")
        total, count = state
        return (total + float(value), count + 1)

    def final(self, state: tuple[float, int]) -> Any:
        total, count = state
        if count == 0:
            return None
        mean = total / count
        return None if mean != mean else mean   # NaN is NULL


class Min(Aggregate):
    name = "MIN"

    def initial(self) -> Any:
        return None

    def step(self, state: Any, args: tuple) -> Any:
        value = args[0]
        if value is None:
            return state
        if state is None or compare_values(value, state) < 0:
            return value
        return state

    def final(self, state: Any) -> Any:
        return state


class Max(Aggregate):
    name = "MAX"

    def initial(self) -> Any:
        return None

    def step(self, state: Any, args: tuple) -> Any:
        value = args[0]
        if value is None:
            return state
        if state is None or compare_values(value, state) > 0:
            return value
        return state

    def final(self, state: Any) -> Any:
        return state


class GroupConcat(Aggregate):
    """GROUP_CONCAT(value[, separator]) — separator defaults to ','."""

    name = "GROUP_CONCAT"

    def initial(self) -> tuple[list[str], str]:
        return ([], ",")

    def step(self, state: tuple[list[str], str],
             args: tuple) -> tuple[list[str], str]:
        pieces, separator = state
        value = args[0]
        if len(args) > 1 and args[1] is not None:
            separator = str(args[1])
        if value is not None:
            pieces.append(value if isinstance(value, str) else str(value))
        return (pieces, separator)

    def final(self, state: tuple[list[str], str]) -> Any:
        pieces, separator = state
        if not pieces:
            return None
        return separator.join(pieces)


def make_aggregate(name: str, star: bool, arg_count: int) -> Aggregate:
    """Aggregate factory; validates the COUNT(*) form and arities."""
    upper = name.upper()
    if star:
        if upper != "COUNT":
            raise ExecutionError(f"{upper}(*) is not a valid aggregate")
        return CountStar()
    classes: dict[str, type[Aggregate]] = {
        "COUNT": Count, "SUM": Sum, "AVG": Avg, "MIN": Min, "MAX": Max,
        "GROUP_CONCAT": GroupConcat,
    }
    if upper not in classes:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if upper == "GROUP_CONCAT":
        if arg_count not in (1, 2):
            raise ExecutionError("GROUP_CONCAT takes 1 or 2 arguments")
    elif arg_count != 1:
        raise ExecutionError(f"{upper} takes exactly 1 argument")
    return classes[upper]()


AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT"})


def is_aggregate(expr: ast.Expr) -> bool:
    """Whether *expr* is an aggregate call."""
    return isinstance(expr, ast.FunctionCall) \
        and expr.name.upper() in AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expr | None) -> bool:
    """Whether *expr* calls an aggregate (outside any subquery)."""
    return expr is not None and any(map(is_aggregate, ast.walk_expr(expr)))
