"""Scalar function registry for the SQL engine.

All functions follow SQL NULL propagation (a NULL argument yields NULL)
unless documented otherwise (``COALESCE``, ``IFNULL``).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .errors import ExecutionError, TypeMismatchError
from .types import format_value, is_number


def _require_text(value: Any, function_name: str) -> str:
    if not isinstance(value, str):
        raise TypeMismatchError(
            f"{function_name} expects TEXT, got {type(value).__name__}")
    return value


def _require_number(value: Any, function_name: str) -> float | int:
    if not is_number(value):
        raise TypeMismatchError(
            f"{function_name} expects a number, got {type(value).__name__}")
    return value


def _null_propagating(function: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return function(*args)
    return wrapper


def _fn_upper(value: Any) -> Any:
    return _require_text(value, "UPPER").upper()


def _fn_lower(value: Any) -> Any:
    return _require_text(value, "LOWER").lower()


def _fn_length(value: Any) -> Any:
    return len(_require_text(value, "LENGTH"))


def _fn_abs(value: Any) -> Any:
    return abs(_require_number(value, "ABS"))


def _fn_round(value: Any, digits: Any = 0) -> Any:
    number = _require_number(value, "ROUND")
    places = int(_require_number(digits, "ROUND"))
    result = round(float(number), places)
    if places <= 0:
        return float(result) if isinstance(number, float) else int(result)
    return result


def _finite(value: Any, what: str) -> float | int:
    number = _require_number(value, what)
    if math.isinf(number):
        raise ExecutionError(f"{what} of an infinite number")
    return number


def _fn_floor(value: Any) -> Any:
    return int(math.floor(_finite(value, "FLOOR")))


def _fn_ceil(value: Any) -> Any:
    return int(math.ceil(_finite(value, "CEIL")))


def _fn_sqrt(value: Any) -> Any:
    number = _require_number(value, "SQRT")
    if number < 0:
        raise ExecutionError("SQRT of a negative number")
    return math.sqrt(number)


def _fn_power(base: Any, exponent: Any) -> Any:
    try:
        return math.pow(_require_number(base, "POWER"),
                        _require_number(exponent, "POWER"))
    except (ValueError, OverflowError):   # no REAL is the answer
        raise ExecutionError("POWER has no REAL value there") from None


def _fn_sign(value: Any) -> Any:
    number = _require_number(value, "SIGN")
    if number > 0:
        return 1
    if number < 0:
        return -1
    return 0


def int_divmod(left: int, right: int) -> tuple[int, int]:
    """SQL's exact integer division: the quotient truncated toward zero,
    the remainder of the dividend's sign."""
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient, left - quotient * right


def remainder(left: int | float, right: int | float,
              what: str) -> int | float:
    """*what* (``%`` or ``MOD``) of two numbers: an INTEGER for two
    INTEGERs, else ``fmod`` of the dividend's sign."""
    if right == 0:
        raise ExecutionError(f"{what} by zero")
    if isinstance(left, int) and isinstance(right, int):
        return int_divmod(left, right)[1]
    return math.fmod(_finite(left, "a remainder"), right)


def _fn_mod(left: Any, right: Any) -> Any:
    return remainder(_require_number(left, "MOD"),
                     _require_number(right, "MOD"), "MOD")


def _fn_substr(value: Any, start: Any, length: Any = None) -> Any:
    text = _require_text(value, "SUBSTR")
    begin = int(_require_number(start, "SUBSTR"))
    # SQL SUBSTR is 1-based; 0 and negatives clamp like SQLite.
    index = max(begin - 1, 0)
    if length is None:
        return text[index:]
    count = int(_require_number(length, "SUBSTR"))
    if count < 0:
        count = 0
    return text[index:index + count]


def _fn_trim(value: Any) -> Any:
    return _require_text(value, "TRIM").strip()


def _fn_ltrim(value: Any) -> Any:
    return _require_text(value, "LTRIM").lstrip()


def _fn_rtrim(value: Any) -> Any:
    return _require_text(value, "RTRIM").rstrip()


def _fn_replace(value: Any, old: Any, new: Any) -> Any:
    return _require_text(value, "REPLACE").replace(
        _require_text(old, "REPLACE"), _require_text(new, "REPLACE"))


def _fn_instr(value: Any, needle: Any) -> Any:
    return _require_text(value, "INSTR").find(
        _require_text(needle, "INSTR")) + 1


def _fn_concat(*args: Any) -> Any:
    return "".join(
        arg if isinstance(arg, str) else format_value(arg) for arg in args)


def _fn_typeof(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    return "text"


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_ifnull(value: Any, fallback: Any) -> Any:
    return value if value is not None else fallback


def _fn_nullif(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return left
    return None if left == right else left


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "UPPER": _null_propagating(_fn_upper),
    "LOWER": _null_propagating(_fn_lower),
    "LENGTH": _null_propagating(_fn_length),
    "ABS": _null_propagating(_fn_abs),
    "ROUND": _null_propagating(_fn_round),
    "FLOOR": _null_propagating(_fn_floor),
    "CEIL": _null_propagating(_fn_ceil),
    "CEILING": _null_propagating(_fn_ceil),
    "SQRT": _null_propagating(_fn_sqrt),
    "POWER": _null_propagating(_fn_power),
    "SIGN": _null_propagating(_fn_sign),
    "MOD": _null_propagating(_fn_mod),
    "SUBSTR": _null_propagating(_fn_substr),
    "SUBSTRING": _null_propagating(_fn_substr),
    "TRIM": _null_propagating(_fn_trim),
    "LTRIM": _null_propagating(_fn_ltrim),
    "RTRIM": _null_propagating(_fn_rtrim),
    "REPLACE": _null_propagating(_fn_replace),
    "INSTR": _null_propagating(_fn_instr),
    "CONCAT": _null_propagating(_fn_concat),
    "TYPEOF": _fn_typeof,
    "COALESCE": _fn_coalesce,
    "IFNULL": _fn_ifnull,
    "NULLIF": _fn_nullif,
}

_ARITY: dict[str, tuple[int, int | None]] = {
    "UPPER": (1, 1), "LOWER": (1, 1), "LENGTH": (1, 1), "ABS": (1, 1),
    "ROUND": (1, 2), "FLOOR": (1, 1), "CEIL": (1, 1), "CEILING": (1, 1),
    "SQRT": (1, 1), "POWER": (2, 2), "SIGN": (1, 1), "MOD": (2, 2),
    "SUBSTR": (2, 3), "SUBSTRING": (2, 3), "TRIM": (1, 1), "LTRIM": (1, 1),
    "RTRIM": (1, 1), "REPLACE": (3, 3), "INSTR": (2, 2),
    "CONCAT": (1, None), "TYPEOF": (1, 1), "COALESCE": (1, None),
    "IFNULL": (2, 2), "NULLIF": (2, 2),
}


def lookup_function(name: str, arg_count: int) -> Callable[..., Any]:
    """Find a scalar function by name, validating arity."""
    upper = name.upper()
    if upper not in SCALAR_FUNCTIONS:
        raise ExecutionError(f"unknown function {name!r}")
    minimum, maximum = _ARITY[upper]
    if arg_count < minimum or (maximum is not None and arg_count > maximum):
        raise ExecutionError(
            f"{upper} takes {minimum}"
            + ("" if maximum == minimum else
               f" to {maximum if maximum is not None else 'N'}")
            + f" arguments, got {arg_count}")
    return SCALAR_FUNCTIONS[upper]
