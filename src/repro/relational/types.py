"""SQL value model: data types, coercion rules, equality keys and
three-valued logic.

The engine stores values as plain Python objects:

* SQL ``NULL``     -> ``None``
* ``INTEGER``      -> ``int``
* ``REAL``         -> ``float``
* ``TEXT``         -> ``str``
* ``BOOLEAN``      -> ``bool``

**NaN is NULL**, as in sqlite, wherever it enters or is made
(:func:`coerce_value`, :func:`null_nans`, arithmetic, SUM / AVG).
**One equality key**: every hash structure keys a value by
:func:`sql_key` — the value itself, but a boolean tagged apart from the
numbers (``TRUE = 1`` is false in SQL, true in Python) — and a row by
:func:`sql_keys`.  So Python ``==`` / ``hash`` over keys is SQL ``=``
(``1`` and ``1.0`` one key, ``1`` and ``'1'`` two, integers beyond 2**53
exact, NULL its own key), and raw values of one :data:`FAMILY` are
their own keys: a path over one typed column hashes them as they are.

Boolean *expressions* evaluate in three-valued logic (3VL): ``True``,
``False`` and *unknown*, where unknown is represented by ``None``.  The
helpers :func:`and3`, :func:`or3` and :func:`not3` implement the SQL truth
tables; WHERE clauses keep a row only when the predicate is exactly
``True``.
"""

from __future__ import annotations

import enum
from operator import ne
from typing import Any, Iterable, Sequence

from .errors import TypeMismatchError


class DataType(enum.Enum):
    """Column data types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_TYPE_ALIASES = {
    "INT": DataType.INTEGER,
    "INTEGER": DataType.INTEGER,
    "BIGINT": DataType.INTEGER,
    "SMALLINT": DataType.INTEGER,
    "REAL": DataType.REAL,
    "FLOAT": DataType.REAL,
    "DOUBLE": DataType.REAL,
    "NUMERIC": DataType.REAL,
    "DECIMAL": DataType.REAL,
    "TEXT": DataType.TEXT,
    "VARCHAR": DataType.TEXT,
    "CHAR": DataType.TEXT,
    "STRING": DataType.TEXT,
    "BOOLEAN": DataType.BOOLEAN,
    "BOOL": DataType.BOOLEAN,
}


def parse_type_name(name: str) -> DataType:
    """Map a SQL type name (with aliases such as ``VARCHAR``) to a DataType."""
    normalized = name.strip().upper()
    # Strip a length suffix such as VARCHAR(40).
    if "(" in normalized:
        normalized = normalized[: normalized.index("(")].strip()
    if normalized not in _TYPE_ALIASES:
        raise TypeMismatchError(f"unknown SQL type: {name!r}")
    return _TYPE_ALIASES[normalized]


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Coerce a Python value to the storage representation of *data_type*.

    ``None`` passes through (NULL is typeless), and a NaN becomes it.  Raises
    :class:`TypeMismatchError` when no faithful conversion exists, e.g.
    ``coerce_value('abc', INTEGER)``.
    """
    if value is None:
        return None
    if data_type is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise TypeMismatchError(
                    f"cannot store {value!r} in INTEGER column") from exc
    elif data_type is DataType.REAL:
        if isinstance(value, (int, float, str)):
            try:
                value = float(value)
            except ValueError as exc:
                raise TypeMismatchError(
                    f"cannot store {value!r} in REAL column") from exc
            return None if value != value else value
    elif data_type is DataType.TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)) and value == value:
            return format_value(value)
    elif data_type is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false", "t", "f"):
            return value.lower() in ("true", "t")
    else:
        raise TypeMismatchError(f"unsupported data type {data_type}")
    if isinstance(value, float) and value != value:
        return None
    raise TypeMismatchError(f"cannot store {value!r} in {data_type} column")


def format_value(value: Any) -> str:
    """Render a value the way result printers and TEXT casts display it."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer():
            return f"{value:.1f}"
        return repr(value)
    return str(value)


# --------------------------------------------------------------------------
# Three-valued logic.  Unknown is represented by None.
# --------------------------------------------------------------------------

def and3(left: bool | None, right: bool | None) -> bool | None:
    """SQL AND: false dominates, unknown otherwise propagates."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def or3(left: bool | None, right: bool | None) -> bool | None:
    """SQL OR: true dominates, unknown otherwise propagates."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def not3(operand: bool | None) -> bool | None:
    """SQL NOT: unknown stays unknown."""
    if operand is None:
        return None
    return not operand


def is_true(value: bool | None) -> bool:
    """WHERE-clause acceptance: only a definite ``True`` passes."""
    return value is True


# --------------------------------------------------------------------------
# Comparison semantics shared by the evaluator, indexes and sorting.
# --------------------------------------------------------------------------

def is_number(value: Any) -> bool:
    """An INTEGER or REAL value (a boolean is neither)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_values(left: Any, right: Any) -> int | None:
    """Compare two non-NULL-or-NULL values; returns -1/0/1 or None (unknown).

    * any NULL operand yields ``None`` (unknown),
    * numbers compare numerically across int/float,
    * strings compare lexicographically,
    * booleans compare with False < True,
    * mixed incompatible types raise :class:`TypeMismatchError`.
    """
    if left is None or right is None:
        return None
    if is_number(left) and is_number(right):
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if isinstance(left, str) and isinstance(right, str):
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if isinstance(left, bool) and isinstance(right, bool):
        return (left > right) - (left < right)
    raise TypeMismatchError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}")


#: Each column type's comparison family: within one, raw values order
#: as ``compare_values`` does and are their own :func:`sql_key` s
#: (``TRUE = 1`` is false in SQL, true in Python).
FAMILY = {
    DataType.INTEGER: "num",
    DataType.REAL: "num",
    DataType.TEXT: "str",
    DataType.BOOLEAN: "bool",
}

#: The families by exact Python type.
_NATIVE_FAMILIES = ({str}, {int, float}, {bool})


def literal_family(value: Any) -> str | None:
    """The family of a value: num/str/bool, "null", or None (unknown)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


def one_family(values: list) -> bool:
    """Whether raw ``<`` orders *values*' non-NULL members exactly as
    ``compare_values`` does: they are of one family."""
    kinds = set(map(type, values))
    kinds.discard(type(None))
    return any(kinds <= family for family in _NATIVE_FAMILIES)


def null_nans(values: Sequence) -> Sequence:
    """*values* with each NaN NULL (*values* itself when it holds none):
    stored REAL columns, bound ``?`` values and the SUM / AVG folds."""
    if any(map(ne, values, values)):
        return [None if value != value else value for value in values]
    return values


#: A boolean's key: tagged apart from every number.
_BOOL_KEYS = (("bool", False), ("bool", True))


def sql_key(value: Any) -> Any:
    """The key *value* hashes and compares by under SQL ``=`` (see the
    module docstring)."""
    return _BOOL_KEYS[value] if value.__class__ is bool else value


def key_value(key: Any) -> Any:
    """The value whose :func:`sql_key` *key* is."""
    return key[1] if key.__class__ is tuple else key


def sql_keys(values: Iterable[Any]) -> tuple:
    """A row's key: the :func:`sql_key` of each of *values*."""
    return tuple(map(sql_key, values))


def values_equal(left: Any, right: Any) -> bool | None:
    """SQL equality: NULL when either side is NULL, else whether the
    :func:`sql_key` s agree (``1 = 'a'`` is simply ``False``)."""
    if left is None or right is None:
        return None
    return sql_key(left) == sql_key(right)


class _NullsOrderKey:
    """Sort key wrapper implementing NULL placement and type-safe ordering."""

    __slots__ = ("value", "descending", "nulls_low")

    def __init__(self, value: Any, descending: bool, nulls_low: bool) -> None:
        self.value = value
        self.descending = descending
        self.nulls_low = nulls_low

    def __lt__(self, other: "_NullsOrderKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return self.nulls_low
        if b is None:
            return not self.nulls_low
        result = compare_values(a, b)
        if result is None:  # pragma: no cover - both non-null here
            return False
        if self.descending:
            return result > 0
        return result < 0

    def __eq__(self, other: object) -> bool:
        # Required so tuple comparison falls through to later sort keys.
        if not isinstance(other, _NullsOrderKey):
            return NotImplemented
        a, b = self.value, other.value
        if a is None or b is None:
            return a is None and b is None
        return compare_values(a, b) == 0


def sort_key(value: Any, descending: bool = False,
             nulls_low: bool | None = None) -> _NullsOrderKey:
    """Build a sort key: PostgreSQL default is NULLS LAST for ASC."""
    if nulls_low is None:
        nulls_low = descending  # ASC -> nulls high (last); DESC -> first.
    return _NullsOrderKey(value, descending, nulls_low)
