"""Table schemas, column definitions and the one name rule.

**The name rule.**  An SQL identifier — a table, column, index, alias or
mediated view name, or an enrichment's attribute — names what it names
case-insensitively: :func:`fold` is its key, and the only place an
identifier is folded.  Every registry keyed by a name keys through it,
at registration or build time.  The spelling a name was declared with is
kept for display and output.

**The reference rule** is :func:`repro.relational.bind.resolve_column`'s,
applied once by the bind pass; every other layer reads what it found
(the executor finds a bound column in its rows by the exact folded
``(binding, column)`` key, :meth:`RowSchema.position`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import SchemaError
from .types import DataType


@dataclass
class Column:
    """A single column definition.

    ``default`` is the literal default value used when an INSERT omits the
    column; ``None`` with ``has_default=False`` means "no default" (NULL is
    used when nullable, otherwise the insert fails).
    """

    name: str
    data_type: DataType
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: Any = None
    has_default: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.primary_key:
            self.nullable = False

    def to_spec(self) -> dict:
        """JSON-able description; defaults are plain literals so the
        spec round-trips through WAL records and snapshots exactly."""
        return {"name": self.name, "type": self.data_type.value,
                "nullable": self.nullable,
                "primary_key": self.primary_key, "unique": self.unique,
                "default": self.default, "has_default": self.has_default}

    @classmethod
    def from_spec(cls, spec: dict) -> "Column":
        return cls(spec["name"], DataType(spec["type"]),
                   spec["nullable"], spec["primary_key"], spec["unique"],
                   spec["default"], spec["has_default"])


def fold(name: str) -> str:
    """The key an identifier *name* is known by (see the module)."""
    return name.lower()


class TableSchema:
    """An ordered collection of columns with fast name lookup."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns = list(columns)
        self._positions: dict[str, int] = {}
        for index, column in enumerate(self.columns):
            key = fold(column.name)
            if key in self._positions:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {name!r}")
            self._positions[key] = index
        pk = [c.name for c in self.columns if c.primary_key]
        self.primary_key: tuple[str, ...] = tuple(pk)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return fold(name) in self._positions

    def position_of(self, name: str) -> int:
        try:
            return self._positions[fold(name)]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.data_type}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"


@dataclass
class ResultColumn:
    """A column of a query result: display name plus optional qualifier."""

    name: str
    qualifier: str | None = None
    data_type: DataType | None = None


@dataclass
class RowSchema:
    """The shape of the tuples flowing between executor operators."""

    columns: list[ResultColumn] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.columns)

    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    def position(self, binding: str | None, column: str) -> int | None:
        """The first column whose folded qualifier is *binding* and
        folded name *column* (a bound reference's key), or ``None``."""
        for position, candidate in enumerate(self.columns):
            if fold(candidate.name) == column \
                    and fold(candidate.qualifier or "") == (binding or ""):
                return position
        return None

    def extended(self, other: "RowSchema") -> "RowSchema":
        return RowSchema(self.columns + other.columns)

    @staticmethod
    def for_table(schema: TableSchema, alias: str | None = None) -> "RowSchema":
        qualifier = alias or schema.name
        return RowSchema([
            ResultColumn(column.name, qualifier, column.data_type)
            for column in schema.columns
        ])
