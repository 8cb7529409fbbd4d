"""The temporary support database of Fig. 6.

Partial results (the base SQL result and the SPARQL extraction) are
materialised as temporary tables on which the final SQL query runs.
Column *display* names are kept separate from the internal storage
names (``c0``, ``c1``, ...) so duplicate output names — legal in SQL
results — never collide in the temp schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..relational.engine import Database
from ..relational.schema import Column
from ..relational.types import DataType

_counter = itertools.count()


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Pick the narrowest DataType that holds every non-NULL value."""
    saw_int = saw_float = saw_bool = saw_text = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        else:
            saw_text = True
    if saw_text:
        return DataType.TEXT
    if saw_bool and not (saw_int or saw_float):
        return DataType.BOOLEAN
    if saw_float:
        return DataType.REAL
    if saw_int or saw_bool:
        return DataType.INTEGER
    return DataType.TEXT


@dataclass
class TempTable:
    """A materialised temporary table."""

    name: str
    display_columns: list[str]
    internal_columns: list[str]


def materialize(db: Database, name_hint: str, display_columns: Sequence[str],
                rows: Sequence[tuple]) -> TempTable:
    """Create a temp table in *db* holding *rows*; returns its handle.

    Injected via ``create_temp_table`` — a lock-free namespace
    operation — so enriched reads never contend on (or deadlock
    against) the databank's writer lock.
    """
    name = f"__sesql_{name_hint}_{next(_counter)}"
    internal = [f"c{i}" for i in range(len(display_columns))]
    columns = []
    for index, internal_name in enumerate(internal):
        values = (row[index] for row in rows)
        columns.append(Column(internal_name, infer_column_type(values)))
    table = db.create_temp_table(name, columns)
    for row in rows:
        table.insert_tuple(_coerce_row(row))
    return TempTable(name, list(display_columns), internal)


def _coerce_row(row: tuple) -> tuple:
    """Ensure values fit the engine's storage model (no exotic objects)."""
    coerced = []
    for value in row:
        if value is None or isinstance(value, (bool, int, float, str)):
            coerced.append(value)
        else:
            coerced.append(str(value))
    return tuple(coerced)


class TemporarySupportDatabase:
    """A scratch relational database for the Fig. 6 combine step."""

    def __init__(self) -> None:
        self.db = Database("tempdb")
        self._tables: list[str] = []

    def store_result(self, display_columns: Sequence[str],
                     rows: Sequence[tuple], hint: str = "base") -> TempTable:
        table = materialize(self.db, hint, display_columns, rows)
        self._tables.append(table.name)
        return table

    def store_pairs(self, pairs: Sequence[tuple[Any, Any]],
                    hint: str = "map") -> TempTable:
        table = materialize(self.db, hint, ["subject", "object"], pairs)
        self._tables.append(table.name)
        return table

    def store_values(self, values: Sequence[Any],
                     hint: str = "vals") -> TempTable:
        rows = [(value,) for value in values]
        table = materialize(self.db, hint, ["value"], rows)
        self._tables.append(table.name)
        return table

    def cleanup(self) -> None:
        for name in self._tables:
            self.db.catalog.drop_table(name, if_exists=True)
        self._tables.clear()
