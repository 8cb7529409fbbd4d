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
from typing import Any, Sequence

from ..relational.engine import Database
from ..relational.result import ResultSet

_counter = itertools.count()


@dataclass
class TempTable:
    """A materialised temporary table."""

    name: str
    display_columns: list[str]
    internal_columns: list[str]


def materialize(db: Database, name_hint: str, display_columns: Sequence[str],
                rows: Sequence[tuple] | ResultSet) -> TempTable:
    """Create a temp table in *db* holding *rows* — a row list, or a
    result, loaded in the form it has; returns its handle.

    Built in one bulk load and published via ``create_temp_table`` — a
    lock-free namespace operation — so enriched reads never contend on
    (or deadlock against) the databank's writer lock.
    """
    name = f"__sesql_{name_hint}_{next(_counter)}"
    internal = [f"c{i}" for i in range(len(display_columns))]
    db.create_temp_table(name, rows.renamed(internal)
                         if isinstance(rows, ResultSet)
                         else ResultSet(internal, rows))
    return TempTable(name, list(display_columns), internal)


class TemporarySupportDatabase:
    """A scratch relational database for the Fig. 6 combine step."""

    def __init__(self) -> None:
        self.db = Database("tempdb")
        self._tables: list[str] = []

    def store_result(self, display_columns: Sequence[str],
                     rows: Sequence[tuple] | ResultSet,
                     hint: str = "base") -> TempTable:
        table = materialize(self.db, hint, display_columns, rows)
        self._tables.append(table.name)
        return table

    def store_pairs(self, pairs: Sequence[tuple[Any, Any]],
                    hint: str = "map") -> TempTable:
        return self.store_result(["subject", "object"], pairs, hint)

    def store_values(self, values: Sequence[Any],
                     hint: str = "vals") -> TempTable:
        return self.store_result(
            ["value"], [(value,) for value in values], hint)

    def cleanup(self) -> None:
        for name in self._tables:
            self.db.catalog.drop_table(name, if_exists=True)
        self._tables.clear()
