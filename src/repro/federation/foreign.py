"""Foreign data wrappers — the ``postgres_fdw`` stand-in.

The paper integrates the Main Platform and the Semantic Platform's data
sources "by means of RESTful APIs, while the communication between data
sources relies on the postgres_fdw extension".  A
:class:`ForeignTable` makes a remote relation (another in-process
:class:`~repro.relational.engine.Database`, a CSV file, a REST endpoint
or any row callable) appear as a local table of the catalog: scans
delegate to the remote source at query time (``live`` mode) or read a
materialised copy (``snapshot`` mode).

An optional per-scan latency simulates the network hop so federation
benchmarks (E7) measure a realistic remote penalty.
"""

from __future__ import annotations

import csv
import io
import time
from typing import Callable, Iterable, Iterator

from ..relational.catalog import check_table_name
from ..relational.csv_io import parse_cell
from ..relational.engine import Database
from ..relational.schema import TableSchema
from ..relational.table import table_from_columns, table_from_rows
from ..relational.types import coerce_value
from .errors import ForeignTableError


class ForeignSource:
    """A remote relation: schema plus a row supplier."""

    def schema(self) -> TableSchema:
        raise NotImplementedError

    def rows(self) -> Iterable[tuple]:
        raise NotImplementedError


class RemoteTableSource(ForeignSource):
    """A table living in another Database instance (the fdw analogue)."""

    def __init__(self, database: Database, table_name: str) -> None:
        self.database = database
        self.table_name = table_name

    def schema(self) -> TableSchema:
        return self.database.table(self.table_name).schema

    def rows(self) -> Iterable[tuple]:
        return self.database.table(self.table_name).rows()


class QuerySource(ForeignSource):
    """A remote *query* exposed as a relation (a remote view)."""

    def __init__(self, database: Database, sql: str,
                 name: str = "remote_view") -> None:
        self.database = database
        self.sql = sql
        self.name = name
        self._schema: TableSchema | None = None

    def schema(self) -> TableSchema:
        # Deriving the schema needs a full remote execution (column
        # types come from the data), so it is computed once and cached:
        # attaching the view must not cost an extra remote round-trip
        # on every schema consultation.
        if self._schema is None:
            result = self.database.query(self.sql)
            self._schema = table_from_columns(
                self.name, result.columns, result.cols).schema
        return self._schema

    def rows(self) -> Iterable[tuple]:
        return self.database.query(self.sql).rows


class CsvSource(ForeignSource):
    """CSV text/file as a relation; types inferred from the data."""

    def __init__(self, text: str, name: str = "csv") -> None:
        self.name = name
        #: Original CSV text, kept so a durability descriptor can
        #: rebuild this source verbatim at recovery.
        self.text = text
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ForeignTableError("CSV source has no header row")
        raw_rows = [row for row in reader if row]
        parsed: list[tuple] = []
        for raw in raw_rows:
            if len(raw) != len(header):
                raise ForeignTableError(
                    f"CSV row has {len(raw)} fields, expected {len(header)}")
            parsed.append(tuple(parse_cell(value) for value in raw))
        self._header = header
        self._rows = parsed

    def schema(self) -> TableSchema:
        return table_from_rows(self.name, self._header, self._rows).schema

    def rows(self) -> Iterable[tuple]:
        return list(self._rows)


class CallableSource(ForeignSource):
    """Rows supplied by a callable (e.g. wrapping a REST endpoint)."""

    def __init__(self, schema: TableSchema,
                 supplier: Callable[[], Iterable[tuple]]) -> None:
        self._schema = schema
        self._supplier = supplier

    def schema(self) -> TableSchema:
        return self._schema

    def rows(self) -> Iterable[tuple]:
        return self._supplier()


class ForeignTable:
    """A read-only catalog entry backed by a ForeignSource.

    Duck-types the parts of :class:`~repro.relational.table.Table` the
    read path uses; every mutation raises.
    """

    def __init__(self, name: str, source: ForeignSource,
                 mode: str = "live", latency_s: float = 0.0) -> None:
        if mode not in ("live", "snapshot"):
            raise ForeignTableError(f"unknown foreign mode {mode!r}")
        remote_schema = source.schema()
        self.schema = TableSchema(name, list(remote_schema.columns))
        self.source = source
        self.mode = mode
        self.latency_s = latency_s
        self.indexes: dict = {}
        self.scan_count = 0
        self._snapshot: list[tuple] | None = None
        if mode == "snapshot":
            self._snapshot = [self._coerce(row) for row in source.rows()]

    @property
    def name(self) -> str:
        return self.schema.name

    def _coerce(self, row: tuple) -> tuple:
        return tuple(
            coerce_value(value, column.data_type)
            for value, column in zip(row, self.schema.columns))

    def rows(self) -> Iterator[tuple]:
        # Snapshot scans read the local copy: like __len__, they are
        # not remote hits and charge no latency or scan_count.
        if self._snapshot is not None:
            return iter(list(self._snapshot))
        self.scan_count += 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        return iter([self._coerce(row) for row in self.source.rows()])

    def refresh(self) -> None:
        """Re-pull the snapshot (no-op in live mode)."""
        if self.mode == "snapshot":
            self._snapshot = [self._coerce(row)
                              for row in self.source.rows()]

    def __len__(self) -> int:
        # In snapshot mode the count is served from the local copy —
        # no remote hop, no accounting.  In live mode a cardinality
        # probe is a real remote query, so it pays the same latency
        # and scan_count bookkeeping as rows(): probes must not
        # re-execute remote sources invisibly.
        if self._snapshot is not None:
            return len(self._snapshot)
        self.scan_count += 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        return sum(1 for _row in self.source.rows())

    # -- read-only guard rails ------------------------------------------------

    def _read_only(self, *args, **kwargs):
        raise ForeignTableError(
            f"foreign table {self.name!r} is read-only")

    # UPDATE/DELETE scan via rows_with_ids before mutating, so guard it too.
    rows_with_ids = _read_only
    insert_row = _read_only
    append_rows = _read_only
    update_row = _read_only
    delete_row = _read_only
    truncate = _read_only
    create_index = _read_only
    drop_index = _read_only


def describe_source(source: ForeignSource) -> dict:
    """A JSON-able descriptor of a foreign source for the WAL.

    Only CSV sources embed their data (the text is self-contained);
    remote/query/callable sources record their identity and are
    re-resolved by the caller at recovery — a replay must never re-run
    a remote fetch as if it were local history.
    """
    if isinstance(source, CsvSource):
        return {"kind": "csv", "name": source.name, "text": source.text}
    if isinstance(source, QuerySource):
        return {"kind": "query", "name": source.name, "sql": source.sql}
    if isinstance(source, RemoteTableSource):
        return {"kind": "remote", "table": source.table_name}
    return {"kind": "callable"}


def attach_foreign_table(db: Database, name: str, source: ForeignSource,
                         mode: str = "live",
                         latency_s: float = 0.0) -> ForeignTable:
    """Register a foreign table in *db*'s catalog under *name*."""
    check_table_name(name)
    table = ForeignTable(name, source, mode, latency_s)
    with db.rwlock.write_locked():
        db.catalog.register_table(table)  # duck-typed Table
        # DDL: queries can now observe new data.  Recorded as a
        # descriptor, not a data mutation: recovery re-attaches (CSV
        # text inline, remote sources through the caller-supplied
        # resolver) instead of replaying fetches.
        db.commit_write("attach_foreign", lambda: {
            "name": name, "mode": mode, "latency_s": latency_s,
            "source": describe_source(source)})
    return table
