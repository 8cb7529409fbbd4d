"""CSV import/export for databank tables.

The SmartGround platform collects landfill data from partner
institutions; CSV is the exchange format such databanks actually move.
``load_csv`` creates (or appends to) a table from CSV text with type
inference; ``dump_csv`` writes any query result or table back out.
"""

from __future__ import annotations

import csv
import io
from typing import Any

from .engine import Database
from .errors import RelationalError
from .result import ResultSet
from .schema import Column
from .table import infer_column_type
from .types import DataType


def _infer_value(text: str) -> Any:
    """Type inference for one non-NULL cell (int > float > bool > text)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_cell(text: str) -> Any:
    """One CSV cell as a value: empty = NULL, else int > float > bool >
    text (shared with the foreign-table CSV source)."""
    if text == "":
        return None
    return _infer_value(text)


def _check_null_marker(null_marker: str | None) -> None:
    if null_marker is not None and (not null_marker
                                    or not null_marker.startswith("\\")):
        raise RelationalError(
            f"null_marker must start with a backslash, got "
            f"{null_marker!r}")


def _decode_cell(cell: str, null_marker: str | None) -> str | None:
    """Undo NULL marking/escaping; returns the raw text or None.

    Without a marker the legacy convention applies (empty cell = NULL,
    so an empty *string* is indistinguishable from NULL — the reason
    snapshots always pass one).  With a marker, NULL is exactly the
    marker, a leading backslash is an escape, and the empty string
    round-trips as itself.
    """
    if null_marker is None:
        return None if cell == "" else cell
    if cell == null_marker:
        return None
    if cell.startswith("\\"):
        return cell[1:]
    return cell


def _typed_value(text: str, data_type: DataType | None) -> Any:
    """Parse a non-NULL cell against a known column type.

    TEXT keeps the raw characters — ``"1.00"`` in a TEXT column must
    not silently become ``1.0`` — and numeric parses fall back to
    inference (schema coercion then reports any real mismatch).
    """
    if data_type is DataType.TEXT:
        return text
    try:
        if data_type is DataType.INTEGER:
            return int(text)
        if data_type is DataType.REAL:
            return float(text)
    except ValueError:
        return _infer_value(text)
    if data_type is DataType.BOOLEAN and text.lower() in ("true", "false"):
        return text.lower() == "true"
    return _infer_value(text)


def load_csv(db: Database, table_name: str, text: str,
             create: bool = True, *,
             null_marker: str | None = None) -> int:
    """Load CSV text (header row required) into *table_name*.

    With ``create=True`` the table is created with inferred column
    types; otherwise rows append to the existing table — parsed against
    its **declared** column types, so a TEXT cell that merely looks
    numeric (``"1.00"``) is not silently widened to ``1.0``.

    *null_marker* (e.g. ``"\\\\N"``) distinguishes NULL from the empty
    string: NULL dumps as the marker, a string cell starting with a
    backslash is escaped with one more, and the empty string
    round-trips as itself.  Without it the legacy convention applies
    (empty cell = NULL).  Returns the number of rows inserted.
    """
    _check_null_marker(null_marker)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise RelationalError("CSV input has no header row") from None
    types: list[DataType | None] | None = None
    if not create and db.catalog.has_table(table_name):
        schema = db.table(table_name).schema
        types = [schema.column(name).data_type
                 if schema.has_column(name) else None
                 for name in header]
    rows: list[list[Any]] = []
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise RelationalError(
                f"CSV row has {len(raw)} fields, expected {len(header)}")
        row: list[Any] = []
        for index, cell in enumerate(raw):
            decoded = _decode_cell(cell, null_marker)
            if decoded is None:
                row.append(None)
            elif types is not None:
                row.append(_typed_value(decoded, types[index]))
            else:
                row.append(_infer_value(decoded))
        rows.append(row)
    if create:
        db.create_table(table_name, [
            Column(name, infer_column_type(row[index] for row in rows))
            for index, name in enumerate(header)])
    # Through the bulk helper: write-locked, stats maintained, and the
    # mutation generation bumped so fragment caches see the append.
    return db.insert_rows(
        table_name, (dict(zip(header, row)) for row in rows))


def _format_cell(value: Any, null_marker: str | None = None) -> str:
    if value is None:
        return null_marker if null_marker is not None else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if null_marker is not None and isinstance(value, str) \
            and value.startswith("\\"):
        return "\\" + value
    return str(value)


class _SafeWriter:
    """``csv.writer`` with ``\\n`` row endings that still quotes bare
    carriage returns.

    QUOTE_MINIMAL only quotes cells containing the delimiter, the quote
    char or a *lineterminator* character — so with ``\\n`` endings a
    cell holding a lone ``\\r`` is written unquoted, and the reader
    then rejects the row ("new-line character seen in unquoted field").
    Rows with a ``\\r`` anywhere fall back to QUOTE_ALL.
    """

    def __init__(self, buffer: io.StringIO) -> None:
        self._minimal = csv.writer(buffer, lineterminator="\n")
        self._quote_all = csv.writer(buffer, lineterminator="\n",
                                     quoting=csv.QUOTE_ALL)

    def writerow(self, cells: list) -> None:
        writer = self._quote_all if any(
            isinstance(cell, str) and "\r" in cell
            for cell in cells) else self._minimal
        writer.writerow(cells)


def dump_csv(source: Database | ResultSet,
             table_or_sql: str | None = None, *,
             null_marker: str | None = None) -> str:
    """Serialize a table, a query, or a ResultSet to CSV text.

    With *null_marker* the output distinguishes NULL from the empty
    string (see :func:`load_csv`); snapshots rely on this."""
    _check_null_marker(null_marker)
    if isinstance(source, ResultSet):
        result = source
    else:
        if table_or_sql is None:
            raise RelationalError("dump_csv needs a table name or SQL")
        if table_or_sql.strip().upper().startswith("SELECT"):
            result = source.query(table_or_sql)
        else:
            result = source.query(f"SELECT * FROM {table_or_sql}")
    buffer = io.StringIO()
    writer = _SafeWriter(buffer)
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_format_cell(value, null_marker)
                         for value in row])
    return buffer.getvalue()


def rows_to_csv(columns: list[str], rows, *,
                null_marker: str | None = None) -> str:
    """Serialize raw row tuples (no query surface) — the snapshot codec."""
    _check_null_marker(null_marker)
    buffer = io.StringIO()
    writer = _SafeWriter(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(value, null_marker)
                         for value in row])
    return buffer.getvalue()
