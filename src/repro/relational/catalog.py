"""The catalog: the namespace of tables and indexes inside one database."""

from __future__ import annotations

from .errors import CatalogError, SchemaError
from .schema import TableSchema
from .table import BoundView, Table

#: Names the SESQL engine binds its extractions under, per run: no table
#: may take one (a statement would read the extraction in its place).
RESERVED_PREFIX = "__sesql_"


def check_table_name(name: str) -> None:
    """Refuse a table name under :data:`RESERVED_PREFIX`."""
    if name.lower().startswith(RESERVED_PREFIX):
        raise SchemaError(f"table name {name!r} is reserved: names "
                          f"starting {RESERVED_PREFIX!r} are SESQL's")


class Catalog:
    """Case-insensitive registry of tables (and their indexes)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        #: Moves whenever a table is created, registered or dropped: what
        #: was derived from the namespace (an expanded star, a table's
        #: kind) holds while it stays put.
        self.version = 0

    def create_table(self, schema: TableSchema,
                     if_not_exists: bool = False) -> Table | None:
        check_table_name(schema.name)
        key = schema.name.lower()
        if key in self._tables:
            if if_not_exists:
                return None
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        self.version += 1
        return table

    def register_table(self, table: Table) -> None:
        """Adopt an externally constructed table (used by foreign wrappers)."""
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self.version += 1

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def get(self, name: str) -> Table | None:
        """The table registered under *name*, or ``None``."""
        return self._tables.get(name.lower())

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def table_names(self) -> list[str]:
        # list() first: a single atomic snapshot, safe against a
        # lock-free temp-table registration (a plain comprehension over
        # .values() could observe a resize mid-iteration).
        return [table.name for table in list(self._tables.values())]

    def find_index(self, index_name: str) -> tuple[Table, str] | None:
        for table in list(self._tables.values()):
            if index_name in table.indexes:
                return table, index_name
        return None


class ViewCatalog:
    """A catalog as one run of a statement sees it: the views bound for
    the run (:class:`~repro.relational.table.BoundView`, by lower-cased
    name) in front of the tables — what the planner and the builder
    resolve a statement's names in."""

    def __init__(self, catalog: Catalog,
                 views: dict[str, BoundView]) -> None:
        self.catalog = catalog
        self.views = views

    def has_table(self, name: str) -> bool:
        return name.lower() in self.views or self.catalog.has_table(name)

    def get(self, name: str) -> Table | BoundView | None:
        view = self.views.get(name.lower())
        return view if view is not None else self.catalog.get(name)

    def table(self, name: str) -> Table | BoundView:
        view = self.views.get(name.lower())
        return view if view is not None else self.catalog.table(name)
