"""From-scratch in-memory relational engine (the PostgreSQL stand-in).

Public surface:

* :class:`Database` — SQL front end (``execute``/``query``/``execute_script``)
* :class:`ResultSet` / :class:`Cursor` — query results, each carrying
  the :class:`Operator` tree (``plan``) that produced it
* :func:`parse_sql` / :func:`parse_expr` — SQL parsing (used by SESQL)
* :mod:`~repro.relational.ast` / :mod:`~repro.relational.render` — AST
  construction and SQL rendering for programmatic query building
"""

from .engine import Database, column
from .errors import (AmbiguousColumnError, CatalogError, ConstraintViolation,
                     ExecutionError, NotSupportedError, RelationalError,
                     SchemaError, SqlSyntaxError, TypeMismatchError,
                     UnknownColumnError)
from .operators import Operator
from .parser import parse_expr, parse_script, parse_sql
from .render import render_expr, render_query, render_statement
from .result import Cursor, ResultSet
from .schema import Column, TableSchema
from .types import DataType

__all__ = [
    "Database", "column", "ResultSet", "Cursor", "Operator", "Column",
    "TableSchema", "DataType",
    "parse_sql", "parse_script", "parse_expr",
    "render_expr", "render_query", "render_statement",
    "RelationalError", "SqlSyntaxError", "CatalogError", "SchemaError",
    "AmbiguousColumnError", "UnknownColumnError", "TypeMismatchError",
    "ConstraintViolation", "NotSupportedError", "ExecutionError",
]
