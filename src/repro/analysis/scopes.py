"""Name scopes for the query analyzer.

A scope is the executor's own :class:`~repro.relational.schema.RowSchema`
and a reference resolves through the executor's own
:func:`~repro.relational.compiler.resolve_column` (the reference rule of
:mod:`repro.relational.schema`).  The one thing a *static* pass adds is
an **open** scope.  A scope is open when the analyzer cannot enumerate
its columns — the FROM item names a table that is not in the catalog
(already reported as ``E-UNKNOWN-TABLE``), or a derived table whose own
analysis was inconclusive.  Resolution against a chain containing an
open scope never *fails*: a name we cannot find might well live in the
table we cannot see, and the analyzer must not invent errors.

A column's ``data_type`` is what the analyzer knows of its family: a
table column's type, or for a derived column the type standing for the
family it infers (``None``: unknown).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational.compiler import resolve_column
from ..relational.errors import AmbiguousColumnError, UnknownColumnError
from ..relational.schema import RowSchema
from ..relational.types import FAMILY, DataType

#: The type standing for each family.
_TYPE_OF = {family: data_type for data_type, family in FAMILY.items()}


def family_type(family: str | None) -> DataType | None:
    """The type a derived column of *family* is carried as."""
    return _TYPE_OF.get(family)


@dataclass
class Scope(RowSchema):
    """The columns one nesting level makes visible."""

    #: True when the scope may contain columns we cannot enumerate.
    open: bool = False


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one column reference."""

    status: str                 # "ok" | "unknown" | "ambiguous" | "open"
    family: str | None = None


def resolve(ref, scopes: list[Scope]) -> Resolution:
    """``resolve_column`` over *scopes*, its failure as a status.

    With an open scope anywhere in the chain, a failed lookup returns
    ``open`` (no finding) — the missing name may belong to the table the
    analyzer cannot see, and the executor will have rejected the unknown
    table itself already.
    """
    try:
        depth, position = resolve_column(ref, scopes)
    except AmbiguousColumnError:
        status = "ambiguous"
    except UnknownColumnError:
        status = "unknown"
    else:
        return Resolution(
            "ok", FAMILY.get(scopes[depth].columns[position].data_type))
    return Resolution("open" if any(scope.open for scope in scopes)
                      else status)
