"""Name scopes for the query analyzer.

The executor resolves column references innermost-out over a list of
:class:`~repro.relational.schema.RowSchema` scopes
(:func:`repro.relational.compiler.resolve_column`); this module mirrors
that resolution without compiling anything, and adds the one thing a
*static* pass needs that the executor does not: an **open** scope.  A
scope is open when the analyzer cannot enumerate its columns — the FROM
item names a table that is not in the catalog (already reported as
``E-UNKNOWN-TABLE``), or a derived table whose own analysis was
inconclusive.  Resolution against a chain containing an open scope
never *fails*: a name we cannot find might well live in the table we
cannot see, and the analyzer must not invent errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ScopeColumn:
    """One visible column: display name, binding qualifier, family."""

    name: str
    qualifier: str | None = None
    family: str | None = None

    def matches(self, name: str, qualifier: str | None) -> bool:
        # Mirrors ResultColumn.matches exactly.
        if name.lower() != self.name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()


@dataclass
class Scope:
    """The columns one nesting level makes visible."""

    columns: list[ScopeColumn] = field(default_factory=list)
    #: True when the scope may contain columns we cannot enumerate.
    open: bool = False

    def find(self, name: str, qualifier: str | None) -> list[int]:
        return [i for i, column in enumerate(self.columns)
                if column.matches(name, qualifier)]

    def bindings(self) -> set[str]:
        return {(column.qualifier or "").lower()
                for column in self.columns if column.qualifier}


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one column reference."""

    status: str                 # "ok" | "unknown" | "ambiguous" | "open"
    family: str | None = None


def resolve(ref, scopes: list[Scope]) -> Resolution:
    """Mirror ``resolve_column``: innermost-out, ambiguity per level.

    With an open scope anywhere in the chain, a failed lookup returns
    ``open`` (no finding) — the missing name may belong to the table the
    analyzer cannot see, and the executor will have rejected the unknown
    table itself already.
    """
    any_open = any(scope.open for scope in scopes)
    for depth in range(len(scopes) - 1, -1, -1):
        matches = scopes[depth].find(ref.name, ref.qualifier)
        if len(matches) > 1:
            if any_open:
                return Resolution("open")
            return Resolution("ambiguous")
        if matches:
            return Resolution("ok",
                              scopes[depth].columns[matches[0]].family)
    if any_open:
        return Resolution("open")
    return Resolution("unknown")
