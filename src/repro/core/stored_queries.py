"""Registry of stored SPARQL queries.

Example 4.5 of the paper passes ``dangerQuery`` as the *property*
argument of REPLACECONSTANT: a name that "refers to a SPARQL query which
extracts from the contextual ontology the list of dangerous elements".
The SQM resolves property arguments against this registry first; on a
miss it synthesises the plain property-extraction query.

A registry may have a *parent*: ``get`` / ``in`` fall through to it on
a miss, live, so a platform user's registry (parent = the platform-wide
one) shadows a global name with her own and sees a global registration
the moment it happens.  ``names()`` lists the registry's own level
only — that is what snapshots and state digests serialise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sparql.ast import SelectQuery
from ..sparql.parser import parse_sparql
from .errors import StoredQueryError


@dataclass
class StoredQuery:
    name: str
    text: str
    description: str = ""
    #: Parsed form; ``None`` only for hand-built instances — every query
    #: that goes through :meth:`StoredQueryRegistry.register` has it set.
    query: SelectQuery | None = field(default=None, repr=False)


class StoredQueryRegistry:
    """Named SPARQL SELECT queries usable as enrichment properties."""

    def __init__(self, parent: StoredQueryRegistry | None = None) -> None:
        self._queries: dict[str, StoredQuery] = {}
        self._parent = parent

    def register(self, name: str, text: str,
                 description: str = "") -> StoredQuery:
        try:
            parsed = parse_sparql(text)
        except Exception as exc:
            raise StoredQueryError(
                f"stored query {name!r} does not parse: {exc}") from exc
        if not isinstance(parsed, SelectQuery):
            raise StoredQueryError(
                f"stored query {name!r} must be a SELECT query")
        stored = StoredQuery(name, text, description, parsed)
        self._queries[name] = stored
        return stored

    def unregister(self, name: str) -> None:
        if name not in self._queries:
            raise StoredQueryError(f"no stored query named {name!r}")
        del self._queries[name]

    def get(self, name: str) -> StoredQuery | None:
        stored = self._queries.get(name)
        if stored is None and self._parent is not None:
            return self._parent.get(name)
        return stored

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def names(self) -> list[str]:
        """The names registered at this level (the parent's excluded)."""
        return sorted(self._queries)
