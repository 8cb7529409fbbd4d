"""The JoinManager of Fig. 6: combines relational and ontological partials.

For the four SELECT-affecting enrichments, the base SQL result and the
SPARQL extraction are combined into the enriched result — the paper's
final LEFT JOIN, run as a hash probe over the extraction's SQL side
(:class:`~repro.core.tempdb.SqlExtraction`), whose buckets and key set
are built once per extraction.  :meth:`JoinManager.prepare` returns the
prepared combiner; every drain folds its SELECT enrichments through it,
the whole result at once or a cursor's pages one after another.

The semantics are the final SQL's: one output row per (input row,
matching object) pair, in extraction order, with NULL/false padding
when the knowledge base has nothing to say (so enrichment never drops
rows).  ``tests/test_properties.py`` checks them against stdlib
``sqlite3`` running that SQL.
"""

from __future__ import annotations

from ..relational.result import ResultSet
from ..relational.schema import fold
from ..relational.types import sql_key
from .ast import (BoolSchemaExtension, BoolSchemaReplacement, Enrichment,
                  SchemaExtension, SchemaReplacement)
from .errors import EnrichmentError
from .mapping import ResourceMapping
from .sqm import Extraction


def clean_name(raw: str) -> str:
    """Derive a result-column name from a property/concept argument."""
    for separator in ("#", "/", ":"):
        if separator in raw:
            raw = raw.rsplit(separator, 1)[1]
    return raw or "enriched"


def find_attr_index(columns: list[str], attr: str) -> int:
    """Locate the enrichment attribute in the base result's columns."""
    keys = list(map(fold, columns))
    target = fold(attr)
    matches = [i for i, key in enumerate(keys) if key == target]
    if not matches and "." in target:
        bare = target.rsplit(".", 1)[1]
        matches = [i for i, key in enumerate(keys) if key == bare]
    if not matches:
        raise EnrichmentError(
            f"enrichment attribute {attr!r} is not in the query result "
            f"(columns: {', '.join(columns)})")
    if len(matches) > 1:
        raise EnrichmentError(
            f"enrichment attribute {attr!r} is ambiguous in the result")
    return matches[0]


def unique_name(existing: list[str], wanted: str) -> str:
    taken = set(map(fold, existing))
    if fold(wanted) not in taken:
        return wanted
    suffix = 2
    while fold(f"{wanted}_{suffix}") in taken:
        suffix += 1
    return f"{wanted}_{suffix}"


def output_columns(base_columns: list[str], attr_index: int,
                   new_column: str, replace: bool) -> list[str]:
    """The enriched column list: *new_column* replaces or extends."""
    columns = list(base_columns)
    name = unique_name(columns, new_column)
    if replace:
        columns[attr_index] = name
    else:
        columns.append(name)
    return columns


class _PreparedCombine:
    """What a prepared combiner knows before any page: the attribute it
    reads and the column it adds (or replaces it with)."""

    def __init__(self, attr: str, new_column: str, replace: bool) -> None:
        self.attr = attr
        self.new_column = new_column
        self.replace = replace

    def columns(self, base_columns: list[str]) -> list[str]:
        """The enriched column list over *base_columns*, or an
        :class:`EnrichmentError` when the attribute is not among them —
        what ``combine`` of an empty page would answer."""
        return output_columns(base_columns,
                              find_attr_index(base_columns, self.attr),
                              self.new_column, self.replace)


class PreparedPairCombine(_PreparedCombine):
    """SCHEMAEXTENSION / SCHEMAREPLACEMENT combine state.

    The extraction-side hash buckets are built once per extraction
    (:attr:`SqlExtraction.buckets <repro.core.tempdb.SqlExtraction.
    buckets>`) and ``combine(page)`` applies them to any number of base
    pages — the streaming pipeline folds an enrichment into every page
    of a cursor without rebuilding the mapping table per page.  Row
    semantics (and match order) are the final SQL's LEFT JOIN.
    """

    def __init__(self, attr: str, new_column: str, replace: bool,
                 buckets: dict[object, list[object]]) -> None:
        super().__init__(attr, new_column, replace)
        self.buckets = buckets

    def combine(self, base: ResultSet) -> ResultSet:
        attr_index = find_attr_index(base.columns, self.attr)
        rows: list[tuple] = []
        for row in base.rows:
            key = row[attr_index]
            matches = (self.buckets.get(sql_key(key), [None])
                       if key is not None else [None])
            for obj in matches:
                if self.replace:
                    rows.append(row[:attr_index] + (obj,)
                                + row[attr_index + 1:])
                else:
                    rows.append(row + (obj,))
        return ResultSet(output_columns(base.columns, attr_index,
                                        self.new_column, self.replace),
                         rows)


class PreparedFlagCombine(_PreparedCombine):
    """BOOLSCHEMAEXTENSION / -REPLACEMENT combine state: the
    extraction's key set, built once per extraction."""

    def __init__(self, attr: str, new_column: str, replace: bool,
                 keys: set) -> None:
        super().__init__(attr, new_column, replace)
        self.keys = keys

    def combine(self, base: ResultSet) -> ResultSet:
        attr_index = find_attr_index(base.columns, self.attr)
        rows: list[tuple] = []
        for row in base.rows:
            value = row[attr_index]
            flag = value is not None and sql_key(value) in self.keys
            if self.replace:
                rows.append(row[:attr_index] + (flag,)
                            + row[attr_index + 1:])
            else:
                rows.append(row + (flag,))
        return ResultSet(output_columns(base.columns, attr_index,
                                        self.new_column, self.replace),
                         rows)


class JoinManager:
    """Combines base results with extractions per enrichment clause."""

    def __init__(self, mapping: ResourceMapping) -> None:
        self.mapping = mapping

    @staticmethod
    def _new_column_for(enrichment: Enrichment) -> str:
        if isinstance(enrichment, (BoolSchemaExtension,
                                   BoolSchemaReplacement)):
            return (f"{clean_name(enrichment.prop)}_"
                    f"{clean_name(enrichment.concept)}")
        return clean_name(enrichment.prop)

    # -- public API ----------------------------------------------------------

    def prepare(self, enrichment: Enrichment, extraction: Extraction):
        """A prepared combiner whose ``combine(page)`` folds the
        enrichment into any number of base pages, over the extraction's
        SQL side — converted and hashed once per extraction, so a
        cursor over a cached extraction builds nothing."""
        if isinstance(enrichment, (SchemaExtension, SchemaReplacement)):
            return PreparedPairCombine(
                enrichment.attr, self._new_column_for(enrichment),
                isinstance(enrichment, SchemaReplacement),
                extraction.sql(self.mapping).buckets)
        if isinstance(enrichment, (BoolSchemaExtension,
                                   BoolSchemaReplacement)):
            return PreparedFlagCombine(
                enrichment.attr, self._new_column_for(enrichment),
                isinstance(enrichment, BoolSchemaReplacement),
                extraction.sql(self.mapping).keys)
        raise EnrichmentError(
            f"{enrichment.kind} is not a SELECT-clause enrichment")

    def combine(self, base: ResultSet, enrichment: Enrichment,
                extraction: Extraction) -> ResultSet:
        """*base* with one enrichment folded in."""
        return self.prepare(enrichment, extraction).combine(base)
