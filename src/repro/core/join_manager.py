"""The JoinManager of Fig. 6: combines relational and ontological partials.

For the four SELECT-affecting enrichments, the base SQL result and the
SPARQL extraction are combined into the enriched result — the paper's
final LEFT JOIN, run as a hash probe over the extraction's SQL side
(:class:`~repro.core.tempdb.SqlExtraction`), whose key set, single-valued
map and buckets are built once per extraction.  :meth:`JoinManager.
prepare` returns the prepared combiner; every drain folds its SELECT
enrichments through it, the whole result at once or a cursor's pages
one after another.  A page is combined by columns: the enrichment
column is one ``map`` over the page's key column, the other columns
are handed on (or gathered by an index vector when a subject has
several objects), and the result's rows are zipped only when read.

The semantics are the final SQL's: one output row per (input row,
matching object) pair, in extraction order, with NULL/false padding
when the knowledge base has nothing to say (so enrichment never drops
rows).  ``tests/test_properties.py`` checks them against stdlib
``sqlite3`` running that SQL.
"""

from __future__ import annotations

from itertools import chain, repeat

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


#: The objects of a base row that no subject matches: one NULL pad.
_NO_MATCH = (None,)


def _key_column(values: list) -> list:
    """A page's key column as the extraction side is hashed: its values
    themselves, or their ``sql_key`` s when a boolean is among them (a
    plain probe would let ``TRUE`` meet ``1``)."""
    return list(map(sql_key, values)) if bool in set(map(type, values)) \
        else values


class _PreparedCombine:
    """What a prepared combiner knows before any page: the attribute it
    reads and the column it adds (or replaces it with), and the layout
    of the last page it folded."""

    def __init__(self, attr: str, new_column: str, replace: bool) -> None:
        self.attr = attr
        self.new_column = new_column
        self.replace = replace
        #: The last page's column names, the attribute's index in them
        #: and the enriched names: a page under the same names (every
        #: page of a cursor) folds no name again.
        self._layout: tuple[list[str], int, list[str]] | None = None

    def _placed(self, base_columns: list[str]) -> tuple[list[str], int,
                                                        list[str]]:
        layout = self._layout
        if layout is None or layout[0] != base_columns:
            attr_index = find_attr_index(base_columns, self.attr)
            layout = self._layout = (
                list(base_columns), attr_index,
                output_columns(base_columns, attr_index, self.new_column,
                               self.replace))
        return layout

    def columns(self, base_columns: list[str]) -> list[str]:
        """The enriched column list over *base_columns*, or an
        :class:`EnrichmentError` when the attribute is not among them —
        what ``combine`` of an empty page would answer."""
        return list(self._placed(base_columns)[2])

    def _enriched(self, cols: list[list], column: list,
                  columns: list[str], attr_index: int) -> ResultSet:
        """*cols* with *column* in the attribute's place or after them,
        as a column-form result: its rows are zipped when read."""
        cols = list(cols)
        if self.replace:
            cols[attr_index] = column
        else:
            cols.append(column)
        return ResultSet(columns, cols=cols, length=len(column))


class PreparedPairCombine(_PreparedCombine):
    """SCHEMAEXTENSION / SCHEMAREPLACEMENT combine state.

    A page is combined by columns: when every subject has one object
    (:attr:`SqlExtraction.single <repro.core.tempdb.SqlExtraction.
    single>`, built once per extraction) the enrichment column is one
    ``map`` over the page's key column.  Otherwise each base row is
    repeated once per matching object (:attr:`SqlExtraction.buckets
    <repro.core.tempdb.SqlExtraction.buckets>`) by an index vector that
    gathers every column.  Row semantics (and match order) are the
    final SQL's LEFT JOIN; ``combine(page)`` applies to any number of
    base pages, so a cursor builds nothing per page.
    """

    def __init__(self, attr: str, new_column: str, replace: bool,
                 single: dict[object, object] | None,
                 buckets: dict[object, list[object]] | None) -> None:
        super().__init__(attr, new_column, replace)
        self.single = single
        self.buckets = buckets

    def combine(self, base: ResultSet) -> ResultSet:
        _names, attr_index, columns = self._placed(base.columns)
        cols = base.cols
        keys = _key_column(cols[attr_index])
        if self.single is not None:
            return self._enriched(cols, list(map(self.single.get, keys)),
                                  columns, attr_index)
        found = list(map(self.buckets.get, keys, repeat(_NO_MATCH)))
        at = list(chain.from_iterable(
            map(repeat, range(len(found)), map(len, found))))
        return self._enriched(
            [list(map(column.__getitem__, at)) for column in cols],
            list(chain.from_iterable(found)), columns, attr_index)


class PreparedFlagCombine(_PreparedCombine):
    """BOOLSCHEMAEXTENSION / -REPLACEMENT combine state: the
    extraction's key set, built once per extraction, against which a
    page's key column is flagged by columns (one ``map``)."""

    def __init__(self, attr: str, new_column: str, replace: bool,
                 keys: set) -> None:
        super().__init__(attr, new_column, replace)
        self.keys = keys

    def combine(self, base: ResultSet) -> ResultSet:
        _names, attr_index, columns = self._placed(base.columns)
        cols = base.cols
        flags = list(map(self.keys.__contains__,
                         _key_column(cols[attr_index])))
        return self._enriched(cols, flags, columns, attr_index)


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
            sql = extraction.sql(self.mapping)
            single = sql.single
            return PreparedPairCombine(
                enrichment.attr, self._new_column_for(enrichment),
                isinstance(enrichment, SchemaReplacement), single,
                sql.buckets if single is None else None)
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
