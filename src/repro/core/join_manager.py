"""The JoinManager of Fig. 6: combines relational and ontological partials.

For the four SELECT-affecting enrichments, the base SQL result and the
SPARQL extraction are combined into the enriched result.  Two strategies
are provided:

* ``tempdb`` (paper-faithful): both partials are materialised as
  temporary tables in the temporary support database and a *final SQL
  query* — LEFT JOIN shaped — produces the result.  The generated SQL is
  returned for observability.
* ``direct`` (ablation, used by benchmark E6): a Python-side hash join
  that skips materialisation.

Both strategies implement the same semantics: one output row per
(input row, matching object) pair, with NULL/false padding when the
knowledge base has nothing to say (so enrichment never drops rows).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational import ast as sql_ast
from ..relational.indexes import _normalize
from ..relational.render import render_query
from ..relational.result import ResultSet
from .ast import (BoolSchemaExtension, BoolSchemaReplacement, Enrichment,
                  SchemaExtension, SchemaReplacement)
from .errors import EnrichmentError
from .mapping import ResourceMapping
from .sqm import Extraction
from .tempdb import TemporarySupportDatabase

STRATEGIES = ("tempdb", "direct")


@dataclass
class CombineOutcome:
    result: ResultSet
    final_sql: str | None  # None for the direct strategy


def clean_name(raw: str) -> str:
    """Derive a result-column name from a property/concept argument."""
    for separator in ("#", "/", ":"):
        if separator in raw:
            raw = raw.rsplit(separator, 1)[1]
    return raw or "enriched"


def find_attr_index(columns: list[str], attr: str) -> int:
    """Locate the enrichment attribute in the base result's columns."""
    target = attr.lower()
    matches = [i for i, name in enumerate(columns)
               if name.lower() == target]
    if not matches and "." in target:
        bare = target.rsplit(".", 1)[1]
        matches = [i for i, name in enumerate(columns)
                   if name.lower() == bare]
    if not matches:
        raise EnrichmentError(
            f"enrichment attribute {attr!r} is not in the query result "
            f"(columns: {', '.join(columns)})")
    if len(matches) > 1:
        raise EnrichmentError(
            f"enrichment attribute {attr!r} is ambiguous in the result")
    return matches[0]


def unique_name(existing: list[str], wanted: str) -> str:
    taken = {name.lower() for name in existing}
    if wanted.lower() not in taken:
        return wanted
    suffix = 2
    while f"{wanted}_{suffix}".lower() in taken:
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


class PreparedPairCombine:
    """SCHEMAEXTENSION / SCHEMAREPLACEMENT combine state.

    The extraction-side hash buckets are built once per extraction
    (:attr:`SqlExtraction.buckets <repro.core.tempdb.SqlExtraction.
    buckets>`) and ``combine(page)`` applies them to any number of base
    pages — the streaming pipeline folds an enrichment into every page
    of a cursor without rebuilding the mapping table per page.  Row
    semantics (and match order) are identical to the tempdb final-SQL
    LEFT JOIN.
    """

    def __init__(self, attr: str, new_column: str, replace: bool,
                 buckets: dict[object, list[object]]) -> None:
        self.attr = attr
        self.new_column = new_column
        self.replace = replace
        self.buckets = buckets

    def combine(self, base: ResultSet) -> ResultSet:
        attr_index = find_attr_index(base.columns, self.attr)
        rows: list[tuple] = []
        for row in base.rows:
            key = row[attr_index]
            matches = (self.buckets.get(_normalize(key), [None])
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


class PreparedFlagCombine:
    """BOOLSCHEMAEXTENSION / -REPLACEMENT combine state: the
    extraction's key set, built once per extraction."""

    def __init__(self, attr: str, new_column: str, replace: bool,
                 keys: set) -> None:
        self.attr = attr
        self.new_column = new_column
        self.replace = replace
        self.keys = keys

    def combine(self, base: ResultSet) -> ResultSet:
        attr_index = find_attr_index(base.columns, self.attr)
        rows: list[tuple] = []
        for row in base.rows:
            value = row[attr_index]
            flag = value is not None and _normalize(value) in self.keys
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

    def __init__(self, mapping: ResourceMapping,
                 strategy: str = "tempdb") -> None:
        if strategy not in STRATEGIES:
            raise EnrichmentError(f"unknown join strategy {strategy!r}")
        self.mapping = mapping
        self.strategy = strategy

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
                extraction: Extraction) -> CombineOutcome:
        if self.strategy == "direct":
            prepared = self.prepare(enrichment, extraction)
            return CombineOutcome(prepared.combine(base), None)
        side = extraction.sql(self.mapping)
        if isinstance(enrichment, (SchemaExtension, SchemaReplacement)):
            pairs = side.pairs
            return self._tempdb_join(
                base, enrichment, isinstance(enrichment, SchemaReplacement),
                lambda tempdb: tempdb.store_pairs(pairs),
                sql_ast.ColumnRef("c1", "m"))
        if isinstance(enrichment, (BoolSchemaExtension,
                                   BoolSchemaReplacement)):
            subjects = sorted((subject for subject in side.subjects
                               if subject is not None), key=str)
            return self._tempdb_join(
                base, enrichment,
                isinstance(enrichment, BoolSchemaReplacement),
                lambda tempdb: tempdb.store_values(subjects, hint="flags"),
                sql_ast.IsNull(sql_ast.ColumnRef("c0", "m"), negated=True))
        raise EnrichmentError(
            f"{enrichment.kind} is not a SELECT-clause enrichment")

    # -- tempdb strategy (paper-faithful final SQL) ------------------------------

    def _tempdb_join(self, base: ResultSet, enrichment: Enrichment,
                     replace: bool, store_map,
                     value: sql_ast.Expr) -> CombineOutcome:
        """Both partials as temp tables and the final SQL over them:
        the base ``b`` LEFT JOINed to the extraction's map table ``m``
        (stored by *store_map*) on the enrichment attribute, with
        *value* — an expression over ``m`` — replacing or extending
        that attribute's column."""
        attr_index = find_attr_index(base.columns, enrichment.attr)
        tempdb = TemporarySupportDatabase()
        try:
            t_base = tempdb.store_result(base.columns, base)
            t_map = store_map(tempdb)
            columns = output_columns(base.columns, attr_index,
                                     self._new_column_for(enrichment),
                                     replace)
            items = [sql_ast.SelectItem(
                value if replace and index == attr_index
                else sql_ast.ColumnRef(internal, "b"),
                alias=columns[index])
                for index, internal in enumerate(t_base.internal_columns)]
            if not replace:
                items.append(sql_ast.SelectItem(value, alias=columns[-1]))
            join = sql_ast.Join(
                "LEFT",
                sql_ast.TableRef(t_base.name, "b"),
                sql_ast.TableRef(t_map.name, "m"),
                sql_ast.BinaryOp(
                    "=",
                    sql_ast.ColumnRef(
                        t_base.internal_columns[attr_index], "b"),
                    sql_ast.ColumnRef("c0", "m")))
            query = sql_ast.SelectQuery(
                core=sql_ast.SelectCore(items=items, from_clause=join))
            final_sql = render_query(query)
            result = tempdb.db.execute_ast(query)
            return CombineOutcome(result.renamed(columns), final_sql)
        finally:
            tempdb.cleanup()
