"""The Semantic Query Parser (SQP) of Fig. 6.

Given a SESQL query, the SQP identifies its two subcomponents — the SQL
query to be enriched and the enrichment specification — producing an
:class:`~repro.core.ast.EnrichedQuery` that carries the cleaned SQL, its
AST, the parsed enrichment syntax tree and the tagged conditions.

DB-API-style ``?`` placeholders in the SQL part parse to ``Param`` nodes
numbered in text order (tagged conditions included), so a prepared
template is parsed once and bound per execution by
:meth:`repro.api.PreparedQuery.bind`; a ``?`` in the ENRICH clause is a
syntax error.
"""

from __future__ import annotations

from ..relational import ast as sql_ast
from ..relational.parser import SqlParser
from .ast import EnrichedQuery, ReplaceConstant, ReplaceVariable
from .condtags import scan_condition_tags
from .errors import EnrichmentError, SesqlSyntaxError
from .parser import parse_enrichments, split_sesql


class SemanticQueryParser:
    """Splits, cleans and parses SESQL text."""

    def parse(self, text: str) -> EnrichedQuery:
        sql_part, enrich_part = split_sesql(text)
        scan = scan_condition_tags(sql_part)
        parser = SqlParser(scan.clean_text, first_param=0)
        try:
            statement = parser.parse_statement()
        except Exception as exc:
            raise SesqlSyntaxError(
                f"SQL part of SESQL query does not parse: {exc}") from exc
        if not isinstance(statement, sql_ast.SelectQuery):
            raise SesqlSyntaxError(
                "the SQL part of a SESQL query must be a SELECT")
        enrichments = []
        if enrich_part is not None:
            enrichments = parse_enrichments(
                enrich_part, set(scan.conditions))
        enriched = EnrichedQuery(
            sql_text=scan.clean_text.strip(),
            query=statement,
            enrichments=enrichments,
            conditions=scan.conditions,
            parameter_count=parser.next_param,
        )
        self._validate(enriched)
        return enriched

    @staticmethod
    def _validate(enriched: EnrichedQuery) -> None:
        for enrichment in enriched.enrichments:
            if isinstance(enrichment, (ReplaceConstant, ReplaceVariable)):
                if enrichment.cond not in enriched.conditions:
                    known = ", ".join(sorted(enriched.conditions)) or "none"
                    raise EnrichmentError(
                        f"{enrichment.kind} references unknown condition "
                        f"{enrichment.cond!r} (tagged: {known})")
        if enriched.conditions and enriched.query.is_compound:
            raise EnrichmentError(
                "tagged conditions are not supported in compound "
                "(UNION/INTERSECT/EXCEPT) queries")


def parse_sesql(text: str) -> EnrichedQuery:
    """Module-level convenience wrapper."""
    return SemanticQueryParser().parse(text)
