"""The Semantic Query Parser (SQP) of Fig. 6.

Given a SESQL query, the SQP identifies its two subcomponents — the SQL
query to be enriched and the enrichment specification — producing an
:class:`~repro.core.ast.EnrichedQuery` that carries the cleaned SQL, its
AST, the parsed enrichment syntax tree and the tagged conditions.

The module also hosts the prepared-query machinery of the session API
(:mod:`repro.api`): ``expand_placeholders`` turns DB-API-style ``?``
markers into sentinel string literals so the template parses once, and
``bind_parameters`` substitutes typed values directly into a copy of the
parsed AST — values never travel through SQL text, so binding is
injection-safe by construction.
"""

from __future__ import annotations

import copy
import re

from ..relational import ast as sql_ast
from ..relational.render import render_query
from ..relational.parser import parse_sql
from .ast import EnrichedQuery, ReplaceConstant, ReplaceVariable
from .condtags import scan_condition_tags
from .errors import EnrichmentError, ParameterError, SesqlSyntaxError
from .parser import parse_enrichments, sesql_spans, split_sesql


class SemanticQueryParser:
    """Splits, cleans and parses SESQL text."""

    def parse(self, text: str) -> EnrichedQuery:
        sql_part, enrich_part = split_sesql(text)
        scan = scan_condition_tags(sql_part)
        try:
            statement = parse_sql(scan.clean_text)
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


# ---------------------------------------------------------------------------
# Prepared-query support: ``?`` placeholders and typed parameter binding
# ---------------------------------------------------------------------------

#: Sentinel literal standing in for the i-th ``?`` in a prepared template.
_PARAM_SENTINEL = "__sesql_param_{index}__"
_PARAM_RE = re.compile(r"\A__sesql_param_(\d+)__\Z")
_PARAM_PREFIX = "__sesql_param_"

#: Python types a parameter may carry (preserved end to end).
_BINDABLE = (bool, int, float, str)


def expand_placeholders(text: str) -> tuple[str, int]:
    """Replace each ``?`` outside string literals, quoted identifiers and
    comments with a sentinel literal.

    Returns the rewritten text and the number of placeholders found.
    The sentinel parses as an ordinary string literal, so the template
    goes through the unchanged SQP/condition-tag pipeline exactly once;
    ``bind_parameters`` later swaps the sentinels for typed values at
    the AST level.

    The sentinel namespace is reserved: query text that already spells
    it out is rejected, so a sentinel literal in a template can only
    ever originate from a ``?`` — user data can never be mistaken for
    a parameter slot.
    """
    if _PARAM_PREFIX in text:
        raise ParameterError(
            f"query text contains the reserved prepared-parameter "
            f"sentinel {_PARAM_PREFIX!r}; use ? placeholders instead")
    pieces: list[str] = []
    copied = 0                      # text[:copied] is already in pieces
    count = 0
    for kind, value, start, end in sesql_spans(text):
        if kind == "MARK" and value == "?":
            pieces += (text[copied:start],
                       "'" + _PARAM_SENTINEL.format(index=count) + "'")
            copied = end
            count += 1
    pieces.append(text[copied:])
    return "".join(pieces), count


def clone_enriched(enriched: EnrichedQuery) -> EnrichedQuery:
    """A deep copy safe to mutate during one execution.

    The engine rewrites the query AST in place (WHERE enrichment), so a
    cached/prepared template must never be executed directly.
    """
    return copy.deepcopy(enriched)


def _sentinel_literals(enriched: EnrichedQuery):
    """Yield every sentinel Literal in the query AST and condition trees."""
    roots = list(sql_ast.iter_query_nodes(enriched.query))
    for condition in enriched.conditions.values():
        roots.extend(sql_ast.iter_expr_nodes(condition.expr))
    for node in roots:
        if isinstance(node, sql_ast.Literal) and isinstance(node.value, str):
            match = _PARAM_RE.match(node.value)
            if match is not None:
                yield int(match.group(1)), node


def bind_parameters(enriched: EnrichedQuery,
                    params: tuple) -> EnrichedQuery:
    """Substitute typed values for the sentinel placeholders.

    Returns a fresh :class:`EnrichedQuery`; the template is untouched.
    Values are spliced in as ``Literal`` AST nodes — never interpolated
    into SQL text — which preserves Python types (int/float/bool/str/
    None) and is immune to SQL injection.
    """
    for value in params:
        if value is not None and not isinstance(value, _BINDABLE):
            raise ParameterError(
                f"cannot bind parameter of type {type(value).__name__}; "
                "supported: None, bool, int, float, str")
    bound = clone_enriched(enriched)
    consumed: set[int] = set()
    for index, literal in _sentinel_literals(bound):
        if index >= len(params):
            raise ParameterError(
                f"query expects parameter {index + 1}, "
                f"got only {len(params)}")
        literal.value = params[index]
        consumed.add(index)
    if len(consumed) != len(params):
        # A ? that sits outside the SQL part (e.g. inside the ENRICH
        # clause) is counted by expand_placeholders but has no literal
        # to bind — letting it through would leak the sentinel into a
        # SPARQL extraction and silently return wrong results.
        missing = sorted(set(range(len(params))) - consumed)
        slots = ", ".join(str(index + 1) for index in missing)
        raise ParameterError(
            f"parameter(s) {slots} have no binding site; '?' "
            "placeholders are only supported in the SQL part of a "
            "SESQL query, not the ENRICH clause")
    if consumed:
        # Re-render so observability fields show the bound SQL.
        bound.sql_text = render_query(bound.query)
    return bound
