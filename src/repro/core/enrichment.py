"""WHERE-clause enrichment strategies: REPLACECONSTANT / REPLACEVARIABLE.

These two strategies change which rows the relational query returns, so
they are applied *before* the databank query runs: the tagged condition
is rewritten into a correlated predicate over the extraction's relation
(semantics decision #3 in DESIGN.md — existential over the replacement
set).  The relation is named by the enrichment's position,
``__sesql_<kind>_<i>``, and bound to each run as a ``?`` value is
(:meth:`SqlExtraction.view <repro.core.tempdb.SqlExtraction.view>`):
the paper's temporary support database is that binding, never a catalog
table.  A rewrite returns a new query with the template's ``?`` intact;
the one it was given, which may be a cached template, is left as it
was.  Whatever extraction feeds it, the rewritten statement is the same,
so it is rewritten once per (template, ``include``) and kept as long as
the template: the databank plans it once and re-drives its tree for
every user and every KB generation.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import replace
from typing import Callable

from ..relational import ast as sql_ast
from ..relational.parser import parse_expr
from ..relational.table import BoundView
from .ast import (EnrichedQuery, Enrichment, ReplaceConstant,
                  ReplaceVariable, TaggedCondition)
from .errors import EnrichmentError
from .mapping import ResourceMapping
from .sqm import Extraction

ExprTransform = Callable[[sql_ast.Expr], sql_ast.Expr | None]


def transform_expr(expr: sql_ast.Expr,
                   visit: ExprTransform) -> sql_ast.Expr:
    """Rebuild an expression tree, letting *visit* replace subtrees.

    ``visit`` returns a replacement node or ``None`` to recurse.
    """
    replaced = visit(expr)
    if replaced is not None:
        return replaced
    return sql_ast.rebuild_expr(
        expr, lambda child: transform_expr(child, visit))


def replace_condition(where: sql_ast.Expr, target_key,
                      replacement: sql_ast.Expr) -> tuple[sql_ast.Expr, bool]:
    """Replace the first subtree whose node_key matches *target_key*."""
    found = [False]

    def visit(node: sql_ast.Expr) -> sql_ast.Expr | None:
        if not found[0]:
            try:
                key = sql_ast.node_key(node)
            except TypeError:
                return None
            if key == target_key:
                found[0] = True
                return replacement
        return None

    rewritten = transform_expr(where, visit)
    return rewritten, found[0]


def _is_constant_ref(node: sql_ast.Expr, constant: str) -> bool:
    """Does *node* denote the REPLACECONSTANT constant?

    The constant appears either as a bare identifier (parsed as an
    unqualified column reference, since it is not in the schema) or as a
    string literal equal to the constant.
    """
    if isinstance(node, sql_ast.ColumnRef) and node.qualifier is None \
            and node.name.lower() == constant.lower():
        return True
    if isinstance(node, sql_ast.Literal) and isinstance(node.value, str) \
            and node.value == constant:
        return True
    return False


def _exists_over(relation: str, alias: str,
                 where: sql_ast.Expr) -> sql_ast.Exists:
    return sql_ast.Exists(sql_ast.SelectQuery(core=sql_ast.SelectCore(
        items=[sql_ast.SelectItem(sql_ast.Literal(1))],
        from_clause=sql_ast.TableRef(relation, alias),
        where=where)))


#: Each template's rewritten statements by ``include``, kept for as long
#: as the template lives (by ``id``: a template is not hashable).
_REWRITES: dict[int, dict[bool, sql_ast.SelectQuery]] = {}
_REWRITES_LOCK = threading.Lock()


class WhereRewriter:
    """Rewrites a statement's tagged conditions over the relations of
    their extractions, and binds those relations for the run."""

    def __init__(self, mapping: ResourceMapping) -> None:
        self.mapping = mapping

    def rewrite(self, enriched: EnrichedQuery,
                plan: list[tuple[Enrichment, Extraction]], include: bool
                ) -> tuple[sql_ast.SelectQuery, dict[str, BoundView], bool]:
        """*enriched*'s query with each tagged condition of *plan*
        rewritten over the relation ``__sesql_<kind>_<i>``, the relation
        of each extraction by that name, and whether the statement was
        recalled: a template is rewritten once per *include*."""
        views = {}
        for position, (enrichment, extraction) in enumerate(plan):
            if isinstance(enrichment, ReplaceConstant):
                kind = "vals"
                extra = (enrichment.constant,) if include else ()
            else:
                kind, extra = "pairs", ()
            views[f"__sesql_{kind}_{position}"] = extraction.sql(
                self.mapping).view(kind, extra)
        template = enriched.query
        key = id(template)
        rewritten = _REWRITES.get(key, {}).get(include)
        if rewritten is not None:
            return rewritten, views, True
        rewritten = template
        for (enrichment, _extraction), name in zip(plan, views):
            condition = enriched.conditions[enrichment.cond]
            if isinstance(enrichment, ReplaceConstant):
                rewritten = self.apply_replace_constant(
                    rewritten, enrichment, condition, name)
            else:
                rewritten = self.apply_replace_variable(
                    rewritten, enrichment, condition, name, include)
        with _REWRITES_LOCK:
            variants = _REWRITES.get(key)
            if variants is None:
                variants = _REWRITES[key] = {}
                weakref.finalize(template, _REWRITES.pop, key,
                                 None).atexit = False
            return variants.setdefault(include, rewritten), views, False

    # -- strategies ---------------------------------------------------------

    def apply_replace_constant(self, query: sql_ast.SelectQuery,
                               enrichment: ReplaceConstant,
                               condition: TaggedCondition,
                               table: str) -> sql_ast.SelectQuery:
        replacement = self._rewrite_constant_condition(
            condition.expr, enrichment.constant, table)
        return self._splice(query, condition, replacement, enrichment)

    def _rewrite_constant_condition(self, cond_expr: sql_ast.Expr,
                                    constant: str,
                                    table: str) -> sql_ast.Expr:
        # Fast path: `attr = Constant` becomes `attr IN (SELECT value ...)`.
        if isinstance(cond_expr, sql_ast.BinaryOp) and cond_expr.op == "=":
            left_is = _is_constant_ref(cond_expr.left, constant)
            right_is = _is_constant_ref(cond_expr.right, constant)
            if left_is != right_is:
                other = cond_expr.right if left_is else cond_expr.left
                return sql_ast.InSubquery(
                    other,
                    sql_ast.SelectQuery(core=sql_ast.SelectCore(
                        items=[sql_ast.SelectItem(
                            sql_ast.ColumnRef("c0"))],
                        from_clause=sql_ast.TableRef(table))))
        # General form: EXISTS over the value table with the constant
        # substituted by the table's value column.
        alias = "__rc"
        substituted = [False]

        def visit(node: sql_ast.Expr) -> sql_ast.Expr | None:
            if _is_constant_ref(node, constant):
                substituted[0] = True
                return sql_ast.ColumnRef("c0", alias)
            return None

        inner = transform_expr(cond_expr, visit)
        if not substituted[0]:
            raise EnrichmentError(
                f"constant {constant!r} does not occur in the tagged "
                f"condition")
        return _exists_over(table, alias, inner)

    def apply_replace_variable(self, query: sql_ast.SelectQuery,
                               enrichment: ReplaceVariable,
                               condition: TaggedCondition, table: str,
                               include: bool) -> sql_ast.SelectQuery:
        try:
            attr_expr = parse_expr(enrichment.attr)
        except Exception as exc:
            raise EnrichmentError(
                f"REPLACEVARIABLE attribute {enrichment.attr!r} must be a "
                f"column reference: {exc}") from exc
        if not isinstance(attr_expr, sql_ast.ColumnRef):
            raise EnrichmentError(
                f"REPLACEVARIABLE attribute {enrichment.attr!r} must be a "
                "column reference")
        attr_key = sql_ast.node_key(attr_expr)
        alias = "__rv"
        substituted = [False]

        def visit(node: sql_ast.Expr) -> sql_ast.Expr | None:
            try:
                key = sql_ast.node_key(node)
            except TypeError:
                return None
            if key == attr_key:
                substituted[0] = True
                return sql_ast.ColumnRef("c1", alias)
            return None

        inner = transform_expr(condition.expr, visit)
        if not substituted[0]:
            raise EnrichmentError(
                f"attribute {enrichment.attr!r} does not occur in the "
                f"tagged condition")
        correlated = sql_ast.BinaryOp(
            "AND",
            sql_ast.BinaryOp("=", sql_ast.ColumnRef("c0", alias), attr_expr),
            inner)
        replacement: sql_ast.Expr = _exists_over(table, alias, correlated)
        if include:
            replacement = sql_ast.BinaryOp("OR", replacement,
                                           condition.expr)
        return self._splice(query, condition, replacement, enrichment)

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _splice(query: sql_ast.SelectQuery, condition: TaggedCondition,
                replacement: sql_ast.Expr,
                enrichment) -> sql_ast.SelectQuery:
        if query.core.where is None:
            raise EnrichmentError(
                f"{enrichment.kind} requires a WHERE clause")
        rewritten, found = replace_condition(
            query.core.where, sql_ast.node_key(condition.expr), replacement)
        if not found:
            raise EnrichmentError(
                f"tagged condition {condition.cond_id!r} not found in the "
                "WHERE clause (was it altered by another enrichment?)")
        return replace(query, core=replace(query.core, where=rewritten))
