"""The query analyzer: a semantic pass over parsed statements.

Entry points by statement family:

- :func:`analyze_sql` / :func:`analyze_statement` — plain SQL, any
  statement type the engine accepts;
- :func:`analyze_enriched` — a SESQL :class:`EnrichedQuery` (the
  cleaned SQL plus the enrichment clauses, with ``REPLACECONSTANT``
  targets excused from unknown-column errors, since the WHERE rewriter
  replaces them before the databank ever sees the query);
- :func:`analyze_sparql` — a SPARQL SELECT (projection-binding check);
- :func:`analyze_federated` — a global query against a mediator's
  views, reporting WHERE conjuncts that cannot ship to the sources.

The analyzer's contract: **it never emits an error for a statement the
engine would execute successfully** — every ``E-`` finding mirrors a
check the executor performs while compiling, and anything the analyzer
cannot see (an unknown table makes its scope *open*) suppresses rather
than invents findings.  Warnings carry no such promise; they flag
data-dependent hazards and performance cliffs.
"""

from __future__ import annotations

from functools import partial

from ..relational import ast
from ..relational.aggregates import contains_aggregate
from ..relational.errors import RelationalError, TypeMismatchError
from ..relational.parser import SqlParser, parse_script, parse_sql
from ..relational.render import render_expr, render_statement
from ..relational.types import FAMILY, parse_type_name
from ..relational.vectors import SemiJoin, semi_join
from . import lints
from .diagnostics import (AnalysisOptions, AnalysisReport, DEFAULT_OPTIONS)
from .scopes import Scope, ScopeColumn, resolve
from .typecheck import check_expr, check_predicate, infer_family


class _FilteredReport:
    """Report facade that drops codes the options disable."""

    __slots__ = ("_report", "_options")

    def __init__(self, report: AnalysisReport,
                 options: AnalysisOptions) -> None:
        self._report = report
        self._options = options

    def add(self, code: str, message: str, *,
            expression: str | None = None, hint: str | None = None) -> None:
        if self._options.wants(code):
            self._report.add(code, message, expression=expression, hint=hint)


class _Env:
    """Shared analysis state threaded through every check.

    Duck-typed contract used by :mod:`.typecheck` and :mod:`.lints`:
    ``report`` (something with ``add``), ``databank``, ``excused``
    (lower-case unqualified names that must not draw unknown-column
    errors) and ``analyze_subquery``.

    Names resolve as a run resolves them: a *mediator*'s views (the
    databank's, when it is a mediated one) ahead of the databank's
    catalog tables.
    """

    def __init__(self, databank, options: AnalysisOptions,
                 report: AnalysisReport,
                 excused: frozenset[str] = frozenset(),
                 mediator=None) -> None:
        self.databank = databank
        self.catalog = getattr(databank, "catalog", None)
        self.mediator = mediator if mediator is not None \
            else getattr(databank, "mediator", None)
        self.views = frozenset(
            name.lower() for name in self.mediator.view_names()) \
            if self.mediator is not None else frozenset()
        #: Is there anything to resolve a name in (else every FROM
        #: name is an open scope, never an unknown table)?
        self.knows_names = self.catalog is not None \
            or self.mediator is not None
        self.options = options
        self.report = _FilteredReport(report, options)
        self.excused = set(excused)
        #: Per EXISTS subquery (by the id of its core) that runs as a
        #: semi join, how: filled in where the conjunct is met, read
        #: where the walk of that predicate reaches the subquery.
        self.semi_joins: dict[int, SemiJoin] = {}

    def analyze_subquery(self, query: ast.SelectQuery,
                         outer_scopes: list[Scope]) -> Scope:
        return _analyze_query(query, self, outer_scopes, top_level=False)

    def relation(self, name: str):
        """The schema a statement reads under *name*: a view's as
        ``explain`` plans it before it ships, else a catalog table's;
        ``None`` when unknown — :meth:`is_relation` tells a name that
        is not there from a view whose columns cannot be planned."""
        if name.lower() in self.views:
            return self.mediator.view_schema(name)
        if self.catalog is not None and self.catalog.has_table(name):
            return self.catalog.table(name).schema
        return None

    def is_relation(self, name: str) -> bool:
        return name.lower() in self.views or (
            self.catalog is not None and self.catalog.has_table(name))


def _is_aggregate_core(core: ast.SelectCore) -> bool:
    return bool(core.group_by) or core.having is not None \
        or any(contains_aggregate(item.expr) for item in core.items)


# ---------------------------------------------------------------------------
# FROM clause: bindings and visible columns
# ---------------------------------------------------------------------------

def _table_columns(table_ref: ast.TableRef,
                   env: _Env) -> list[ScopeColumn] | None:
    """The columns *table_ref* makes visible; ``None`` when the table
    (or the catalog) is not there to ask."""
    schema = env.relation(table_ref.name)
    if schema is None:
        return None
    return [ScopeColumn(column.name, table_ref.binding,
                        FAMILY.get(column.data_type))
            for column in schema.columns]


def _level_of(env: _Env, scopes: list[Scope], source: ast.TableRef):
    """:data:`repro.relational.vectors.InnerScope` over the analyzer's
    scopes: where a reference in the WHERE of an ``EXISTS`` subquery
    over *source*, met in a predicate over *scopes*, resolves."""
    columns = _table_columns(source, env)
    chain = scopes + [Scope(columns or [], open=columns is None)]

    def level_of(ref: ast.ColumnRef) -> int | None:
        if resolve(ref, chain).status != "ok":
            return None
        for level, scope in enumerate(reversed(chain)):
            if scope.find(ref.name, ref.qualifier):
                return level
    return level_of


def _collect_from(table_expr: ast.TableExpr, env: _Env,
                  outer_scopes: list[Scope], from_scope: Scope,
                  seen: set[str], on_conditions: list[ast.Expr]) -> None:
    if isinstance(table_expr, ast.TableRef):
        binding = table_expr.binding
        if binding.lower() in seen:
            env.report.add("E-DUPLICATE-ALIAS",
                           f"duplicate table alias {binding!r}")
        seen.add(binding.lower())
        columns = _table_columns(table_expr, env)
        if columns is not None:
            from_scope.columns.extend(columns)
            return
        from_scope.open = True
        if env.knows_names and not env.is_relation(table_expr.name):
            env.report.add("E-UNKNOWN-TABLE",
                           f"no such table: {table_expr.name!r}")
        return
    if isinstance(table_expr, ast.SubqueryRef):
        if table_expr.alias.lower() in seen:
            env.report.add("E-DUPLICATE-ALIAS",
                           f"duplicate table alias {table_expr.alias!r}")
        seen.add(table_expr.alias.lower())
        derived = env.analyze_subquery(table_expr.query, outer_scopes)
        if derived.open:
            from_scope.open = True
        for column in derived.columns:
            # The executor requalifies every derived column to the alias.
            from_scope.columns.append(ScopeColumn(
                column.name, table_expr.alias, column.family))
        return
    if isinstance(table_expr, ast.Join):
        _collect_from(table_expr.left, env, outer_scopes, from_scope,
                      seen, on_conditions)
        _collect_from(table_expr.right, env, outer_scopes, from_scope,
                      seen, on_conditions)
        if table_expr.condition is not None:
            on_conditions.append(table_expr.condition)


# ---------------------------------------------------------------------------
# ORDER BY / GROUP BY target substitution (ordinals, output aliases)
# ---------------------------------------------------------------------------

def _is_ordinal(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
        and not isinstance(expr.value, bool)


def _substitute_targets(exprs: list[ast.Expr],
                        items: list[ast.SelectItem], env: _Env,
                        clause: str) -> list[ast.Expr]:
    """Mirror ``_substitute_order_targets``, reporting instead of
    raising; unreportable targets are dropped from the result."""
    resolved: list[ast.Expr] = []
    for expr in exprs:
        if _is_ordinal(expr):
            index = expr.value
            if index < 1 or index > len(items):
                env.report.add(
                    "E-ORDINAL-RANGE",
                    f"{clause} position {index} is out of range")
                continue
            item = items[index - 1]
            if item.is_star:
                env.report.add(
                    "E-ORDINAL-RANGE",
                    f"{clause} position cannot reference '*'")
                continue
            resolved.append(item.expr)
            continue
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            alias_matches = [item for item in items
                            if item.alias
                            and item.alias.lower() == expr.name.lower()]
            if len(alias_matches) == 1:
                resolved.append(alias_matches[0].expr)
                continue
        resolved.append(expr)
    return resolved


# ---------------------------------------------------------------------------
# SELECT analysis
# ---------------------------------------------------------------------------

def _analyze_core(core: ast.SelectCore, env: _Env,
                  outer_scopes: list[Scope],
                  order_by: list[ast.OrderItem],
                  top_level: bool) -> Scope:
    from_scope = Scope()
    on_conditions: list[ast.Expr] = []
    if core.from_clause is not None:
        _collect_from(core.from_clause, env, outer_scopes, from_scope,
                      set(), on_conditions)
    scopes = list(outer_scopes) + [from_scope]

    if core.where is not None:
        for conjunct in ast.conjuncts(core.where):
            found = semi_join(conjunct, partial(_level_of, env, scopes))
            if found is not None and isinstance(found.node, ast.Exists):
                env.semi_joins[id(found.node.query.core)] = found
        check_predicate(core.where, scopes, env, aggregates_ok=False,
                        clause="WHERE")
    for condition in on_conditions:
        check_predicate(condition, scopes, env, aggregates_ok=False,
                        clause="ON")

    has_aggregate = _is_aggregate_core(core) \
        or any(contains_aggregate(item.expr) for item in order_by)

    for item in core.items:
        if item.is_star:
            if has_aggregate:
                env.report.add(
                    "E-STAR-GROUPED",
                    "'*' cannot be used with GROUP BY or aggregates")
            star: ast.Star = item.expr
            if star.qualifier is not None and not from_scope.open \
                    and not any((column.qualifier or "").lower()
                                == star.qualifier.lower()
                                for column in from_scope.columns):
                env.report.add(
                    "E-UNKNOWN-TABLE",
                    f"no table named {star.qualifier!r} in FROM")
            continue
        check_expr(item.expr, scopes, env, aggregates_ok=True)

    group_exprs = _substitute_targets(core.group_by, core.items, env,
                                      "GROUP BY")
    for expr in group_exprs:
        check_expr(expr, scopes, env, aggregates_ok=False)

    if core.having is not None:
        check_predicate(core.having, scopes, env, aggregates_ok=True,
                        clause="HAVING")
        if not core.group_by and not contains_aggregate(core.having) \
                and not any(contains_aggregate(item.expr)
                            for item in core.items):
            env.report.add(
                "W-HAVING-NO-AGG",
                "HAVING without GROUP BY or aggregates filters nothing "
                "a WHERE could not",
                expression=render_expr(core.having))

    order_exprs = _substitute_targets(
        [item.expr for item in order_by], core.items, env, "ORDER BY")
    for expr in order_exprs:
        check_expr(expr, scopes, env, aggregates_ok=True)

    if core.distinct and group_exprs:
        item_keys = {ast.node_key(item.expr) for item in core.items
                     if not item.is_star}
        if all(ast.node_key(expr) in item_keys for expr in group_exprs):
            env.report.add(
                "W-DISTINCT-GROUPED",
                "DISTINCT is redundant: every group key is projected, "
                "so grouped rows are already distinct")

    lints.lint_vectorization(core, env, scopes)
    lints.lint_sargability(core, env, scopes)
    lints.lint_cartesian(core, env, from_scope)
    if top_level and any(item.is_star for item in core.items):
        env.report.add(
            "W-SELECT-STAR",
            "SELECT * couples the consumer to the table's column layout",
            hint="name the columns you need")

    out = Scope()
    if has_aggregate:
        for item in core.items:
            if item.is_star:
                continue
            out.columns.append(ScopeColumn(
                item.output_name(), None, infer_family(item.expr, scopes)))
        return out
    for item in core.items:
        if item.is_star:
            star = item.expr
            if from_scope.open:
                out.open = True
                continue
            for column in from_scope.columns:
                if star.qualifier is None or (column.qualifier or "").lower() \
                        == star.qualifier.lower():
                    out.columns.append(ScopeColumn(
                        column.name, column.qualifier, column.family))
            continue
        qualifier = None
        if isinstance(item.expr, ast.ColumnRef) and not item.alias:
            qualifier = item.expr.qualifier
        out.columns.append(ScopeColumn(
            item.output_name(), qualifier, infer_family(item.expr, scopes)))
    return out


def _analyze_query(query: ast.SelectQuery, env: _Env,
                   outer_scopes: list[Scope], top_level: bool) -> Scope:
    simple = not query.is_compound
    out_scopes = [_analyze_core(
        query.core, env, outer_scopes,
        order_by=query.order_by if simple else [], top_level=top_level)]
    for _op, core in query.compounds:
        out_scopes.append(_analyze_core(core, env, outer_scopes,
                                        order_by=[], top_level=top_level))
    result_scope = out_scopes[0]

    if query.is_compound:
        widths = [None if scope.open else len(scope.columns)
                  for scope in out_scopes]
        if all(width is not None for width in widths) \
                and len(set(widths)) > 1:
            env.report.add(
                "E-SET-OP-ARITY",
                "set operation operands must have the same column "
                f"count (got {', '.join(str(w) for w in widths)})")
        # Compound ORDER BY resolves against the combined result only
        # (no aliases, no outer scopes) — mirror compile_query exactly.
        for item in query.order_by:
            expr = item.expr
            if _is_ordinal(expr):
                if not result_scope.open and not (
                        1 <= expr.value <= len(result_scope.columns)):
                    env.report.add(
                        "E-ORDINAL-RANGE",
                        f"ORDER BY position {expr.value} is out of range")
                continue
            check_expr(expr, [result_scope], env, aggregates_ok=False)

    for clause, expr in (("LIMIT", query.limit), ("OFFSET", query.offset)):
        if expr is None:
            continue
        check_expr(expr, list(outer_scopes), env, aggregates_ok=False)
        if isinstance(expr, ast.Literal) and expr.value is not None:
            value = expr.value
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                env.report.add(
                    "W-TYPE-MISMATCH",
                    f"{clause} expects a non-negative integer",
                    expression=render_expr(expr))

    if top_level:
        cores = [query.core] + [core for _op, core in query.compounds]
        if query.limit is None \
                and not all(_is_aggregate_core(core) for core in cores):
            env.report.add(
                "W-NO-LIMIT-STREAM",
                "unbounded SELECT; streaming clients should page with "
                "LIMIT")
        if query.offset is not None and not query.order_by:
            env.report.add(
                "W-OFFSET-NO-ORDER",
                "OFFSET without ORDER BY yields nondeterministic pages")
    return result_scope


# ---------------------------------------------------------------------------
# DML / DDL analysis
# ---------------------------------------------------------------------------

def _catalog_table(name: str, env: _Env):
    """The catalog table, reporting E-UNKNOWN-TABLE; None if unknown
    (or if there is no catalog to ask)."""
    catalog = env.catalog
    if catalog is None:
        return None
    if not catalog.has_table(name):
        env.report.add("E-UNKNOWN-TABLE", f"no such table: {name!r}")
        return None
    return catalog.table(name)


def _table_scope(table, name: str) -> Scope:
    if table is None:
        return Scope(open=True)
    return Scope([ScopeColumn(column.name, name,
                              FAMILY.get(column.data_type))
                  for column in table.schema.columns])


def _analyze_insert(stmt: ast.InsertStmt, env: _Env) -> None:
    table = _catalog_table(stmt.table, env)
    width = None
    if stmt.columns is not None:
        if table is not None:
            for name in stmt.columns:
                if not table.schema.has_column(name):
                    env.report.add(
                        "E-UNKNOWN-COLUMN",
                        f"table {stmt.table!r} has no column {name!r}")
        width = len(stmt.columns)
    elif table is not None:
        width = len(table.schema.columns)
    if stmt.rows is not None:
        for row_exprs in stmt.rows:
            if width is not None and len(row_exprs) != width:
                env.report.add(
                    "E-DML-ARITY",
                    f"INSERT expects {width} values per row, got "
                    f"{len(row_exprs)}")
            for expr in row_exprs:
                # VALUES compile with no scopes: any column ref fails.
                check_expr(expr, [], env, aggregates_ok=False)
    if stmt.query is not None:
        produced = _analyze_query(stmt.query, env, [], top_level=False)
        if width is not None and not produced.open \
                and len(produced.columns) != width:
            env.report.add(
                "E-DML-ARITY",
                f"INSERT ... SELECT expects {width} columns, got "
                f"{len(produced.columns)}")


def _analyze_update(stmt: ast.UpdateStmt, env: _Env) -> None:
    table = _catalog_table(stmt.table, env)
    scope = _table_scope(table, stmt.table)
    for column, expr in stmt.assignments:
        if table is not None and not table.schema.has_column(column):
            env.report.add(
                "E-UNKNOWN-COLUMN",
                f"table {stmt.table!r} has no column {column!r}")
        check_expr(expr, [scope], env, aggregates_ok=False)
    if stmt.where is not None:
        check_predicate(stmt.where, [scope], env, aggregates_ok=False)


def _analyze_delete(stmt: ast.DeleteStmt, env: _Env) -> None:
    table = _catalog_table(stmt.table, env)
    if stmt.where is not None:
        check_predicate(stmt.where, [_table_scope(table, stmt.table)],
                        env, aggregates_ok=False)


def _analyze_create_table(stmt: ast.CreateTableStmt, env: _Env) -> None:
    seen: set[str] = set()
    for definition in stmt.columns:
        if definition.name.lower() in seen:
            env.report.add(
                "E-DUPLICATE-ALIAS",
                f"duplicate column {definition.name!r} in CREATE TABLE")
        seen.add(definition.name.lower())
        try:
            parse_type_name(definition.type_name)
        except TypeMismatchError:
            env.report.add(
                "E-BAD-CAST",
                f"unknown SQL type {definition.type_name!r} for column "
                f"{definition.name!r}")
        if definition.default is not None:
            check_expr(definition.default, [], env, aggregates_ok=False)


def _analyze_create_index(stmt: ast.CreateIndexStmt, env: _Env) -> None:
    table = _catalog_table(stmt.table, env)
    if table is None:
        return
    for name in stmt.columns:
        if not table.schema.has_column(name):
            env.report.add(
                "E-UNKNOWN-COLUMN",
                f"table {stmt.table!r} has no column {name!r}")


def _analyze_statement_node(stmt, env: _Env) -> None:
    if isinstance(stmt, ast.SelectQuery):
        _analyze_query(stmt, env, [], top_level=True)
    elif isinstance(stmt, ast.InsertStmt):
        _analyze_insert(stmt, env)
    elif isinstance(stmt, ast.UpdateStmt):
        _analyze_update(stmt, env)
    elif isinstance(stmt, ast.DeleteStmt):
        _analyze_delete(stmt, env)
    elif isinstance(stmt, ast.CreateTableStmt):
        _analyze_create_table(stmt, env)
    elif isinstance(stmt, ast.CreateIndexStmt):
        _analyze_create_index(stmt, env)
    elif isinstance(stmt, ast.DropTableStmt):
        if not stmt.if_exists:
            _catalog_table(stmt.name, env)
    elif isinstance(stmt, ast.AnalyzeStmt):
        if stmt.table is not None:
            _catalog_table(stmt.table, env)
    # DropIndexStmt: index names live on tables; nothing cheap to check.


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def analyze_statement(stmt, databank=None, *,
                      options: AnalysisOptions | None = None,
                      text: str | None = None) -> AnalysisReport:
    """Analyze one parsed relational statement against *databank*."""
    options = options or DEFAULT_OPTIONS
    report = AnalysisReport(statement=text if text is not None
                            else render_statement(stmt))
    if not options.enabled:
        return report
    env = _Env(databank, options, report)
    _analyze_statement_node(stmt, env)
    return report


def analyze_sql(sql_text: str, databank=None, *,
                options: AnalysisOptions | None = None) -> AnalysisReport:
    """Parse and analyze one SQL statement (E-SYNTAX if unparsable)."""
    options = options or DEFAULT_OPTIONS
    report = AnalysisReport(statement=sql_text.strip())
    if not options.enabled:
        return report
    try:
        stmt = SqlParser(sql_text, first_param=0).parse_statement()
    except RelationalError as exc:
        if options.wants("E-SYNTAX"):
            report.add("E-SYNTAX", str(exc))
        return report
    env = _Env(databank, options, report)
    _analyze_statement_node(stmt, env)
    return report


def analyze_script(sql_text: str, databank=None, *,
                   options: AnalysisOptions | None = None
                   ) -> list[AnalysisReport]:
    """Analyze a ``;``-separated script, one report per statement."""
    options = options or DEFAULT_OPTIONS
    try:
        statements = parse_script(sql_text)
    except RelationalError as exc:
        report = AnalysisReport(statement=sql_text.strip())
        if options.enabled and options.wants("E-SYNTAX"):
            report.add("E-SYNTAX", str(exc))
        return [report]
    return [analyze_statement(stmt, databank, options=options)
            for stmt in statements]


def analyze_enriched(enriched, databank=None, *,
                     options: AnalysisOptions | None = None
                     ) -> AnalysisReport:
    """Analyze a SESQL :class:`repro.core.ast.EnrichedQuery`.

    ``REPLACECONSTANT`` targets parse as bare column references (the
    constant is replaced by the WHERE rewriter before execution), so
    their names are excused from unknown-column errors.  Select
    enrichments are checked against the query's output columns
    (``W-ENRICH-ATTR``).
    """
    options = options or DEFAULT_OPTIONS
    report = AnalysisReport(statement=enriched.sql_text.strip())
    if not options.enabled:
        return report
    excused = frozenset(
        e.constant.lower() for e in enriched.enrichments
        if getattr(e, "kind", None) == "REPLACECONSTANT")
    env = _Env(databank, options, report, excused)
    result = _analyze_query(enriched.query, env, [], top_level=True)
    for enrichment in enriched.select_enrichments():
        attr = getattr(enrichment, "attr", None)
        if attr is None or result.open:
            continue
        if not result.find(attr, None):
            env.report.add(
                "W-ENRICH-ATTR",
                f"{enrichment.kind} references attribute {attr!r}, "
                "which is not a column of the query result",
                expression=attr)
    return report


def analyze_sparql(query, *, options: AnalysisOptions | None = None
                   ) -> AnalysisReport:
    """Analyze a SPARQL SELECT: every projected variable must be bound
    somewhere in the graph pattern (FILTER does not bind)."""
    from ..sparql.ast import group_variables
    from ..sparql.parser import parse_sparql

    options = options or DEFAULT_OPTIONS
    if isinstance(query, str):
        report = AnalysisReport(statement=query.strip())
        if not options.enabled:
            return report
        try:
            query = parse_sparql(query)
        except Exception as exc:
            if options.wants("E-SYNTAX"):
                report.add("E-SYNTAX", str(exc))
            return report
    else:
        report = AnalysisReport(statement=str(query))
    if not options.enabled:
        return report
    bound = group_variables(query.where)
    # SELECT * projects only what the pattern binds.
    for variable in query.variables or ():
        if variable not in bound and options.wants("W-SPARQL-UNBOUND"):
            report.add(
                "W-SPARQL-UNBOUND",
                f"projected variable ?{variable} is never bound in the "
                "graph pattern",
                expression=f"?{variable}")
    return report


def analyze_federated(sql_text: str, mediator, *,
                      options: AnalysisOptions | None = None
                      ) -> AnalysisReport:
    """Analyze a global query against a mediator: the usual SQL pass
    over its views (each with the columns ``explain`` plans it by),
    plus ``W-FED-UNPUSHABLE`` for WHERE conjuncts that must run
    entirely at the mediator."""
    # Lazy: federation imports api, which imports this package.
    from ..federation.mediator import _pushable_filters

    options = options or DEFAULT_OPTIONS
    report = AnalysisReport(statement=sql_text.strip())
    if not options.enabled:
        return report
    try:
        stmt = parse_sql(sql_text)
    except RelationalError as exc:
        if options.wants("E-SYNTAX"):
            report.add("E-SYNTAX", str(exc))
        return report
    env = _Env(None, options, report, mediator=mediator)
    _analyze_statement_node(stmt, env)
    if not isinstance(stmt, ast.SelectQuery) or stmt.is_compound \
            or stmt.core.where is None:
        return report
    wanted = [name for name in getattr(mediator, "_views", {})]
    referenced = {name.lower() for name in ast.referenced_tables(stmt)}
    wanted = [name for name in wanted if name.lower() in referenced]
    if not wanted:
        return report
    for conjunct in ast.conjuncts(stmt.core.where):
        # A conjunct ships iff the mediator's own pushdown pass selects
        # it — probe with a WHERE of just this conjunct, so the verdict
        # is the planner's, not a reimplementation of its rules.
        probe = ast.SelectQuery(core=ast.SelectCore(
            items=stmt.core.items, distinct=stmt.core.distinct,
            from_clause=stmt.core.from_clause, where=conjunct))
        if not _pushable_filters(probe, wanted, mediator):
            env.report.add(
                "W-FED-UNPUSHABLE",
                "conjunct cannot ship into source fragments; it filters "
                "at the mediator after the views materialize",
                expression=render_expr(conjunct))
    return report
