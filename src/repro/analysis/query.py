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

from ..relational import ast
from ..relational.aggregates import contains_aggregate
from ..relational.bind import bind, names_of
from ..relational.errors import RelationalError, TypeMismatchError
from ..relational.parser import SqlParser, parse_script, parse_sql
from ..relational.render import render_expr, render_statement
from ..relational.schema import fold
from ..relational.types import parse_type_name
from ..relational.vectors import SemiJoin, semi_join
from . import lints
from .diagnostics import (AnalysisOptions, AnalysisReport, DEFAULT_OPTIONS)
from .typecheck import check_expr, check_predicate


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
    ``report`` (something with ``add``), ``databank``, ``bound`` (the
    statement's :class:`~repro.relational.bind.Binding`) and
    ``analyze_subquery``.

    Names bind as a run resolves them: a *mediator*'s views (the
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
        self.options = options
        self.report = _FilteredReport(report, options)
        #: Folded unqualified names that draw no unknown-column error.
        self.excused = excused
        self.bound = None
        #: Per EXISTS subquery (by the id of its core) that runs as a
        #: semi join, how: filled in where the conjunct is met, read
        #: where the walk of that predicate reaches the subquery.
        self.semi_joins: dict[int, SemiJoin] = {}

    def get(self, name: str):
        """What a FROM name reads, as :func:`bind` asks a catalog: a
        view ahead of a catalog table; ``None`` when neither has it."""
        view = self.mediator.get(name) if self.mediator is not None \
            else None
        if view is None and self.catalog is not None:
            return self.catalog.get(name)
        return view

    def bind(self, query: ast.SelectQuery) -> None:
        """Bind *query* (with nothing to resolve a FROM name in, each is
        an open scope) and report every error of the bind."""
        self.bound = bind(query, self if self.catalog is not None
                          or self.mediator is not None else None)
        for code, message, node in self.bound.errors:
            if code == "E-UNKNOWN-COLUMN" and node.qualifier is None \
                    and fold(node.name) in self.excused:
                continue  # a REPLACECONSTANT target, rewritten away
            self.report.add(code, message)

    def analyze_subquery(self, query: ast.SelectQuery) -> None:
        _analyze_query(query, self, top_level=False)


def _on_conditions(table_expr: ast.TableExpr | None):
    if isinstance(table_expr, ast.Join):
        yield from _on_conditions(table_expr.left)
        yield from _on_conditions(table_expr.right)
        if table_expr.condition is not None:
            yield table_expr.condition


# ---------------------------------------------------------------------------
# SELECT analysis
# ---------------------------------------------------------------------------

def _analyze_core(core: ast.SelectCore, env: _Env,
                  order_by: list[ast.OrderItem], top_level: bool) -> None:
    for leaf in ast.from_leaves(core.from_clause) \
            if core.from_clause is not None else ():
        if isinstance(leaf, ast.SubqueryRef):
            env.analyze_subquery(leaf.query)

    if core.where is not None:
        for conjunct in ast.conjuncts(core.where):
            found = semi_join(conjunct, env.bound)
            if found is not None and isinstance(found.node, ast.Exists):
                env.semi_joins[id(found.node.query.core)] = found
        check_predicate(core.where, env, clause="WHERE")
    for condition in _on_conditions(core.from_clause):
        check_predicate(condition, env, clause="ON")

    for item in core.items:
        if not item.is_star:
            check_expr(item.expr, env)

    bound = env.bound
    targets = bound.targets
    group_exprs = [targets[id(term)] for term in core.group_by
                   if id(term) in targets]
    for expr in group_exprs:
        check_expr(expr, env)

    if core.having is not None:
        check_predicate(core.having, env, clause="HAVING")
        if not core.group_by and not contains_aggregate(core.having) \
                and not any(contains_aggregate(item.expr)
                            for item in core.items):
            env.report.add(
                "W-HAVING-NO-AGG",
                "HAVING without GROUP BY or aggregates filters nothing "
                "a WHERE could not",
                expression=render_expr(core.having))

    for item in order_by:
        if id(item.expr) in targets:
            check_expr(targets[id(item.expr)], env)

    if core.distinct and group_exprs:
        item_keys = {bound.key(item.expr) for item in core.items
                     if not item.is_star}
        if all(bound.key(expr) in item_keys for expr in group_exprs):
            env.report.add(
                "W-DISTINCT-GROUPED",
                "DISTINCT is redundant: every group key is projected, "
                "so grouped rows are already distinct")

    lints.lint_vectorization(core, env)
    lints.lint_sargability(core, env)
    lints.lint_cartesian(core, env)
    if top_level and any(item.is_star for item in core.items):
        env.report.add(
            "W-SELECT-STAR",
            "SELECT * couples the consumer to the table's column layout",
            hint="name the columns you need")


def _analyze_query(query: ast.SelectQuery, env: _Env, top_level: bool):
    """Analyze *query*; returns its output columns as bound."""
    cores = [query.core] + [core for _op, core in query.compounds]
    for core in cores:
        _analyze_core(core, env, query.order_by if core is query.core
                      and not query.is_compound else [], top_level)

    if query.is_compound:
        # Compound ORDER BY binds over the combined result (no aliases;
        # an ordinal is a position), as build_query reads it.
        for item in query.order_by:
            check_expr(item.expr, env)

    for clause, expr in (("LIMIT", query.limit), ("OFFSET", query.offset)):
        if expr is None:
            continue
        check_expr(expr, env)
        if isinstance(expr, ast.Literal) and expr.value is not None:
            value = expr.value
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                env.report.add(
                    "W-TYPE-MISMATCH",
                    f"{clause} expects a non-negative integer",
                    expression=render_expr(expr))

    if top_level:
        if query.limit is None \
                and not all(map(env.bound.grouped, cores)):
            env.report.add(
                "W-NO-LIMIT-STREAM",
                "unbounded SELECT; streaming clients should page with "
                "LIMIT")
        if query.offset is not None and not query.order_by:
            env.report.add(
                "W-OFFSET-NO-ORDER",
                "OFFSET without ORDER BY yields nondeterministic pages")
    return env.bound.scope(query.core)


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
        env.report.add("E-UNKNOWN-TABLE", f"table {name!r} does not exist")
        return None
    return catalog.table(name)


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
                check_expr(expr, env)
    if stmt.query is not None:
        produced = _analyze_query(stmt.query, env, top_level=False)
        if width is not None and not produced.open \
                and len(produced.columns) != width:
            env.report.add(
                "E-DML-ARITY",
                f"INSERT ... SELECT expects {width} columns, got "
                f"{len(produced.columns)}")


def _analyze_update(stmt: ast.UpdateStmt, env: _Env) -> None:
    table = _catalog_table(stmt.table, env)
    for column, expr in stmt.assignments:
        if table is not None and not table.schema.has_column(column):
            env.report.add(
                "E-UNKNOWN-COLUMN",
                f"table {stmt.table!r} has no column {column!r}")
        check_expr(expr, env)
    if stmt.where is not None:
        check_predicate(stmt.where, env)


def _analyze_delete(stmt: ast.DeleteStmt, env: _Env) -> None:
    _catalog_table(stmt.table, env)
    if stmt.where is not None:
        check_predicate(stmt.where, env)


def _analyze_create_table(stmt: ast.CreateTableStmt, env: _Env) -> None:
    seen: set[str] = set()
    for definition in stmt.columns:
        if fold(definition.name) in seen:
            env.report.add(
                "E-DUPLICATE-ALIAS",
                f"duplicate column {definition.name!r} in CREATE TABLE")
        seen.add(fold(definition.name))
        try:
            parse_type_name(definition.type_name)
        except TypeMismatchError:
            env.report.add(
                "E-BAD-CAST",
                f"unknown SQL type {definition.type_name!r} for column "
                f"{definition.name!r}")
        if definition.default is not None:
            check_expr(definition.default, env)


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
    names = names_of(stmt)
    if names is not None:
        env.bind(names)
    if isinstance(stmt, ast.SelectQuery):
        _analyze_query(stmt, env, top_level=True)
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
        fold(e.constant) for e in enriched.enrichments
        if getattr(e, "kind", None) == "REPLACECONSTANT")
    env = _Env(databank, options, report, excused)
    env.bind(enriched.query)
    result = _analyze_query(enriched.query, env, top_level=True)
    for enrichment in enriched.select_enrichments():
        attr = getattr(enrichment, "attr", None)
        if attr is None or result.open:
            continue
        if fold(attr) not in map(fold, result.names()):
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
    wanted = mediator.referenced_views_in(stmt)
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
