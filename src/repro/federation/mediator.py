"""A GAV (global-as-view) mediated query system (Section II).

The SmartGround platform "integrates existing information from national
and international databanks".  The mediator provides the single
read-only query point of such a system:

* sources register as named databases (wrappers);
* each *global view* is defined in terms of the sources (GAV): a list
  of (source, SELECT) pairs whose union populates the view;
* a mediated query decomposes into per-source sub-queries, ships them
  **concurrently** through the :mod:`~repro.federation.executor` worker
  pool (the sources are independent, so a query touching *k* of them
  pays one round-trip, not *k*), reconciles the partial results
  (``union_all`` / ``union`` dedupe / ``prefer_first`` per-key
  precedence) behind a per-view barrier in the deterministic
  fragment-definition order, and runs the user query in a local
  database with each view bound to that run as it binds its ``?``
  values: a view is a leaf of the local operator tree
  (:class:`~repro.relational.operators.ViewScan`), never a stored
  table, so the tree the local database keeps for a statement is
  re-driven with each run's views.  A fragment's answer travels as
  columns, from the source's scan through the fragment cache and
  ``union_all``'s concatenation into the scan — no row tuple is built,
  and no column is coerced unless its values' types are mixed.

A WHERE conjunct over one view is **composed** into each fragment's
parsed statement (``planner.rewrite.compose_filter``), so no source
parses a shipped fragment; one whose constant column contradicts it is
**eliminated** — answered empty, never shipped.

A statement is a template: what it ships is derived once
(:class:`_ShipTemplate`, kept for as long as the statement object
lives) — the views it wants, the conjuncts its sources can apply with
their ``?`` kept, each fragment composed with them.  A run binds only
what depends on its values: the column-free conjuncts of each composed
fragment (its *guards*, such as ``'Italy' = ?``) are folded to tell
which fragments are eliminated, and each job ships the composed
statement with the values it reads, so the source re-drives the tree it
keeps for it.  An ad hoc statement is a template run once, with no
values.

:class:`~repro.federation.FederationOptions` configures the pool width,
per-source failure policies (``fail`` / ``skip`` / ``retry``) and the
fragment-result cache, keyed on the state of the tables each fragment
reads.  ``MediationReport`` exposes the
decomposition — including per-source timings, retries and skips — so
tests and benchmarks can check who was asked for what and what it cost.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from ..planner.joins import estimate_query_rows
from ..planner.rewrite import (compose_filter, constant_once_bound,
                               fold_expr, folds_when_bound, map_expr,
                               null_safe_bindings, referenced_bindings)
from ..relational import ast as sql_ast
from ..relational.ast import binding_of, from_leaves
from ..relational.aggregates import contains_aggregate
from ..relational.bind import Relation, bind
from ..relational.catalog import check_table_name
from ..relational.compiler import CompileContext, compile_expr
from ..relational.engine import Database
from ..relational.errors import ExecutionError, RelationalError
from ..relational.parser import parse_sql
from ..relational.render import bound_to, render_expr, render_query
from ..relational.result import ResultSet
from ..relational.schema import Column, TableSchema, fold
from ..relational.table import BoundView, Table
from ..relational.types import sql_keys
from .errors import MediationError
from .executor import (FederationExecutor, FederationOptions, FragmentCache,
                       FragmentJob, FragmentResult)

RECONCILIATIONS = ("union_all", "union", "prefer_first")

#: Shared no-op context for disabled-telemetry span sites.
_NOOP = nullcontext()

#: Abstract cost units charged per second of simulated source latency
#: when ranking views/sources (one remote hop ≈ many local row visits).
LATENCY_COST = 50_000.0

#: What a view's memo entry holds in a place not yet filled in.
_UNKNOWN = object()


@dataclass
class ViewFragment:
    """One GAV mapping entry: a source query feeding a global view."""

    source: str
    sql: str


@dataclass
class GlobalView:
    name: str
    fragments: list[ViewFragment]
    reconciliation: str = "union_all"
    key_columns: list[str] = field(default_factory=list)


@dataclass
class MediationReport:
    """What one mediated query did."""

    #: The shipped fragments' jobs, in shipping order.
    jobs: list[FragmentJob] = field(default_factory=list, repr=False)
    #: ``(view, source)`` per fragment whose composed WHERE folded to a
    #: literal other than TRUE: never shipped, contributes no rows.
    eliminated: list[tuple[str, str]] = field(default_factory=list)
    rows_per_source: dict[str, int] = field(default_factory=dict)
    view_rows: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: Estimated materialization cost per view (0.0 = already local);
    #: views are shipped cheapest-first in this ranking.
    view_costs: dict[str, float] = field(default_factory=dict)
    #: Filters pushed into the per-source sub-queries, per view.
    pushed_filters: dict[str, str] = field(default_factory=dict)
    #: Cumulative wall-clock spent shipping each source's fragments
    #: (cache hits contribute their — negligible — lookup time).
    source_timings: dict[str, float] = field(default_factory=dict)
    #: Extra attempts per source under the ``retry`` policy.
    retry_counts: dict[str, int] = field(default_factory=dict)
    #: Sources with at least one fragment dropped under the ``skip``
    #: policy (each source listed once, in drop order).
    skipped_sources: list[str] = field(default_factory=list)
    #: Last error text per failing source (skip policy).
    source_errors: dict[str, str] = field(default_factory=dict)
    #: Fragments served from the fragment-result cache.
    fragment_cache_hits: int = 0
    #: Warn-level notes (e.g. fragment column renames).
    warnings: list[str] = field(default_factory=list)

    @property
    def sub_queries(self) -> list[tuple[str, str]]:
        """``(source, SQL)`` per shipped fragment; with a pushed filter
        the SQL is the composed statement the source ran, its values
        bound — rendered when read."""
        return [(job.source, job.rendered()) for job in self.jobs]


class Mediator:
    """The global query processor over registered sources."""

    def __init__(self, options: FederationOptions | None = None) -> None:
        self._sources: dict[str, Database] = {}
        #: The views by folded name: a view name follows the SQL name
        #: rule, so a redefinition in any case replaces the view.
        self._views: dict[str, GlobalView] = {}
        #: Parallel-shipping configuration, shared by all sessions.
        self.options = options or FederationOptions()
        #: Fragment-result cache, shared across sessions (entries are
        #: keyed on the state of the tables they read, so sharing is
        #: safe).
        self.fragment_cache = FragmentCache(self.options.fragment_cache_size)
        self.executor = FederationExecutor(self.options,
                                           self.fragment_cache)
        #: Memo of each base fragment SQL's parse (None = not a
        #: parseable SELECT): cost ranking, cacheability and pushdown
        #: consult it.  Holds the fragments of the views currently
        #: defined.
        self._fragment_statements: dict[
            str, sql_ast.SelectQuery | None] = {}
        #: Moves on every define_view: part of :meth:`_stamp`.
        self._views_version = 0
        #: What is kept per view name (:meth:`_kept`).
        self._view_costs: dict[str, list] = {}
        #: (source name, base fragment SQL) -> (the source's catalog
        #: version, the tables the fragment reads as then resolved):
        #: a cost stamp re-walks a fragment only after DDL.
        self._cost_tables: dict[tuple[str, str], tuple] = {}

    # -- registration ----------------------------------------------------------

    def register_source(self, name: str, database: Database) -> None:
        if name in self._sources:
            raise MediationError(f"source {name!r} already registered")
        self._sources[name] = database

    def source(self, name: str) -> Database:
        try:
            return self._sources[name]
        except KeyError:
            raise MediationError(f"unknown source {name!r}") from None

    def define_view(self, name: str,
                    fragments: list[tuple[str, str]],
                    reconciliation: str = "union_all",
                    key_columns: list[str] | None = None) -> GlobalView:
        """Define a global relation as the union of source queries (GAV).

        *reconciliation* is ``union_all`` (every row), ``union`` (one of
        each distinct row) or ``prefer_first`` (per *key_columns* value,
        the row of the earliest fragment that has it; keys compare by
        the engine's equality, except that NULL is a key value like any
        other — see :meth:`Mediator._reconcile`)."""
        if reconciliation not in RECONCILIATIONS:
            raise MediationError(
                f"unknown reconciliation {reconciliation!r}")
        if reconciliation == "prefer_first" and not key_columns:
            raise MediationError(
                "prefer_first reconciliation requires key_columns")
        if not fragments:
            raise MediationError(f"view {name!r} needs at least one "
                                 "fragment")
        # A name the SESQL engine binds per run is never a view to ship.
        check_table_name(name)
        for source_name, _sql in fragments:
            self.source(source_name)
        old = self._views.get(fold(name))
        if old is not None:
            for fragment in old.fragments:
                self._fragment_statements.pop(fragment.sql, None)
                self._cost_tables.pop((fragment.source, fragment.sql), None)
            self._view_costs.pop(old.name, None)
        self._views_version += 1
        view = GlobalView(
            name,
            [ViewFragment(source_name, sql)
             for source_name, sql in fragments],
            reconciliation,
            list(key_columns or []))
        self._views[fold(name)] = view
        return view

    def view_names(self) -> list[str]:
        """The views' names, as each was last defined."""
        return sorted(view.name for view in self._views.values())

    def _view(self, name: str) -> GlobalView:
        view = self._views.get(fold(name))
        if view is None:
            raise MediationError(f"unknown view {name!r}")
        return view

    def referenced_views(self, sql: str) -> list[str]:
        """Views whose names occur as table references in *sql*.

        This is the mediator's pruning step: only views the query can
        actually touch are decomposed and shipped to the sources.  On a
        parse failure every view is returned, as text that does not
        parse may name any of them; a session ships nothing for such
        text, it raises the parse error.
        """
        statement = self._try_parse(sql)
        if statement is None:
            return self.view_names()
        return self.referenced_views_in(statement)

    def referenced_views_in(self,
                            statement: sql_ast.SelectQuery) -> list[str]:
        """Pruning over an already-parsed statement (no re-parse)."""
        referenced = sql_ast.referenced_tables(statement)
        return [name for name in self.view_names()
                if fold(name) in referenced]

    @staticmethod
    def _try_parse(sql: str) -> sql_ast.SelectQuery | None:
        try:
            statement = parse_sql(sql)
        except Exception:
            return None
        if not isinstance(statement, sql_ast.SelectQuery):
            return None
        return statement

    # -- cost ranking -------------------------------------------------------

    def estimate_view_cost(self, view: GlobalView) -> float:
        """Estimated cost of materializing *view*: per-fragment row
        estimates from each source's planner statistics, plus a heavy
        penalty per simulated remote hop (foreign-table latency).
        Memoised while what each fragment reads stays put, as the
        fragment cache keys it: its source's floor, catalog and
        statistics versions, and the state of each table it reads (its
        source's generation when one is no heap table) — so a write to
        one table re-prices only the views with a fragment over it."""
        return self._kept(view, 2, lambda: sum(self._fragment_cost(
            self.source(fragment.source),
            self._fragment_statement(fragment.sql))
            for fragment in view.fragments))

    def _kept(self, view: GlobalView, slot: int, compute: Callable):
        """Slot *slot* of what is kept of *view* while what each fragment
        reads stays put — ``[view, stamps, cost, first fragment's
        schema]`` — *compute*'s answer when first asked for."""
        stamp = [self._cost_stamp(self.source(fragment.source), fragment)
                 for fragment in view.fragments]
        memo = self._view_costs.get(view.name)
        if memo is None or memo[0] is not view or memo[1] != stamp:
            memo = self._view_costs[view.name] = [view, stamp, _UNKNOWN,
                                                  _UNKNOWN]
        if memo[slot] is _UNKNOWN:
            memo[slot] = compute()
        return memo[slot]

    def _cost_stamp(self, database: Database,
                    fragment: ViewFragment) -> tuple:
        """What *fragment*'s cost over its source *database* is
        estimated from (:meth:`estimate_view_cost`).  The tables it
        reads are resolved once per catalog version of the source."""
        version = database.catalog.version
        key = (fragment.source, fragment.sql)
        resolved = self._cost_tables.get(key)
        if resolved is None or resolved[0] != version:
            resolved = self._cost_tables[key] = (
                version, self._fragment_tables(
                    database, self._fragment_statement(fragment.sql)))
        tables = resolved[1]
        return (database.floor, version, database.stats.version,
                database.generation if tables is None
                else [table.state for table in tables])

    def _fragment_statement(self, sql: str) -> sql_ast.SelectQuery | None:
        """The (memoised, read-only) parse of a base fragment's SQL."""
        if sql not in self._fragment_statements:
            self._fragment_statements[sql] = Mediator._try_parse(sql)
        return self._fragment_statements[sql]

    def _view_shape(self, view: GlobalView, cost: float) -> BoundView | None:
        """*view* as a plan sees it before it ships: the columns of its
        first fragment as its source plans it (kept with its cost), sized
        *cost*; ``None`` when that fragment is no SELECT."""
        fragment = view.fragments[0]
        statement = self._fragment_statement(fragment.sql)
        if statement is None:
            return None
        return BoundView(self._kept(view, 3, lambda: TableSchema(view.name, [
            Column(column.name, column.data_type) for column in self.source(
                fragment.source).explain(statement).root.schema.columns])),
            None, cost)

    def view_schema(self, name: str) -> TableSchema | None:
        """The columns a statement reads under view *name* (matched
        case-insensitively) before it ships: the shape ``explain`` plans
        it by (:meth:`_view_shape`).  ``None`` when *name* is no view,
        or its first fragment no SELECT its source can plan."""
        view = self._views.get(fold(name))
        if view is None:
            return None
        try:
            shape = self._view_shape(view, 0.0)
        except RelationalError:
            return None
        return shape.schema if shape is not None else None

    def get(self, name: str) -> Relation | None:
        """View *name* as a statement's names bind to it
        (:func:`~repro.relational.bind.bind` asks a catalog by ``get``):
        its :meth:`view_schema`; ``None`` when no view has that name."""
        return Relation(self.view_schema(name)) \
            if fold(name) in self._views else None

    @staticmethod
    def _fragment_cost(database: Database,
                       statement: sql_ast.SelectQuery | None) -> float:
        if statement is None:
            return 1000.0
        cost = estimate_query_rows(statement, database.catalog,
                                   database.stats)
        for name in sql_ast.referenced_tables(statement):
            if database.catalog.has_table(name):
                table = database.catalog.table(name)
                cost += getattr(table, "latency_s", 0.0) * LATENCY_COST
        return cost

    # -- mediated querying ----------------------------------------------------------

    def query(self, sql: str,
              views: list[str] | None = None,
              pushdown: bool = True
              ) -> tuple[ResultSet, MediationReport]:
        """Run *sql* against the global schema.

        *views* limits which global views are materialised; by default
        the query is parsed and only the views it references are shipped
        (``referenced_views``) — the report shows what was shipped.
        With *pushdown* (the default), single-view WHERE conjuncts are
        composed into the per-source sub-queries so sources filter
        before shipping, and fragments they contradict are not shipped
        at all (the global query still re-applies them locally).

        Each call uses a throwaway session, so every referenced view is
        re-shipped (always-fresh snapshot semantics); use ``connect()``
        for a session that reuses materializations across queries.
        """
        return MediatorSession(self).execute(sql, views,
                                             pushdown=pushdown)

    # -- sessions -------------------------------------------------------------------

    def connect(self, options: FederationOptions | None = None
                ) -> "MediatorSession":
        """A session over the global schema with materialization reuse.

        *options* overrides the mediator-wide shipping configuration
        for this session only (the fragment cache stays shared — its
        entries are keyed on what they read, so they are valid for
        everyone).
        """
        return MediatorSession(self, options)

    def as_databank(self, options: FederationOptions | None = None,
                    name: str = "mediated"):
        """This global schema as a :class:`~repro.federation.
        MediatedDatabank` — a Database whose tables are the mediated
        views, usable anywhere a databank is expected (notably as the
        SESQL engine's databank, for enriched federated queries)."""
        from .databank import MediatedDatabank
        return MediatedDatabank(self, options, name)

    # -- internals ----------------------------------------------------------------------

    def _stamp(self) -> tuple:
        """What a ship template is derived from besides its statement:
        the view definitions and each source's catalog (a star expands
        to its table's columns, a foreign table is never cached)."""
        return (self._views_version,
                *(database.catalog.version
                  for database in self._sources.values()))

    def _prepare_fragments(self, view: GlobalView,
                           conjuncts: list[sql_ast.Expr] | None
                           ) -> list[_Fragment]:
        """*view*'s fragments, in fragment order, *conjuncts* (their
        ``?`` kept) composed in."""
        columns = [fold(name) for name in self.view_schema(
            view.name).column_names()] if conjuncts else None
        fragments = []
        for index, fragment in enumerate(view.fragments):
            database = self.source(fragment.source)
            # Cacheability is decided from the *base* fragment: a pushed
            # filter reads no other table, so it inherits the verdict.
            statement = self._fragment_statement(fragment.sql)
            composed = (compose_filter(statement, view.name, columns,
                                       conjuncts, database.catalog)
                        if statement is not None and conjuncts else None)
            fragments.append(_Fragment(
                index, fragment, database,
                self._fragment_tables(database, statement),
                statement, composed))
        return fragments

    @staticmethod
    def _fragment_tables(database: Database,
                         statement: sql_ast.SelectQuery | None
                         ) -> tuple[Table, ...] | None:
        """The tables the fragment reads, when their states and the
        source's floor fully cover it (the cache keys on them); else
        ``None``.

        Every referenced table must be a regular heap table of the
        source: a foreign table's remote content can change without
        moving anything local, so such fragments always re-execute.
        Resolved when the fragment is prepared, which is again after any
        DDL on the source (:meth:`_stamp`): DDL can swap a table for
        another, or a heap table for a foreign one, between ships.
        """
        if statement is None:
            return None
        tables = []
        for name in sorted(sql_ast.referenced_tables(statement)):
            table = database.catalog.get(name)
            if not isinstance(table, Table):
                return None
            tables.append(table)
        return tuple(tables)

    def _assemble_view(self, view: GlobalView,
                       results: list[FragmentResult],
                       report: MediationReport) -> BoundView:
        """Validate fragment columns and reconcile the partial results
        into the view a run binds.

        Column *arity* must agree across fragments (the error names
        both column lists); column *names* are validated positionally —
        the first successful fragment wins, a rename elsewhere only
        earns a warn-level report entry.
        """
        partials: list[tuple[str, ResultSet]] = []
        columns: list[str] | None = None
        for outcome in results:
            if outcome.result is None:
                continue  # skipped source: contributes no rows
            partial = outcome.result
            if columns is None:
                columns = list(partial.columns)
            elif len(partial.columns) != len(columns):
                raise MediationError(
                    f"view {view.name!r}: fragment from "
                    f"{outcome.job.source!r} returns "
                    f"{len(partial.columns)} column(s) "
                    f"{list(partial.columns)!r}, expected {len(columns)} "
                    f"{columns!r}")
            elif list(map(fold, partial.columns)) != list(map(fold, columns)):
                report.warnings.append(
                    f"view {view.name!r}: fragment from "
                    f"{outcome.job.source!r} names columns "
                    f"{list(partial.columns)!r}; keeping {columns!r} "
                    f"(first fragment wins)")
            partials.append((outcome.job.source, partial))
        if columns is None:
            raise MediationError(
                f"view {view.name!r}: every fragment was skipped, no "
                f"schema to materialize")
        return self._reconcile(view, columns, partials)

    @staticmethod
    def _fold_results(report: MediationReport,
                      results: list[FragmentResult]) -> None:
        """Record shipping outcomes (timings, retries, skips, cache)."""
        for outcome in results:
            source = outcome.job.source
            report.source_timings[source] = \
                report.source_timings.get(source, 0.0) + outcome.elapsed_s
            if outcome.attempts > 1:
                report.retry_counts[source] = \
                    report.retry_counts.get(source, 0) \
                    + outcome.attempts - 1
            if outcome.cached:
                report.fragment_cache_hits += 1
            if outcome.result is None:
                if source not in report.skipped_sources:
                    report.skipped_sources.append(source)
                if outcome.error is not None:
                    report.source_errors[source] = outcome.error
            else:
                report.rows_per_source[source] = \
                    report.rows_per_source.get(source, 0) \
                    + len(outcome.result)

    @staticmethod
    def _reconcile(view: GlobalView, columns: list[str],
                   partials: list[tuple[str, ResultSet]]) -> BoundView:
        """The view's rows, named *columns*, from its fragments' results
        in fragment order, typed as a table loaded from them would be
        (:meth:`BoundView.of`).

        ``union_all`` concatenates the fragments' columns — one
        ``list.extend`` per column per fragment, no row tuple; one
        fragment's are bound as they are — and types them from each
        fragment's type sets, which a cached fragment keeps
        (``ResultSet.value_types``).  ``union`` and
        ``prefer_first`` dedupe rows and keep the first of each key,
        keyed through ``types.sql_keys``: by the engine's equality,
        under which ``1`` and ``1.0`` are one key and ``TRUE`` and ``1``
        are two (a source's result holds no NaN: it is NULL).
        ``union``'s key is the whole row; ``prefer_first``'s is the
        view's key columns — earlier fragments win, the
        "reconciliation of the results" step of mediated systems — and
        there NULL is a key value like any other: a later row whose key
        agrees with an earlier one's, NULLs included, is dropped (under
        ``=`` a NULL would match nothing).
        """
        if view.reconciliation == "union_all":
            if len(partials) == 1:
                merged = partials[0][1].cols
            else:
                merged = [[] for _ in columns]
                for _source, partial in partials:
                    for column, values in zip(merged, partial.cols):
                        column.extend(values)
            kinds = [set().union(*column) for column in zip(
                *(partial.value_types() for _source, partial in partials))]
            return BoundView.of(view.name, columns, merged, kinds)
        key_positions: list[int] | None = None
        seen: set[tuple] = set()
        rows = []
        for _source, partial in partials:
            fragment_rows = partial.rows
            if view.reconciliation == "union":
                keys = map(sql_keys, fragment_rows)
            else:
                if key_positions is None:
                    key_positions = [partial.column_index(column)
                                     for column in view.key_columns]
                keys = (sql_keys([row[i] for i in key_positions])
                        for row in fragment_rows)
            for row, key in zip(fragment_rows, keys):
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        result = ResultSet(columns, rows)
        return BoundView.of(view.name, columns, result.cols,
                            result.value_types())


class _Variant(NamedTuple):
    """A statement a fragment ships, and what a run needs of it: its
    text with the ``?`` as written (the cache key's), which values its
    ``?`` read — by index, in text order — and how many values its
    source's template takes.  Not *prepared*: it is this run's alone
    (its values bound) or no SELECT, and ships with no values."""

    statement: sql_ast.SelectQuery | None
    sql: str
    order: tuple[int, ...]
    arity: int
    prepared: bool = True


def _variant(statement: sql_ast.SelectQuery, sql: str | None = None,
             prepared: bool = True) -> _Variant:
    """*statement* as a :class:`_Variant`, rendered unless *sql* (its
    text as defined) is given and it has no ``?``."""
    order: list[int] = []
    if sql is None or any(isinstance(node, sql_ast.Param)
                          for node in sql_ast.iter_query_nodes(statement)):
        sql = render_query(statement,
                           lambda node: order.append(node.index) or "?")
    return _Variant(statement, sql, tuple(order),
                    max(order) + 1 if order else 0, prepared)


class _Guard:
    """A conjunct of a composed fragment's WHERE that reads no column
    but a ``?`` — ``'Italy' = ?`` — compiled once, so a run evaluates
    it with its values."""

    __slots__ = ("_slots", "_fn", "_lock")

    def __init__(self, expr: sql_ast.Expr) -> None:
        context = CompileContext(subplan_factory=None)
        self._slots = context.slots
        try:
            self._fn = compile_expr(expr, [], context)
        except Exception:
            self._fn = None
        #: Held while a run's values are in the slots the guard reads.
        self._lock = threading.Lock()

    def holds(self, values: tuple) -> bool | None:
        """TRUE or FALSE, as ``fold_expr`` folds the conjunct with
        *values* bound; None: anything else (NULL, a failure)."""
        if self._fn is None:
            return None
        with self._lock:
            self._slots.values = values
            try:
                value = self._fn(())
            except Exception:
                return None
        return value if isinstance(value, bool) else None


class _Fragment:
    """One fragment of a view as every run of a template ships it: its
    statement, composed once with the pushed conjuncts' ``?`` kept, and
    the guards a run evaluates with its values.

    A fragment is eliminated exactly when its composed WHERE, the
    values bound, folds to a literal other than TRUE.  A guard that
    holds is left out of what ships (*lean*); one that fails eliminates
    the fragment.  Any other outcome — a guard neither TRUE nor FALSE,
    a conjunct that reads a column and folds once bound (``'Italy' = ?
    OR n = ?``), or nothing left to ship but literals — is rare, and
    the run composes as an ad hoc statement would: its values bound
    and folded into a statement of its own."""

    __slots__ = ("index", "source", "database", "tables", "columns",
                 "void", "lean", "guards", "binds", "composed")

    def __init__(self, index: int, fragment: ViewFragment,
                 database: Database, tables: tuple[Table, ...] | None,
                 statement: sql_ast.SelectQuery | None,
                 composed: sql_ast.SelectQuery | None) -> None:
        self.index = index
        self.source = fragment.source
        self.database = database
        self.tables = tables
        self.columns: list[str] = []
        #: Eliminated whatever the values: the WHERE folded already.
        self.void = False
        self.guards: list[_Guard] = []
        #: Every run binds its values (see the class docstring).
        self.binds = False
        self.composed = composed
        if statement is None:
            self.lean = _Variant(None, fragment.sql, (), 0, prepared=False)
            return
        if composed is None:
            self.lean = _variant(statement, fragment.sql)
            return
        self.columns = [item.output_name() for item in composed.core.items]
        where = composed.core.where
        self.void = isinstance(where, sql_ast.Literal)
        # Merged (not wrapped): the WHERE was folded, and a run's values
        # fold it further.
        if composed.core.from_clause is statement.core.from_clause \
                and where is not None and not self.void:
            parts = sql_ast.conjuncts(where)
            pure = [constant_once_bound(part) and folds_when_bound(part)
                    for part in parts]
            kept = [part for part, guard in zip(parts, pure) if not guard]
            self.guards = [_Guard(part)
                           for part, guard in zip(parts, pure) if guard]
            self.binds = bool(kept) and all(
                isinstance(part, sql_ast.Literal) for part in kept) or any(
                folds_when_bound(part) for part in kept)
            if self.guards or self.binds:
                composed = replace(composed, core=replace(
                    composed.core, where=sql_ast.conjoin(kept)))
        self.lean = _variant(composed)

    def job(self, view_name: str, values: tuple) -> tuple[FragmentJob, bool]:
        """This run's job, and whether it ships (False: eliminated)."""
        variant = self.lean
        ships = not self.void
        if ships and (self.guards or self.binds):
            judged = self._judge(values)
            ships = judged is not None
            variant = judged or variant
        return FragmentJob(
            view_name, self.index, self.source, self.database, variant.sql,
            tables=self.tables, statement=variant.statement,
            values=values[:variant.arity] if variant.prepared else None,
            tags=tuple((type(values[index]), values[index])
                       for index in variant.order)), ships

    def _judge(self, values: tuple) -> _Variant | None:
        """The variant that ships under *values*; None: eliminated."""
        binds = self.binds
        for guard in self.guards:
            holds = guard.holds(values)
            if holds is False:
                return None
            binds = binds or holds is None
        if not binds:
            return self.lean
        bound = sql_ast.clone_query(self.composed, values)
        where = fold_expr(bound.core.where)
        if isinstance(where, sql_ast.Literal):
            if where.value is not True:
                return None
            where = None
        bound.core.where = where
        return _variant(bound, prepared=False)


class _ShipTemplate:
    """What a statement ships, derived once: the views it wants, the
    conjuncts its sources can apply per view (their ``?`` kept), and
    each wanted view's fragments composed with them."""

    __slots__ = ("wanted", "pushable", "arity", "_fragments")

    def __init__(self, wanted: list[str],
                 pushable: dict[str, list[sql_ast.Expr]],
                 arity: int) -> None:
        self.wanted = wanted
        self.pushable = pushable
        #: Values a run binds: one per ``?`` of the statement.
        self.arity = arity
        self._fragments: dict[str, list[_Fragment]] = {}

    def fragments(self, mediator: Mediator,
                  view_name: str) -> list[_Fragment]:
        """*view_name*'s fragments as this template ships them."""
        fragments = self._fragments.get(view_name)
        if fragments is None:
            fragments = self._fragments[view_name] = \
                mediator._prepare_fragments(mediator._view(view_name),
                                            self.pushable.get(view_name))
        return fragments

    def filter_text(self, view_name: str, values: tuple) -> str:
        """The filter pushed into *view_name*'s sources, as it ran."""
        return " AND ".join(
            f"({render_expr(conjunct, bound_to(values))})"
            for conjunct in self.pushable[view_name])


def _appends_only(statement: sql_ast.SelectQuery | None) -> bool:
    """Whether *statement* is a projection of one table, with at most a
    WHERE over that table's own columns: then its rows over the table
    with rows appended are its rows before, then its rows of the
    appended rows, in table order."""
    if statement is None or statement.is_compound or statement.order_by \
            or statement.limit is not None or statement.offset is not None:
        return False
    core = statement.core
    if core.distinct or core.group_by or core.having is not None \
            or not isinstance(core.from_clause, sql_ast.TableRef):
        return False
    exprs = [item.expr for item in core.items]
    if core.where is not None:
        exprs.append(core.where)
    return not any(
        contains_aggregate(expr) or any(
            isinstance(node, (sql_ast.InSubquery, sql_ast.Exists,
                              sql_ast.ScalarSubquery))
            for node in sql_ast.walk_expr(expr))
        for expr in exprs)


class _Held(NamedTuple):
    """A view a session holds and the report warnings its assembly
    made; when a later full ship could grow it (:meth:`grown`) — a
    ``union_all`` of one-table projections — also what it was assembled
    from, in fragment order (the growth fields, ``None`` otherwise)."""

    view: BoundView
    warnings: list[str]
    #: The mediator's stamp (view definitions, source catalogs) then.
    stamp: tuple | None = None
    #: Per fragment: the state its rows were read at, how many rows it
    #: gave, and their types.
    states: list[tuple] | None = None
    lengths: list[int] | None = None
    kinds: list[list[set[type]]] | None = None
    #: Whether the view's lists are its own, not a cached fragment's.
    owned: bool = False

    @classmethod
    def of(cls, mediator: Mediator, view: GlobalView, assembled: BoundView,
           results: list[FragmentResult], stamp: tuple,
           warnings: list[str]) -> "_Held":
        """*view*, assembled from *results* under the mediator's
        *stamp*, held."""
        if view.reconciliation != "union_all" \
                or any(outcome.state is None for outcome in results) \
                or not all(_appends_only(mediator._fragment_statement(
                    fragment.sql)) for fragment in view.fragments):
            return cls(assembled, warnings)
        return cls(assembled, warnings, stamp,
                   [outcome.state for outcome in results],
                   [len(outcome.result) for outcome in results],
                   [outcome.result.value_types() for outcome in results],
                   len(results) > 1)

    def grown(self, stamp: tuple,
              results: list[FragmentResult]) -> "_Held | None":
        """This record, one that can grow, grown by the rows *results* —
        a full ship of it under the mediator's *stamp* — hold past the
        ones it was assembled from: this record itself when none do.
        ``None`` when the ship may hold anything else: a view or catalog
        changed, a table the fragments read had a write other than an
        append or the floor moved, or a fragment's rows are of other
        types.

        The view grows in place: each fragment's new rows, in fragment
        order, are appended to the view's lists and merged into its
        lookups — or, the lists being a cached fragment's, appended to
        copies of them once (``BoundView.grown``)."""
        if stamp != self.stamp:
            return None
        lengths = []
        for outcome, state, length, kinds in zip(results, self.states,
                                                 self.lengths, self.kinds):
            now = outcome.state
            if now is None or now[0] != state[0] \
                    or len(outcome.result) < length \
                    or any(moved != was or slots < had for (moved, slots),
                           (was, had) in zip(now[1:], state[1:])) \
                    or outcome.result.value_types() != kinds:
                return None
            lengths.append(len(outcome.result))
        if lengths == self.lengths:
            return self
        more: list[list] = [[] for _ in self.view.cols]
        for outcome, length in zip(results, self.lengths):
            if len(outcome.result) > length:
                for column, values in zip(more, outcome.result.cols):
                    column.extend(values[length:])
        return self._replace(
            view=self.view.grown(more, copy=not self.owned),
            states=[outcome.state for outcome in results],
            lengths=lengths, owned=True)


def _forget_ship_template(session_ref: weakref.ref, key: int) -> None:
    """A statement is gone: so are its ship templates."""
    session = session_ref()
    if session is not None:
        session._ship_templates.pop(key, None)


@dataclass
class _ShipPlan:
    """What one run of a statement ships, from its template."""

    wanted: list[str]                 # pruned views, as referenced
    costs: dict[str, float]           # 0.0 = already local
    pushable: dict[str, str]          # view → filter its sources apply
    cached: list[str]                 # cost-ranked, held materialized
    #: Cost-ranked views to ship → their fragment jobs (pushable filter
    #: composed in), in fragment order.
    jobs: dict[str, list[FragmentJob]]
    #: The fragments of those views the filter eliminated, answered.
    eliminated: list[FragmentResult]


class MediatorSession:
    """A stateful query session over a mediator's global schema.

    Where :meth:`Mediator.query` starts afresh per call (always-fresh
    snapshot semantics), a session holds each view it shipped in full
    and binds the held copy into later queries: the first query touching
    view V ships V's sub-queries, later ones read the held copy.
    ``refresh()`` retires them to pick up source-side changes (or
    redefined views): the queries after it ship afresh, and the next
    full ship of a retired view may grow it instead of assembling it
    (:meth:`refresh`).  A view shipped with a filter pushed into it, or
    with a source skipped, is partial: it is bound to its own run only.
    A held view is probed: a ``col = ?`` or ``col IN (subquery)`` over
    it reads a lookup built once per view and column
    (``BoundView.hold``), kept up as the view grows and dropped with it.

    The statements run in a local database — the session's own, or the
    :class:`~repro.federation.MediatedDatabank` it serves — with the
    views bound per run (``execute_ast(statement, params, views)``):
    none is ever a table of that database.
    """

    def __init__(self, mediator: Mediator,
                 options: FederationOptions | None = None, *,
                 scratch: Database | None = None) -> None:
        self.mediator = mediator
        #: Session-level shipping override; the fragment cache stays the
        #: mediator-wide, state-keyed one — unless that shared
        #: cache cannot hold entries (mediator configured with caching
        #: off) while this session asks for caching, in which case the
        #: session gets a private cache rather than a silently dead one.
        self.options = options or mediator.options
        if options is None:
            self._executor = mediator.executor
        else:
            cache = mediator.fragment_cache
            if options.fragment_cache_size > 0 and cache.maxsize <= 0:
                cache = FragmentCache(options.fragment_cache_size)
            self._executor = FederationExecutor(options, cache)
        #: The local database statements run in.  Callers (e.g.
        #: :class:`~repro.federation.MediatedDatabank`) may supply one
        #: so statements read their other tables beside the views.
        self._scratch = scratch if scratch is not None \
            else Database("mediator-session")
        #: The views shipped in full, held for later queries (by folded
        #: name), with the warn-level notes of their assembly —
        #: re-emitted on every cached hit, so a consumer seeing the warm
        #: path still learns about fragment renames.
        self._held: dict[str, _Held] = {}
        #: The held views ``refresh`` retired that could grow, each
        #: until its next full ship.
        self._retired: dict[str, _Held] = {}
        self.hits = 0      # views served from a held materialization
        self.misses = 0    # views shipped to the sources
        #: Ship templates by ``id`` of their statement, then by
        #: (pushdown, views, the mediator's stamp); each statement's are
        #: dropped when it is collected, and all of them when the stamp
        #: moves (``define_view``, DDL on a source).
        self._ship_templates: dict[int, dict[tuple, _ShipTemplate]] = {}
        self._templates_stamp: tuple | None = None
        #: Telemetry hook (duck-typed): attached by the session layer.
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self._executor.attach_telemetry(telemetry)
        attach = getattr(self._scratch, "attach_telemetry", None)
        if attach is not None \
                and getattr(self._scratch, "telemetry", None) \
                is not telemetry:
            attach(telemetry)

    def execute(self, sql: str, views: list[str] | None = None,
                pushdown: bool = True
                ) -> tuple[ResultSet, MediationReport]:
        """Run *sql* on the global schema, shipping views lazily.

        The statement is parsed once: the same AST drives view pruning,
        filter pushdown and the local execution.  Text that does not
        parse, or is not a SELECT, raises before anything ships.
        """
        started = time.perf_counter()
        statement = _parse_select(sql, "statement did not produce rows")
        with self.shipped(statement, pushdown, views) as (report, bound):
            result = self._scratch.execute_ast(statement, None, bound)
        report.elapsed_s = time.perf_counter() - started
        return result, report

    def stream(self, sql: str, views: list[str] | None = None):
        """Run *sql* on the global schema, streaming the final result.

        Each referenced view is shipped (cheapest first) exactly as in
        :meth:`execute`, but the local execution is a lazy cursor — the
        first row is available as soon as the last view lands, and
        ``LIMIT k`` global queries stop after *k* rows instead of
        materializing the reconciled result.

        Unlike :meth:`execute`, streams ship views *unfiltered*, so the
        views they ship are held for follow-up queries.  Returns
        ``(cursor, report)``.
        """
        started = time.perf_counter()
        statement = _parse_select(sql, "stream() requires a SELECT "
                                  "statement")
        with self.shipped(statement, False, views) as (report, bound):
            cursor = self._scratch.stream_ast(statement, None, bound)
        report.elapsed_s = time.perf_counter() - started
        return cursor, report

    @contextmanager
    def shipped(self, statement: sql_ast.SelectQuery,
                pushdown: bool = True, views: list[str] | None = None,
                params: tuple | None = None):
        """The scope of one query over shipped views: ship what
        *statement* — its ``?`` bound to *params* — needs, and yield
        ``(report, views)``, *views* the run's views by name, which the
        local database binds into that run
        (``execute_ast(statement, params, views)``)."""
        report = MediationReport()
        yield report, self._ship_parsed(
            self._plan_ship(statement, views, pushdown, params), report)

    def _ship_template(self, statement: sql_ast.SelectQuery,
                       views: list[str] | None, pushdown: bool,
                       stamp: tuple) -> _ShipTemplate:
        """*statement*'s ship template: kept for as long as the
        statement lives (and the mediator's *stamp* holds)."""
        if stamp != self._templates_stamp:
            self._ship_templates.clear()
            self._templates_stamp = stamp
        key = id(statement)
        variants = self._ship_templates.get(key)
        if variants is None:
            variants = self._ship_templates[key] = {}
            weakref.finalize(statement, _forget_ship_template,
                             weakref.ref(self), key).atexit = False
        variant = (pushdown, None if views is None else tuple(views), stamp)
        template = variants.get(variant)
        if template is None:
            template = variants[variant] = self._derive_template(
                statement, views, pushdown)
        return template

    def _derive_template(self, statement: sql_ast.SelectQuery,
                         views: list[str] | None,
                         pushdown: bool) -> _ShipTemplate:
        """Prune to the wanted views and find the pushable filters."""
        mediator = self.mediator
        if views is not None:
            # Dedupe (order-preserving): a repeated name is one view.
            wanted = list(dict.fromkeys(
                mediator._view(name).name for name in views))
        else:
            wanted = mediator.referenced_views_in(statement)
        pushable = (_pushable_filters(statement, wanted, mediator)
                    if pushdown else {})
        arity = 1 + max((node.index for node in sql_ast.iter_query_nodes(
            statement) if isinstance(node, sql_ast.Param)), default=-1)
        return _ShipTemplate(wanted, pushable, arity)

    def _plan_ship(self, statement: sql_ast.SelectQuery,
                   views: list[str] | None, pushdown: bool,
                   params: tuple | None = None) -> _ShipPlan:
        """What this run of *statement* ships, from its template:
        cost-rank the wanted views (held ones are free), split the
        ranking into held views and fragment jobs, and bind *params*
        into the jobs — eliminating the fragments they contradict.
        ``_ship_parsed`` executes the plan, ``explain`` renders it.
        """
        mediator = self.mediator
        template = self._ship_template(statement, views, pushdown,
                                       mediator._stamp())
        values = () if params is None else tuple(params)
        if len(values) != template.arity:
            raise ExecutionError(
                f"statement expects {template.arity} parameter(s), "
                f"got {len(values)}")
        wanted = template.wanted
        held = self._held
        costs = {name: (0.0 if fold(name) in held
                        else mediator.estimate_view_cost(
                            mediator._view(name)))
                 for name in wanted}
        ranked = sorted(wanted, key=lambda name: (costs[name],
                                                  wanted.index(name)))
        jobs: dict[str, list[FragmentJob]] = {}
        eliminated: list[FragmentResult] = []
        for name in ranked:
            if fold(name) in held:
                continue
            jobs[name] = shipping = []
            for fragment in template.fragments(mediator, name):
                job, ships = fragment.job(name, values)
                if ships:
                    shipping.append(job)
                else:
                    eliminated.append(FragmentResult(
                        job, ResultSet(fragment.columns, []), attempts=0))
        return _ShipPlan(
            wanted, costs,
            {name: template.filter_text(name, values)
             for name in jobs if name in template.pushable},
            cached=[name for name in ranked if fold(name) in held],
            jobs=jobs, eliminated=eliminated)

    def _ship_parsed(self, plan: _ShipPlan, report: MediationReport
                     ) -> dict[str, BoundView]:
        """Execute a ship plan, filling *report*; the run's views, held
        and shipped.

        All fragments of all missed views are dispatched to the sources
        in **one concurrent batch** (the executor's worker pool); the
        per-view reconciliation barrier then assembles each view from
        its fragments in definition order, in the cost ranking — so the
        report reads exactly as the serial shipping of earlier
        revisions, only faster.  A view shipped in full is held for
        later queries; a partial one (a pushed filter, a skipped source)
        is this run's alone.  A full ship of a view ``refresh`` retired
        grows the retired view when its sources only appended
        (:meth:`_Held.grown`), and assembles it afresh otherwise.
        """
        report.view_costs.update(plan.costs)
        bound: dict[str, BoundView] = {}
        for view_name in plan.cached:
            self.hits += 1
            held = self._held[fold(view_name)]
            bound[view_name] = held.view
            report.view_rows[view_name] = len(held.view)
            # Re-emit the first-materialization warnings: a cached hit
            # serves the same (renamed-column) data, so the report must
            # carry the same caveats.
            report.warnings.extend(held.warnings)
        jobs = [job for view_jobs in plan.jobs.values() for job in view_jobs]
        report.jobs.extend(jobs)
        report.eliminated.extend((outcome.job.view, outcome.job.source)
                                 for outcome in plan.eliminated)
        if not plan.jobs:
            return bound

        # One batch, all views: a failing fragment (under the ``fail``
        # policy) aborts here, before any view is assembled.
        tel = self.telemetry
        with (tel.span("federation.ship", views=",".join(plan.jobs),
                       fragments=len(jobs))
              if tel is not None else _NOOP):
            shipped = self._executor.ship(jobs)
        for view_name in plan.jobs:
            view = self.mediator._view(view_name)
            results = sorted(
                shipped.get(view_name, [])
                + [outcome for outcome in plan.eliminated
                   if outcome.job.view == view_name],
                key=lambda outcome: outcome.job.index)
            Mediator._fold_results(report, results)
            self.misses += 1
            filter_sql = plan.pushable.get(view_name)
            # Only a full view is held: a skip-reduced one would keep
            # serving the dropped source's absence (with clean reports)
            # long after the source recovered.
            full = filter_sql is None and all(
                outcome.result is not None for outcome in results)
            retired = self._retired.pop(fold(view_name), None) \
                if full else None
            held = retired and retired.grown(self._templates_stamp, results)
            if held is not None:
                assembled = held.view
                report.warnings.extend(held.warnings)
            else:
                warn_start = len(report.warnings)
                assembled = self.mediator._assemble_view(view, results,
                                                         report)
                if full:
                    held = _Held.of(self.mediator, view, assembled, results,
                                    self._templates_stamp,
                                    report.warnings[warn_start:])
            bound[view_name] = assembled
            if filter_sql is not None:
                report.pushed_filters[view_name] = filter_sql
            elif full:
                # A held view is probed (its lookups live as long as it
                # and the views grown from it in place do).
                assembled.hold()
                self._held[fold(view_name)] = held
            report.view_rows[view_name] = len(assembled)
        return bound

    def query(self, sql: str) -> ResultSet:
        """Execute and return just the rows."""
        return self.execute(sql)[0]

    def refresh(self, views: list[str] | None = None) -> None:
        """Retire held materializations (all views when none given): the
        queries after it ship the views afresh, as if never held.

        A retired view is kept for its next full ship, which grows it
        instead of assembling it when it is a ``union_all`` of
        projections of one table each (a WHERE over that table's own
        columns allowed), each of those tables only had rows appended
        (same floor, same stamp, more slots: ``Table.state``) and every
        fragment's rows are of the types they were: each fragment's new
        rows are appended to the view in fragment order (and to its
        lookups), or, none being new, the retired view is held again.
        So a grown view holds each fragment's new rows after all the
        rows it had, where a fresh ship would put them after that
        fragment's own rows: the same multiset in another order.  It
        grows in place; a run over the retired view reads only its own
        rows (``BoundView.length``).  Anything else assembles afresh,
        also once ``define_view`` or DDL on a source moved the
        mediator's stamp.  A retired view is dropped by its next full
        ship, grown or not, and by :meth:`close`."""
        doomed = list(self._held) if views is None else map(fold, views)
        for key in doomed:
            held = self._held.pop(key, None)
            if held is not None and held.states is not None:
                self._retired[key] = held

    def explain(self, sql: str, pushdown: bool = True) -> "QueryPlan":
        """The mediation plan — pruned views, cost-ranked per-source
        sub-queries, pushed filters and materialization cache state —
        without shipping anything: a rendering of the same ship plan
        ``execute`` would carry out, and the local plan over its views
        (a view still to ship as its source plans its first fragment,
        sized by :meth:`Mediator.estimate_view_cost`).

        Views still to be shipped appear as **batched** ``materialize``
        stages: all their fragments are dispatched in one concurrent
        batch through the worker pool, so the stage carries the whole
        batch (every fragment of every missed view, as the statement
        its source runs) and the pool width.  Held views stay as
        individual cached stages; eliminated fragments are listed by an
        ``eliminate`` stage.
        """
        from ..api.plan import PlanStage, QueryPlan

        statement = _parse_select(sql, "explain() requires a SELECT "
                                  "statement")
        ship = self._plan_ship(statement, None, pushdown)
        stages = [PlanStage(
            "prune", f"query references {len(ship.wanted)} of "
            f"{len(self.mediator.view_names())} global view(s)",
            [", ".join(ship.wanted) or "(none)"])]
        stages.extend(PlanStage(
            "materialize",
            f"view {view_name!r}: local materialization reused",
            cached=True) for view_name in ship.cached)
        batch: list[str] = []
        for view_name, jobs in ship.jobs.items():
            view = self.mediator._view(view_name)
            label = (f"{view_name!r} ({view.reconciliation}, "
                     f"cost~{ship.costs[view_name]:.0f}")
            if view_name in ship.pushable:
                label += f", pushdown [{ship.pushable[view_name]}]"
            label += ")"
            batch.extend(f"{label} <- {job.source}: {job.rendered()}"
                         for job in jobs)
        if batch:
            workers = min(self.options.max_workers, len(batch))
            stages.append(PlanStage(
                "materialize",
                f"batch of {len(ship.jobs)} view(s), {len(batch)} "
                f"fragment(s) shipped in parallel ({workers} worker(s))",
                batch))
        if ship.eliminated:
            stages.append(PlanStage("eliminate", "fragments contradicting "
                                    "the pushed filter: not shipped", [
                f"{outcome.job.view!r} <- {outcome.job.source}"
                for outcome in ship.eliminated]))
        stages.append(PlanStage(
            "sql", "scratch database executes the global query", [sql]))
        plan = QueryPlan(
            statement=sql, base_sql=sql, rewritten_sql=sql,
            stages=stages,
            cache_hits=len(ship.cached), cache_misses=len(ship.jobs))
        bound = {name: self._held[fold(name)].view for name in ship.cached}
        for name in ship.jobs:
            bound[name] = self.mediator._view_shape(
                self.mediator._view(name), ship.costs[name])
        if None not in bound.values():
            plan.db_plan = self._scratch.explain(statement, views=bound)
        return plan

    @property
    def _materialized(self) -> dict[str, BoundView]:
        """The held views by folded name."""
        return {key: held.view for key, held in self._held.items()}

    def close(self) -> None:
        self.refresh()
        self._retired.clear()


def _parse_select(sql: str, refusal: str) -> sql_ast.SelectQuery:
    """*sql* parsed — its syntax error raised as it is — if a SELECT;
    else ``ExecutionError(refusal)``."""
    statement = parse_sql(sql)
    if not isinstance(statement, sql_ast.SelectQuery):
        raise ExecutionError(refusal)
    return statement


def _pushable_filters(statement: sql_ast.SelectQuery, wanted: list[str],
                      mediator: Mediator) -> dict[str, list[sql_ast.Expr]]:
    """WHERE conjuncts that can run at the sources, per view, with every
    column qualified by the view's name.

    A conjunct qualifies when it touches exactly one FROM leaf, that
    leaf is a reference to a *wanted* view appearing once, the view's
    reconciliation is order-insensitive (``prefer_first`` elects rows
    by precedence *before* filtering, so pre-filtering could change the
    winners) and the leaf is not on the nullable side of an outer join
    (pre-filtering there would turn matched rows into NULL-padded
    ones).  The global query keeps the conjunct regardless — pushdown
    only reduces what the sources ship.
    """
    if statement.is_compound:
        return {}
    core = statement.core
    if core.from_clause is None or core.where is None:
        return {}
    wanted_by_key = {fold(name): name for name in wanted}
    safe = null_safe_bindings(core.from_clause)
    # Occurrences are counted over the WHOLE statement (subqueries
    # included): the scratch database holds one materialization per
    # view, so a second reference anywhere — e.g. inside an IN
    # subquery — would read the same pre-filtered copy and see too few
    # rows.
    occurrences: dict[str, int] = {}
    for node in sql_ast.iter_query_nodes(statement):
        if isinstance(node, sql_ast.TableRef) \
                and fold(node.name) in wanted_by_key:
            view_name = wanted_by_key[fold(node.name)]
            occurrences[view_name] = occurrences.get(view_name, 0) + 1
    view_of_binding: dict[str, str] = {}
    for leaf in from_leaves(core.from_clause):
        binding = binding_of(leaf)
        if isinstance(leaf, sql_ast.TableRef) \
                and fold(leaf.name) in wanted_by_key and binding in safe:
            view_name = wanted_by_key[fold(leaf.name)]
            if mediator._view(view_name).reconciliation != "prefer_first":
                view_of_binding[binding] = view_name

    bound = bind(statement, mediator)
    pushes: dict[str, list[sql_ast.Expr]] = {}
    for conjunct in sql_ast.conjuncts(core.where):
        touched = referenced_bindings(conjunct, bound)
        if touched is None or len(touched) != 1:
            continue
        binding = next(iter(touched))
        view_name = view_of_binding.get(binding)
        if view_name is None or occurrences.get(view_name) != 1:
            continue
        pushes.setdefault(view_name, []).append(conjunct)

    return {view_name: [
        map_expr(conjunct, lambda node, view_name=view_name:
                 sql_ast.ColumnRef(node.name, view_name)
                 if isinstance(node, sql_ast.ColumnRef) else node)
        for conjunct in conjunct_list]
        for view_name, conjunct_list in pushes.items()}
