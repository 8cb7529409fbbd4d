"""The :class:`Database` facade: parse, plan and execute SQL statements.

This is the component that stands in for PostgreSQL in the CroSSE
architecture: the SmartGround databank is an instance of it, and the
temporary support database of the SESQL pipeline (Fig. 6) is the
extractions it binds to one run (see below).

Every database owns a cost-based planner (:mod:`repro.planner`, on by
default): SELECTs are rewritten — constant folding, predicate pushdown,
projection pruning, join re-ordering with per-join physical strategy —
before the operator tree is built, ``ANALYZE`` collects the statistics
the estimates feed on, and ``explain()`` exposes the tree with
estimated (and, under ``analyze=True``, actual) row counts.  The tree a
SELECT ran travels with its result (``ResultSet.plan``/``Cursor.plan``).

A SELECT is built by one routine and run by one routine, ad hoc or
prepared.  An ad-hoc statement's tree is built for its run alone.  A
prepared statement — a template whose ``?`` placeholders come with
``params`` — is planned and built once: the database keeps one tree per
template (:class:`_Template`, for as long as the template object lives
— the session's plan cache holds it), and a run checks it out under its
read hold, resets it, binds ``params`` into its slots and runs it, with
no copy, plan or build.  The tree is free again once no result holds
the root of its last run (every run hands out its own root, so a
result's plan is never re-driven; a run that finds it held builds a
tree of its own), and stays valid while each table it resolved is still
the catalog's object for that name with the same indexes, each view it
reads is bound again with the same column names and types, ``ANALYZE``
has not moved the statistics, and the planner options and telemetry
hooks are the ones it was built with.

A view — a mediated view's shipped rows or a SESQL extraction, a
:class:`~repro.relational.table.BoundView` — is bound per run like the
values are (``execute_ast(stmt, params, views)``): the statement
resolves its name to the view ahead of the catalog's tables, the tree
reads it through a :class:`~repro.relational.operators.ViewScan`, and
it is never a catalog table.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import nullcontext
from typing import Any, Iterable, Iterator

from ..rwlock import RWLock
from . import ast
from .catalog import RESERVED_PREFIX, Catalog, ViewCatalog
from .compiler import compile_expr
from .errors import ExecutionError, RelationalError, SchemaError
from .executor import BindFirst, build_select, make_context
from .operators import IndexProbe, Operator, Result, Scan, ViewScan
from .parser import parse_script, parse_sql
from .render import render_statement
from .result import Cursor, ResultSet
from .schema import Column, TableSchema
from .table import BoundView, Table, table_from_columns
from .types import DataType, parse_type_name

#: Shared no-op context for disabled-telemetry span sites.
_NOOP = nullcontext()

#: Operator kinds that describe how base data was reached.
_ACCESS_KINDS = frozenset(
    {"scan", "index-join", "hash-join", "nested-loop", "cross-join"})

#: Buckets for the estimated-vs-actual row ratio histogram (1.0 = the
#: planner nailed it; <1 over-estimated; >1 under-estimated).
_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 2.0, 4.0, 10.0,
                  100.0)

#: Buckets for the rows-per-batch histogram: powers of four up to the
#: configured BATCH_SIZE, plus headroom for full-column chunks.
_BATCH_BUCKETS = (1, 4, 16, 64, 256, 1024, 2048, 4096, 16384)


class _Tree:
    """One built operator tree of a template, and what it was built on:
    each table it resolved, with that table's indexes, each view's
    column names and types, and the database's settings then
    (:meth:`Database._settings`)."""

    __slots__ = ("root", "nodes", "holders", "tables", "views", "settings",
                 "last", "runs")

    def __init__(self, root: Result, settings: tuple) -> None:
        #: Never handed out: each run gets ``root.again()``.
        self.root = root
        self.nodes = [node for child in root.children
                      for node in child.walk()]
        #: The nodes that hold rows after a run.
        self.holders = [node for node in self.nodes
                        if type(node).release is not Operator.release]
        tables = {node.table.name.lower(): node.table
                  for node in self.nodes
                  if isinstance(node, (Scan, IndexProbe))}
        self.tables = [(name, table, dict(table.indexes))
                       for name, table in tables.items()]
        self.views = {node.name: node.signature for node in self.nodes
                      if isinstance(node, ViewScan)}
        self.settings = settings
        #: The root of the latest run, weakly: while a result holds it,
        #: the tree is that result's plan.
        self.last: weakref.ref | None = None
        self.runs = 0

    def free(self) -> bool:
        return self.last is None or self.last() is None

    def valid(self, catalog: Catalog | ViewCatalog, settings: tuple) -> bool:
        if settings != self.settings:
            return False
        for name, signature in self.views.items():
            view = catalog.get(name)
            if not isinstance(view, BoundView) or view.signature != signature:
                return False
        for name, table, indexes in self.tables:
            if catalog.get(name) is not table or table.indexes != indexes:
                return False
        return True

    def start(self, values: tuple, views: dict | None) -> Result:
        """Reset the tree, bind *values* and *views* to its slots, and
        return the new run's root."""
        self.runs += 1
        root = self.root.again(values, self.nodes)
        root.slots.views = views
        self.last = weakref.ref(root)
        return root

    def finish(self) -> None:
        """The run is over: drop the rows it left in the tree, and the
        views it read."""
        for node in self.holders:
            node.release()
        self.root.slots.views = None


def _forget_template(database_ref: weakref.ref, key: int) -> None:
    """A template is gone: so is its tree (its database may be too)."""
    database = database_ref()
    if database is not None:
        database._templates.pop(key, None)


class _Template:
    """What a database keeps for one prepared statement: its tree, and
    whether its shape needs its values bound first."""

    __slots__ = ("tree", "arity", "bind_first")

    def __init__(self, query: ast.SelectQuery) -> None:
        self.tree: _Tree | None = None
        self.arity = 1 + max((node.index for node in ast.iter_query_nodes(
            query) if isinstance(node, ast.Param)), default=-1)
        self.bind_first = False


class Database:
    """An in-memory relational database with a SQL front end.

    Thread safety: a reader-writer lock serializes mutations (DML, DDL,
    ``ANALYZE``) against statement execution, so any number of threads
    may SELECT — materialized or streaming — concurrently while writers
    get exclusive access.  A streaming cursor holds the read side until
    it is exhausted or closed; a thread must therefore close its open
    cursors before mutating the same database (the lock refuses the
    upgrade instead of deadlocking).
    """

    def __init__(self, name: str = "main", planner=None) -> None:
        from ..planner import PlannerOptions, StatisticsCatalog
        self.name = name
        self.catalog = Catalog()
        #: Duck-typed batch-execution telemetry (built when telemetry
        #: attaches; ``None`` keeps the operators hook-free).
        self._exec_hooks = None
        #: Planner feature flags; replace to toggle passes or disable.
        self.planner: "PlannerOptions" = planner or PlannerOptions()
        #: ANALYZE-collected statistics, maintained incrementally on DML.
        self.stats = StatisticsCatalog()
        #: Readers (SELECT / cursors) share; writers (DML/DDL/ANALYZE)
        #: are exclusive.
        self.rwlock = RWLock()
        self._generation = 0
        #: Durability hook (duck-typed): when a
        #: :class:`repro.durability.DurabilityManager` attaches this
        #: database, every durable mutation is logged here.  ANALYZE
        #: and the lock-free SESQL temp-table injection never reach a
        #: logging site, so they are excluded by construction.
        self.durability_journal = None
        #: Telemetry hook (duck-typed, same pattern): when a
        #: :class:`repro.telemetry.Telemetry` bundle attaches, SELECT
        #: execution records latency/row metrics and opens spans under
        #: the current query trace.  ``None`` costs one attribute test.
        self.telemetry = None
        #: Prepared statements' trees, by ``id`` of the template.
        self._templates: dict[int, _Template] = {}
        self._trees_lock = threading.Lock()
        self._trees_built = 0
        self._trees_reused = 0

    def attach_telemetry(self, telemetry) -> None:
        """Wire a telemetry bundle into this database and its lock."""
        self.telemetry = telemetry
        self.rwlock.attach_telemetry(telemetry)
        if telemetry is None:
            self._exec_hooks = None
            return
        metrics = telemetry.metrics
        from .batch import ExecHooks
        self._exec_hooks = ExecHooks(
            metrics.histogram(
                "repro_exec_batch_rows",
                "Rows per batch flowing through vectorized operators",
                buckets=_BATCH_BUCKETS),
            metrics.counter(
                "repro_exec_vectorized_total",
                "Rows processed by vectorized operators",
                labels=("op",)))
        self._tm_plan_seconds = metrics.histogram(
            "repro_db_plan_seconds",
            "Wall time spent in the cost-based planner",
            labels=("db",)).labels(self.name)
        self._tm_select_seconds = metrics.histogram(
            "repro_db_select_seconds",
            "Wall time of materialized SELECT execution",
            labels=("db",)).labels(self.name)
        self._tm_stream_seconds = metrics.histogram(
            "repro_db_stream_seconds",
            "Open-to-drain lifetime of streaming SELECT cursors",
            labels=("db",)).labels(self.name)
        self._tm_rows_returned = metrics.counter(
            "repro_db_rows_returned_total",
            "Rows returned by SELECTs (materialized and streamed)",
            labels=("db",)).labels(self.name)
        self._tm_estimate_ratio = metrics.histogram(
            "repro_planner_estimate_ratio",
            "actual/estimated result rows per planned SELECT "
            "(1.0 = perfect estimate)",
            buckets=_RATIO_BUCKETS)
        self._tm_access_paths = metrics.counter(
            "repro_db_access_paths_total",
            "Operator kinds reaching base data in executed plans",
            labels=("path",))

    def _note_select(self, root, rows_out: int, elapsed: float,
                     *, streamed: bool = False) -> None:
        """Fold one finished SELECT into the metrics registry."""
        hist = self._tm_stream_seconds if streamed \
            else self._tm_select_seconds
        hist.observe(elapsed)
        self._tm_rows_returned.inc(rows_out)
        if root.est_rows is not None:
            self._tm_estimate_ratio.observe(
                (rows_out + 1.0) / (root.est_rows + 1.0))
        for node in root.walk():
            if node.kind in _ACCESS_KINDS:
                self._tm_access_paths.labels(node.kind).inc()

    @property
    def generation(self) -> int:
        """Cheap mutation stamp: bumped once per DML/DDL statement (and
        per bulk helper) under the write lock, so any observable data
        change moves it forward.  ANALYZE and the lock-free SESQL
        temp-table injection leave it unchanged — neither alters what a
        query against the durable schema can see.  The federation layer
        keys its fragment-result cache on ``(source, SQL, generation)``.
        """
        return self._generation

    def bump_generation(self) -> None:
        """Advance the mutation stamp for an out-of-band data change
        (e.g. attaching a foreign table): invalidates every
        generation-keyed cache entry for this database."""
        with self.rwlock.write_locked():
            self._generation += 1
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "bump", {}, generation=self._generation)

    def restore_generation(self, generation: int) -> None:
        """Advance the mutation stamp to at least *generation* (crash
        recovery: caches must stay monotonic across a restart)."""
        with self.rwlock.write_locked():
            self._generation = max(self._generation, generation)

    def pin_generation(self, generation: int) -> None:
        """Set the mutation stamp to exactly *generation*.

        Replaying primary history (crash recovery, a read replica
        tailing the WAL) drives the normal mutation paths, whose
        incidental bumps may overshoot the recorded counter; pinning
        afterwards keeps the stamp byte-identical to the primary's, so
        generation equality really means "same data".
        """
        with self.rwlock.write_locked():
            self._generation = generation

    # -- SQL entry points ---------------------------------------------------

    def execute(self, sql: str) -> ResultSet | int | None:
        """Execute one statement.

        Returns a :class:`ResultSet` for SELECT, an affected-row count for
        DML, and ``None`` for DDL.
        """
        return self.execute_ast(parse_sql(sql))

    def execute_script(self, sql: str) -> list[ResultSet | int | None]:
        """Execute a semicolon-separated script, returning all results."""
        return [self.execute_ast(stmt) for stmt in parse_script(sql)]

    def query(self, target: "str | ast.SelectQuery",
              params: tuple | None = None) -> ResultSet:
        """Execute a statement — SQL text, or one already parsed, with
        *params* as for :meth:`execute_ast` — that must produce rows."""
        result = (self.execute(target) if isinstance(target, str)
                  else self.execute_ast(target, params))
        if not isinstance(result, ResultSet):
            raise ExecutionError("statement did not produce rows")
        return result

    def execute_ast(self, stmt: ast.Statement,
                    params: tuple | None = None,
                    views: dict[str, BoundView] | None = None
                    ) -> ResultSet | int | None:
        """Execute one parsed statement; *params* are the values of a
        prepared SELECT's ``?`` placeholders (its tree is then kept and
        re-driven — see the module docstring), and *views* the relations
        a SELECT reads under their names for this run."""
        if isinstance(stmt, ast.SelectQuery):
            with self.rwlock.read_locked():
                return self._run_select(stmt, params, views)
        with self.rwlock.write_locked():
            if isinstance(stmt, ast.AnalyzeStmt):
                return self._run_mutation(stmt)
            try:
                return self._run_mutation(stmt)
            finally:
                # Bumped even when the statement fails: a multi-row
                # INSERT that dies mid-way has already mutated data, so
                # over-invalidating generation-keyed caches is safe
                # where a missed invalidation would serve stale rows.
                self._generation += 1
                # Logged even when the statement fails, for the same
                # reason: the partial mutation is part of durable
                # state, and replay re-raises deterministically.
                journal = self.durability_journal
                if journal is not None:
                    try:
                        sql = render_statement(stmt)
                    except RelationalError:
                        # Unexecutable statement kind: _run_mutation
                        # raised before touching any data.
                        sql = None
                    if sql is not None:
                        journal.log("sql", {"sql": sql},
                                    generation=self._generation)

    def _run_mutation(self, stmt: ast.Statement) -> int | None:
        if isinstance(stmt, ast.InsertStmt):
            return self._run_insert(stmt)
        if isinstance(stmt, ast.UpdateStmt):
            return self._run_update(stmt)
        if isinstance(stmt, ast.DeleteStmt):
            return self._run_delete(stmt)
        if isinstance(stmt, ast.CreateTableStmt):
            return self._run_create_table(stmt)
        if isinstance(stmt, ast.DropTableStmt):
            self.catalog.drop_table(stmt.name, stmt.if_exists)
            self.stats.forget(stmt.name)
            return None
        if isinstance(stmt, ast.CreateIndexStmt):
            return self._run_create_index(stmt)
        if isinstance(stmt, ast.DropIndexStmt):
            return self._run_drop_index(stmt)
        if isinstance(stmt, ast.AnalyzeStmt):
            self.analyze(stmt.table)
            return None
        raise RelationalError(
            f"cannot execute {type(stmt).__name__}")

    # -- SELECT ----------------------------------------------------------------

    def tree_stats(self) -> dict[str, int]:
        """Operator trees built for prepared statements, and runs that
        re-drove a kept one instead."""
        return {"built": self._trees_built, "reused": self._trees_reused}

    def _build(self, query: ast.SelectQuery,
               catalog: Catalog | ViewCatalog) -> Result:
        """The operator tree for *query* over *catalog*: the planner's,
        or — planner off, or nothing for it to improve — the builder's
        as written."""
        from ..planner.plan import is_trivial_select, plan_select
        # Trivial selects skip planning (and its copy) so point
        # lookups stay as fast as with the planner off.
        if not self.planner.enabled or is_trivial_select(query):
            return build_select(query, catalog, self._exec_hooks,
                                self.stats)
        tel = self.telemetry
        started = time.perf_counter()
        with (tel.span("db.plan", db=self.name)
              if tel is not None else _NOOP):
            planned = plan_select(query, catalog, self.stats,
                                  self.planner, self._exec_hooks)
        if tel is not None:
            self._tm_plan_seconds.observe(time.perf_counter() - started)
        return planned.root

    def _settings(self) -> tuple:
        """What a tree is built on besides its tables: the statistics
        version (``ANALYZE`` moves it), the planner options and the
        execution hooks (telemetry attached or not)."""
        return self.stats.version, self.planner, self._exec_hooks

    def _catalog(self, views: dict[str, BoundView] | None
                 ) -> tuple[Catalog | ViewCatalog, dict | None]:
        """What a run's names resolve in — *views* ahead of the tables —
        and the views by lower-cased name, as its slots hold them."""
        if not views:
            return self.catalog, None
        bound = {name.lower(): view for name, view in views.items()}
        return ViewCatalog(self.catalog, bound), bound

    def _checkout(self, query: ast.SelectQuery, params: tuple | None,
                  views: dict[str, BoundView] | None = None
                  ) -> tuple[Result, _Tree | None]:
        """The root one run of *query* drives, and the template's tree
        under it (``None``: built unprepared or bound).  Ad hoc (no
        *params*) the statement is built; prepared, the kept tree is
        re-driven with *params* and *views* in its slots when no result
        holds its last run and it is still valid, else one is built —
        and kept, unless a result holds the kept one: the runs of one
        template overlap only where results are kept, and then each
        needs a tree of its own anyway.  A template whose shape depends
        on its values is bound and built per run, and so is a run whose
        values the tree was not laid out for (``Slots.admits``)."""
        catalog, bound = self._catalog(views)
        if params is None:
            root = self._build(query, catalog)
            root.slots.views = bound
            return root, None
        params = tuple(params)
        settings = self._settings()
        declined = False
        with self._trees_lock:
            key = id(query)
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = _Template(query)
                weakref.finalize(query, _forget_template,
                                 weakref.ref(self), key).atexit = False
            if len(params) != template.arity:
                raise ExecutionError(
                    f"statement expects {template.arity} parameter(s), "
                    f"got {len(params)}")
            kept = template.tree
            if kept is not None and kept.free():
                if not kept.valid(catalog, settings):
                    template.tree = None
                elif kept.root.slots.admits(params):
                    self._trees_reused += 1
                    return kept.start(params, bound), kept
                else:
                    declined = True
        if not (template.bind_first or declined):
            try:
                built = self._build(query, catalog)
            except BindFirst:
                template.bind_first = True
            else:
                tree = _Tree(built, settings)
                with self._trees_lock:
                    self._trees_built += 1
                    if template.tree is None:
                        template.tree = tree
                    if built.slots.admits(params):
                        return tree.start(params, bound), tree
        root = self._build(ast.clone_query(query, params), catalog)
        root.slots.views = bound
        return root, None

    def _run_select(self, query: ast.SelectQuery,
                    params: tuple | None = None,
                    views: dict[str, BoundView] | None = None
                    ) -> ResultSet:
        tel = self.telemetry
        started = time.perf_counter()
        with (tel.span("db.execute", db=self.name)
              if tel is not None else _NOOP) as span:
            root, tree = self._checkout(query, params, views)
            try:
                whole = root.collect()
            finally:
                if tree is not None:
                    tree.finish()
            if span is not None:
                span.attrs["rows"] = len(whole)
                if tree is not None and tree.runs > 1:
                    span.attrs["reused"] = True
        if tel is not None:
            self._note_select(root, len(whole),
                              time.perf_counter() - started)
        return ResultSet(root.schema.names(), cols=whole.cols,
                         length=len(whole), plan=root)

    # -- streaming SELECT --------------------------------------------------------

    def stream(self, sql: str) -> Cursor:
        """Execute a SELECT lazily, returning a :class:`Cursor`.

        Rows are produced as the cursor is consumed, so ``LIMIT k``
        stops after *k* rows instead of materializing the full input.
        The cursor holds this database's read lock until it is
        exhausted or closed — close it (or use ``with``) before running
        DML from the same thread.
        """
        stmt = parse_sql(sql)
        if not isinstance(stmt, ast.SelectQuery):
            raise ExecutionError("stream() requires a SELECT statement")
        return self.stream_ast(stmt)

    def stream_ast(self, query: ast.SelectQuery,
                   params: tuple | None = None,
                   views: dict[str, BoundView] | None = None) -> Cursor:
        """Streaming execution of an already-parsed SELECT (*params* and
        *views* as for :meth:`execute_ast`)."""
        # The read hold is taken HERE, not on first fetch: the cursor's
        # documented guarantee is writer exclusion from creation to
        # close, with no gap in which a DELETE could slip between
        # open and first row.  The hold transfers to the generator and
        # is released (idempotently) on exhaustion, close() or GC.
        hold = self.rwlock.read_hold()
        tel = self.telemetry
        started = time.perf_counter() if tel is not None else 0.0
        try:
            # Build eagerly so schema errors surface here, not on the
            # first fetch.
            with (tel.span("db.stream", db=self.name)
                  if tel is not None else _NOOP) as span:
                root, tree = self._checkout(query, params, views)
                if span is not None and tree is not None and tree.runs > 1:
                    span.attrs["reused"] = True
        except BaseException:
            hold.release()
            raise

        def release() -> None:
            hold.release()
            if tree is not None:
                tree.finish()

        def rows() -> Iterator[tuple]:
            produced = 0
            try:
                for batch in root.chunks():
                    for row in batch.tuples():
                        produced += 1
                        yield row
            finally:
                release()
                # The root reports the rows handed out, not the rows of
                # the batches drawn: they differ on early termination
                # (close() inside a batch).
                root.actual_rows = produced
                if tel is not None:
                    self._note_select(
                        root, produced,
                        time.perf_counter() - started, streamed=True)

        return Cursor(root.schema.names(), rows(), on_close=release,
                      plan=root)

    # -- planner surface --------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> list:
        """Collect planner statistics for one table (or all of them).

        Foreign tables are scanned too — an explicit ANALYZE is exactly
        the moment a remote round-trip is acceptable.
        """
        from .errors import CatalogError
        buckets = self.planner.histogram_buckets
        with self.rwlock.write_locked():
            if table_name is not None:
                names = [table_name]
            else:
                # Skip temp tables under the reserved prefix: they are
                # registered and dropped without the write lock, so
                # they may vanish mid-loop and their stats would leak.
                names = [name for name in self.catalog.table_names()
                         if not name.startswith(RESERVED_PREFIX)]
            collected = []
            for name in names:
                try:
                    table = self.catalog.table(name)
                except CatalogError:
                    if table_name is not None:
                        raise
                    continue  # concurrently dropped temp/scratch table
                collected.append(self.stats.analyze(table, buckets))
            return collected

    def explain(self, target: "str | ast.SelectQuery",
                analyze: bool = False, params: tuple | None = None,
                views: dict[str, BoundView] | None = None):
        """The plan a SELECT would run (the cost-based one, or with the
        planner off the query as written), without side effects.  A
        prepared statement's (*params* bound) is the plan every binding
        runs: its ``?`` show as slots, ``$1``, ``$2``...  *views* are
        bound as for :meth:`execute_ast`; one with no columns is planned
        from its estimated size, and cannot be run.

        With ``analyze=True`` the tree is also run, so every operator
        reports estimated *and* actual rows (EXPLAIN ANALYZE).  Returns
        a :class:`repro.planner.PlannedStatement`.
        """
        from ..planner import plan_select
        stmt = parse_sql(target) if isinstance(target, str) else target
        if not isinstance(stmt, ast.SelectQuery):
            raise ExecutionError("explain() requires a SELECT statement")
        values = tuple(params) if params is not None else None
        catalog, bound = self._catalog(views)
        with self.rwlock.read_locked():
            try:
                planned = plan_select(stmt, catalog, self.stats,
                                      self.planner)
                if values is not None \
                        and not planned.root.slots.admits(values):
                    raise BindFirst("not laid out for these values")
            except BindFirst:
                planned = plan_select(ast.clone_query(stmt, values),
                                      catalog, self.stats, self.planner)
            if values is not None:
                root = planned.root
                planned.root = root.again(values, list(root.walk()))
            planned.root.slots.views = bound
            if analyze:
                planned.root.collect()
        return planned

    # -- DML ----------------------------------------------------------------------

    def _run_insert(self, stmt: ast.InsertStmt) -> int:
        table = self.catalog.table(stmt.table)
        columns = stmt.columns or table.schema.column_names()
        for name in columns:
            if not table.schema.has_column(name):
                raise SchemaError(
                    f"table {table.name!r} has no column {name!r}")
        count = 0
        track = self.stats.get(table.name) is not None
        inserted: list[tuple] = []
        if stmt.rows is not None:
            ctx = make_context(self.catalog)
            for row_exprs in stmt.rows:
                if len(row_exprs) != len(columns):
                    raise ExecutionError(
                        f"INSERT expects {len(columns)} values per row, "
                        f"got {len(row_exprs)}")
                values = {}
                for name, expr in zip(columns, row_exprs):
                    fn = compile_expr(expr, [], ctx)
                    values[name] = fn(())
                row_id = table.insert_row(values)
                if track:
                    inserted.append(table.row(row_id))
                count += 1
        else:
            root = build_select(stmt.query, self.catalog)
            if len(root.schema) != len(columns):
                raise ExecutionError(
                    f"INSERT ... SELECT expects {len(columns)} columns, "
                    f"got {len(root.schema)}")
            before = len(table)
            table.append_columns(root.collect().cols, columns)
            count = len(table) - before
            if track:
                inserted = table.last_rows(count)
        if inserted:
            self.stats.note_inserted(table.name, inserted, table.schema)
        return count

    def _run_update(self, stmt: ast.UpdateStmt) -> int:
        table = self.catalog.table(stmt.table)
        from .schema import RowSchema
        scope = RowSchema.for_table(table.schema, table.name)
        ctx = make_context(self.catalog)
        assignment_fns = []
        for column, expr in stmt.assignments:
            if not table.schema.has_column(column):
                raise SchemaError(
                    f"table {table.name!r} has no column {column!r}")
            assignment_fns.append((column, compile_expr(expr, [scope], ctx)))
        where_fn = None
        if stmt.where is not None:
            from .compiler import compile_predicate
            where_fn = compile_predicate(stmt.where, [scope], ctx)
        pending: list[tuple[int, dict[str, Any]]] = []
        for row_id, row in list(table.rows_with_ids()):
            if where_fn is None or where_fn(((row),)):
                changes = {column: fn((row,))
                           for column, fn in assignment_fns}
                pending.append((row_id, changes))
        for row_id, changes in pending:
            table.update_row(row_id, changes)
        if pending and self.stats.get(table.name) is not None:
            self.stats.note_updated(
                table.name, [table.row(row_id) for row_id, _c in pending],
                table.schema)
        return len(pending)

    def _run_delete(self, stmt: ast.DeleteStmt) -> int:
        table = self.catalog.table(stmt.table)
        from .schema import RowSchema
        scope = RowSchema.for_table(table.schema, table.name)
        ctx = make_context(self.catalog)
        where_fn = None
        if stmt.where is not None:
            from .compiler import compile_predicate
            where_fn = compile_predicate(stmt.where, [scope], ctx)
        doomed = [row_id for row_id, row in list(table.rows_with_ids())
                  if where_fn is None or where_fn((row,))]
        for row_id in doomed:
            table.delete_row(row_id)
        if doomed:
            self.stats.note_deleted(table.name, len(doomed))
        return len(doomed)

    # -- DDL ---------------------------------------------------------------------------

    def _run_create_table(self, stmt: ast.CreateTableStmt) -> None:
        columns = []
        ctx = make_context(self.catalog)
        for definition in stmt.columns:
            data_type = parse_type_name(definition.type_name)
            default_value = None
            has_default = False
            if definition.default is not None:
                default_value = compile_expr(definition.default, [], ctx)(())
                has_default = True
            columns.append(Column(
                name=definition.name,
                data_type=data_type,
                nullable=not (definition.not_null or definition.primary_key),
                primary_key=definition.primary_key,
                unique=definition.unique,
                default=default_value,
                has_default=has_default,
            ))
        schema = TableSchema(stmt.name, columns)
        self.catalog.create_table(schema, stmt.if_not_exists)
        return None

    def _run_create_index(self, stmt: ast.CreateIndexStmt) -> None:
        table = self.catalog.table(stmt.table)
        table.create_index(stmt.name, stmt.columns, stmt.unique, stmt.kind)
        return None

    def _run_drop_index(self, stmt: ast.DropIndexStmt) -> None:
        found = self.catalog.find_index(stmt.name)
        if found is None:
            if stmt.if_exists:
                return None
            raise SchemaError(f"index {stmt.name!r} does not exist")
        table, name = found
        table.drop_index(name)
        return None

    # -- convenience helpers ---------------------------------------------------------

    def create_table(self, name: str, columns: list[Column],
                     if_not_exists: bool = False) -> Table | None:
        """Programmatic CREATE TABLE."""
        with self.rwlock.write_locked():
            table = self.catalog.create_table(
                TableSchema(name, columns), if_not_exists)
            self._generation += 1
            if self.durability_journal is not None:
                # Logged even when IF NOT EXISTS found the table (the
                # generation moved); replay hits the same no-op.
                self.durability_journal.log(
                    "create_table",
                    {"name": name, "if_not_exists": if_not_exists,
                     "columns": [col.to_spec() for col in columns]},
                    generation=self._generation)
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Programmatic DROP TABLE (write-locked, stats forgotten)."""
        with self.rwlock.write_locked():
            self.catalog.drop_table(name, if_exists)
            self.stats.forget(name)
            self._generation += 1
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "drop_table", {"name": name, "if_exists": if_exists},
                    generation=self._generation)

    def create_temp_table(self, name: str, result: ResultSet) -> Table:
        """Materialise *result* as a caller-private temp table named
        *name*, its column names and types inferred from its values
        (``table_from_columns``), published *without* the write lock
        (and without moving the generation).

        Its values are stored as given, never coerced to the one type
        inferred for their column.  The library itself no longer calls
        it — a SESQL extraction is bound to the run that reads it, as a
        :class:`~repro.relational.table.BoundView` — but the end-to-end
        benchmark's trace still counts its calls.  The name is unique
        and nothing else ever references it, so this is a namespace
        operation, not a data mutation — taking the write lock here
        would serialize reads behind every open cursor.  Single dict
        insert: atomic under the GIL.
        """
        table = table_from_columns(name, result.columns, result.cols,
                                   coerce=False)
        self.catalog.register_table(table)
        return table

    def drop_temp_table(self, name: str) -> None:
        """Drop a :meth:`create_temp_table` table (no write lock)."""
        self.catalog.drop_table(name, if_exists=True)
        self.stats.forget(name)  # in case an explicit ANALYZE hit it

    def insert_rows(self, table_name: str,
                    rows: Iterable[dict[str, Any]]) -> int:
        """Bulk-insert dictionaries (data generators, CSV import and
        the WAL's ``rows`` replay): one :meth:`Table.append_rows`."""
        with self.rwlock.write_locked():
            table = self.catalog.table(table_name)
            before = len(table)
            try:
                table.append_rows(_positional(table.schema, rows))
            finally:
                # Also when a row fails: the rows before it are stored.
                count = len(table) - before
                stored = table.last_rows(count) if count else []
                if stored and self.stats.get(table.name) is not None:
                    self.stats.note_inserted(table.name, stored,
                                             table.schema)
                self._generation += 1
                if stored and self.durability_journal is not None:
                    # The *coerced* stored tuples, not the caller's
                    # dicts: replay must reproduce storage state, not
                    # re-run coercion on arbitrary caller objects.
                    self.durability_journal.log(
                        "rows",
                        {"table": table.name,
                         "columns": table.schema.column_names(),
                         "rows": stored},
                        generation=self._generation)
            return count

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()


def _positional(schema: TableSchema,
                rows: Iterable[dict[str, Any]]) -> Iterator[tuple]:
    """Insert dicts as full positional rows, the way ``insert_row``
    reads one: an omitted column takes its default (else NULL) and an
    unknown key is a ``SchemaError`` — raised when that row is reached.
    """
    names = schema.column_names()
    known = set(names)
    defaults = [column.default if column.has_default else None
                for column in schema.columns]
    for row in rows:
        if not row.keys() <= known:
            for key in row:
                if not schema.has_column(key):
                    raise SchemaError(
                        f"table {schema.name!r} has no column {key!r}")
        yield tuple(map(row.get, names, defaults))


def column(name: str, type_name: str, nullable: bool = True,
           primary_key: bool = False, unique: bool = False,
           default: Any = None, has_default: bool = False) -> Column:
    """Shorthand Column factory accepting SQL type names."""
    data_type = (type_name if isinstance(type_name, DataType)
                 else parse_type_name(type_name))
    return Column(name, data_type, nullable and not primary_key,
                  primary_key, unique, default, has_default)
