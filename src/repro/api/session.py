"""The unified session layer: one entry point for every query backend.

``repro.connect(...)`` hands out a :class:`Session` no matter what is
being queried — a plain databank, a CroSSE platform user context, or a
GAV mediator — mirroring how mediator-style systems put a single
federated query service in front of heterogeneous backends.

Two caches sit on the hot path, each at the level of its key:

* the **plan cache** (SESQL text → parsed template + analysis report)
  lets repeated and prepared queries skip the SQP entirely.  The key is
  the text alone, so a :class:`PlatformSession` owns one and every
  ``as_user()`` session of it shares it; a plain session creates its
  own;
* the **extraction cache** (KB store + generation → SPARQL results)
  lets re-executions against an unchanged knowledge base skip their
  extractions, and keeps with each the relation its WHERE enrichments
  bind to a run.  The key *is* the user's context view, so there is one
  per user engine, created — and cleared on close — by its session.

What is personal about a platform user is a binding, not a copy: her
context view, a small engine over it, and a stored-query registry whose
misses fall through, live, to the platform-wide one.

``prepare()`` returns a :class:`~repro.api.PreparedQuery` with DB-API
style ``?`` parameters, ``execute_many()`` batches, and ``explain()``
returns a structured :class:`~repro.api.QueryPlan` without running the
query.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..analysis import (AnalysisError, AnalysisReport, DEFAULT_OPTIONS,
                        analyze_enriched)
from ..core.ast import EnrichedQuery
from ..core.engine import SESQLEngine, SESQLResult
from ..relational.result import ResultSet
from .cache import ExtractionCache, PlanCache
from .errors import SessionError
from .options import QueryOptions
from .plan import PlanStage, QueryPlan, plan_stages
from .prepared import PreparedQuery


@dataclass
class _CachedPlan:
    """Plan-cache entry: a parsed template.

    The static-analysis report rides along: a clean report is computed
    once per template (on the cache miss), so cache hits — the prepared
    hot path — pay nothing for diagnostics.  A report with errors judged
    a schema that DDL may since have fixed; it is recomputed on every
    ``prepare`` until it comes back clean.
    """

    template: EnrichedQuery
    analysis: AnalysisReport | None = None


class Session:
    """A stateful query session over one SESQL engine.

    Construct via :func:`repro.connect` (plain databank) or
    :meth:`PlatformSession.as_user` (per-user CroSSE context).  The old
    entry points — ``SESQLEngine.execute`` and
    ``CrossePlatform.run_sesql`` — remain supported; the latter now
    delegates here.
    """

    def __init__(self, engine: SESQLEngine,
                 options: QueryOptions | None = None,
                 on_result=None, plan_cache: PlanCache | None = None) -> None:
        self.engine = engine
        self.options = options or QueryOptions()
        #: Templates are keyed by text alone, so sessions over the same
        #: databank and options may share one cache (*plan_cache*: a
        #: platform session's); only a cache created here is cleared on
        #: close.
        self._owns_plan_cache = plan_cache is None
        self.plan_cache = (PlanCache(self.options.plan_cache_size)
                           if plan_cache is None else plan_cache)
        self._owns_extraction_cache = (
            engine.sqm.cache is None
            and self.options.extraction_cache_size > 0)
        if self._owns_extraction_cache:
            engine.sqm.cache = ExtractionCache(
                self.options.extraction_cache_size)
        #: Optional observer fed every SESQLResult (context tracking).
        self._on_result = on_result
        #: The session-owned :class:`repro.durability.DurabilityManager`
        #: when ``connect(..., durability=...)`` switched durability on
        #: (None otherwise); closed together with the session.
        self.durability = None
        #: The :class:`repro.telemetry.Telemetry` bundle when observability
        #: is on (None otherwise — the default, and then every hot-path
        #: check is a single ``is None`` test).
        self.telemetry = None
        self._telemetry_user: str | None = None
        self._last_trace = None
        self._closed = False

    # -- plumbing -----------------------------------------------------------

    @property
    def databank(self):
        return self.engine.databank

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def attach_telemetry(self, telemetry, user: str | None = None) -> None:
        """Switch observability on (or off, with None) for this session.

        *telemetry* is anything :func:`repro.telemetry.create_telemetry`
        accepts — a :class:`~repro.telemetry.Telemetry` bundle (shareable
        across sessions), :class:`~repro.telemetry.TelemetryOptions`, or
        ``True`` for defaults.  *user* labels this session's per-query
        metrics (platform sessions pass the username).
        """
        from ..telemetry import create_telemetry
        tel = create_telemetry(telemetry)
        self.telemetry = tel
        self._telemetry_user = user
        self.engine.attach_telemetry(tel)

    def last_trace(self):
        """Root :class:`~repro.telemetry.Span` of this session's most
        recent traced query (None when telemetry is off or before the
        first query).  Streamed queries appear as soon as the stream
        starts; the root stays ``open`` until the cursor is drained."""
        return self._last_trace

    def close(self) -> None:
        """Release cached plans and extractions; further queries raise
        SessionError.

        Only caches this session created are cleared — a plan cache it
        was handed, or an extraction cache the wrapped engine already
        carried, is shared with other callers and left warm.
        """
        if self._owns_plan_cache:
            self.plan_cache.clear()
        if self._owns_extraction_cache:
            self.engine.sqm.cache.clear()
        if self.durability is not None:
            self.durability.close()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of both caches (``plan_cache`` is the
        platform session's, counted across its users, when shared) and
        the databank's ``operator_trees``: trees built for prepared
        statements, and runs that re-drove a kept one."""
        extraction = self.engine.sqm.cache
        trees = getattr(self.databank, "tree_stats", None)
        return {
            "plan_cache": self.plan_cache.stats(),
            "extraction_cache": (extraction.stats()
                                 if extraction is not None else {}),
            "operator_trees": trees() if trees is not None else {},
        }

    # -- the DB-API-flavoured surface ------------------------------------------

    def prepare(self, text: str) -> PreparedQuery:
        """Parse once (or recall from the plan cache) and return a
        reusable prepared query with ``?`` parameter slots.

        The parsed template is also statically analyzed (name/scope
        resolution, type families, performance lints — see
        :mod:`repro.analysis`); the report is attached as
        ``PreparedQuery.diagnostics``.  Under
        ``QueryOptions(analysis=AnalysisOptions(strict=True))`` a
        report with errors raises :class:`~repro.analysis.AnalysisError`
        instead.  Plan-cache hits reuse a stored clean report; one
        with errors is recomputed, since DDL may have fixed what it
        found.
        """
        self._check_open()
        cached = self.plan_cache.get(text)
        from_cache = cached is not None
        parse_time = 0.0
        if cached is None:
            started = time.perf_counter()
            template = self.engine.parse(text)
            parse_time = time.perf_counter() - started
            if not template.parameter_count:
                # Runs as it is, and as a template: its tree is kept.
                template.values = ()
            cached = _CachedPlan(template, self._analyze_template(template))
            self.plan_cache.put(text, cached)
        elif cached.analysis is not None and cached.analysis.has_errors:
            cached.analysis = self._analyze_template(cached.template)
        analysis_options = self.options.analysis or DEFAULT_OPTIONS
        if analysis_options.strict and cached.analysis is not None \
                and cached.analysis.has_errors:
            raise AnalysisError(cached.analysis)
        return PreparedQuery(self, text, cached.template,
                             from_cache=from_cache, parse_time_s=parse_time,
                             diagnostics=cached.analysis)

    def _analyze_template(self, template: EnrichedQuery):
        options = self.options.analysis or DEFAULT_OPTIONS
        if not options.enabled:
            return None
        try:
            return analyze_enriched(template, self.engine.databank,
                                    options=options)
        except Exception:
            # Analysis is advisory: a crash in it must never take down
            # prepare() for a statement the engine would accept.
            return None

    def execute(self, text: str, params=None,
                include_original: bool | None = None) -> SESQLResult:
        """Run one SESQL query (goes through the plan cache)."""
        return self.prepare(text).execute(
            params, include_original=include_original)

    def query(self, text: str, params=None) -> ResultSet:
        """Execute and return just the enriched result rows."""
        return self.execute(text, params).result

    def stream(self, text: str, params=None, *,
               include_original: bool | None = None,
               page_size: int = 256):
        """Run one SESQL query lazily, returning a streaming
        :class:`~repro.relational.Cursor`.

        The SQL stage pulls from the databank on demand (``LIMIT k``
        stops after *k* rows) and SELECT enrichments are combined one
        page at a time.  The cursor holds the databank's read lock
        until exhausted or closed — drain it (or use ``with``) before
        mutating the databank from the same thread.
        """
        return self.prepare(text).stream(
            params, include_original=include_original,
            page_size=page_size)

    def execute_many(self, text: str, param_rows) -> list[SESQLResult]:
        """Execute the statement once per parameter row (single parse)."""
        return self.prepare(text).execute_many(param_rows)

    def explain(self, text: str, params=None,
                analyze: bool = False) -> QueryPlan:
        """Plan the query — stages, SPARQL, rewritten SQL and the
        databank operator tree with estimated rows.  ``analyze=True``
        also runs the databank stage so every operator reports actual
        rows next to its estimate."""
        return self.prepare(text).explain(params, analyze=analyze)

    # -- prepared-query internals ------------------------------------------------

    def _drain(self, drain, enriched: EnrichedQuery,
               include_original: bool | None = None, **extra):
        """Call one of the engine's three drains of the pipeline run on
        a bound statement.  Per-call > session options > engine
        defaults (None = defer)."""
        if include_original is None:
            include_original = self.options.include_original
        return drain(enriched, include_original=include_original, **extra)

    @contextmanager
    def _root_span(self, name: str, backend: str, prepared: PreparedQuery):
        """The root span one prepared execution runs under (yields None
        with telemetry off).  A failure finishes and records it here;
        on success the caller decides when the query is over —
        :meth:`_finish_root` at once, or when a stream is drained."""
        tel = self.telemetry
        if tel is None:
            yield None
            return
        root = tel.tracer.start_root(name, statement=prepared.text)
        self._last_trace = root
        try:
            with tel.tracer.activate(root):
                tel.tracer.record_synthetic(
                    "sesql.parse", prepared.parse_time_s,
                    cached=prepared.from_cache)
                yield root
        except BaseException as exc:
            root.finish(error=exc)
            tel.record_query(root, backend=backend,
                             statement=prepared.text,
                             user=self._telemetry_user)
            raise

    def _finish_root(self, tel, root, backend: str, statement: str,
                     rows: int) -> None:
        root.finish()
        root.attrs["rows"] = rows
        tel.record_query(root, backend=backend, statement=statement,
                         user=self._telemetry_user, rows=rows)

    def _execute_prepared(self, prepared: PreparedQuery, params,
                          include_original=None) -> SESQLResult:
        self._check_open()
        enriched = prepared.bind(params)
        with self._root_span("sesql.query", "sesql", prepared) as root:
            outcome = self._drain(self.engine.execute_parsed, enriched,
                                  include_original)
            # Observer runs inside the root span: a context-feed's
            # journaled writes (and any snapshot they trigger) are
            # attributed to the query that caused them.
            if self._on_result is not None:
                self._on_result(outcome)
        if root is not None:
            self._finish_root(self.telemetry, root, "sesql", prepared.text,
                              len(outcome.result))
        return outcome

    def _stream_prepared(self, prepared: PreparedQuery, params,
                         include_original=None, page_size: int = 256):
        self._check_open()
        enriched = prepared.bind(params)
        # Streamed executions bypass the on_result observer: the result
        # never materializes in one piece to observe.
        with self._root_span("sesql.stream", "sesql-stream",
                             prepared) as root:
            inner = self._drain(self.engine.stream_parsed, enriched,
                                include_original, page_size=page_size)
        if root is None:
            return inner
        return self._traced_cursor(root, prepared.text, inner)

    def _traced_cursor(self, root, statement: str, inner):
        """Wrap a streaming cursor so lazy execution stays in the trace.

        The root span is re-activated around every row pull (a plain
        ``with activate(...)`` spanning the generator's whole life would
        leak the context var into the consumer between pulls), and is
        finished — feeding the slow-query log with the true end-to-end
        drain time — when the stream is exhausted or closed.
        """
        from ..relational.result import Cursor
        tel = self.telemetry

        def rows():
            source = iter(inner)
            try:
                while True:
                    with tel.tracer.activate(root):
                        try:
                            row = next(source)
                        except StopIteration:
                            return
                    yield row
            finally:
                if root.open:
                    self._finish_root(tel, root, "sesql-stream",
                                      statement, inner.rows_yielded)

        return Cursor(inner.columns, rows(), on_close=inner.close,
                      plan=inner.plan)

    def _explain_prepared(self, prepared: PreparedQuery, params,
                          analyze: bool = False) -> QueryPlan:
        self._check_open()
        run = self._drain(self.engine.explain_parsed,
                          prepared.bind(params), analyze=analyze)
        base_sql = run.enriched.bound_sql()
        stages = [PlanStage(
            "parse", "SQP: split SESQL, strip tags, parse SQL + enrichments",
            [base_sql], cached=prepared.from_cache)]
        if prepared.parameter_count:
            stages.append(PlanStage(
                "bind", f"bind {prepared.parameter_count} typed "
                "parameter(s) to the template's slots"))
        stages.extend(plan_stages(run.stages, run.executed_sql, analyze))
        return QueryPlan(
            statement=prepared.text,
            base_sql=base_sql,
            rewritten_sql=run.executed_sql,
            stages=stages,
            sparql_queries=run.queries("extract"),
            cache_hits=run.total("cache_hits"),
            cache_misses=run.total("cache_misses"),
            parse_cached=prepared.from_cache,
            db_plan=run.base,
            diagnostics=prepared.diagnostics,
        )


class PlatformSession:
    """Session factory over a :class:`~repro.crosse.CrossePlatform`.

    ``as_user`` hands out one cached :class:`Session` (hence one cached
    engine) per user.  The engine binds what is personal — the user's
    stable context view and her live stored-query registry — so
    annotation, acceptance and registration all reach it without a
    rebuild; parsed templates are shared by every user of this platform
    session through its one plan cache.  Used by one thread at a time
    (a :class:`~repro.api.SessionPool` slot is one platform session).
    """

    def __init__(self, platform, options: QueryOptions | None = None) -> None:
        self.platform = platform
        self.options = options or QueryOptions()
        self.plan_cache = PlanCache(self.options.plan_cache_size)
        self._users: dict[str, Session] = {}
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def as_user(self, username: str) -> Session:
        """The user-scoped session (own + accepted statements context).

        A cached session the caller closed (e.g. by using it as a
        context manager) is transparently replaced with a fresh one.
        """
        if self._closed:
            raise SessionError("platform session is closed")
        self.platform.users.get(username)
        session = self._users.get(username)
        if session is None or session._closed:
            session = self._build(username)
            self._users[username] = session
        # Platform telemetry may be switched on (or swapped) after this
        # session was built; keep the cached session in sync.
        telemetry = getattr(self.platform, "telemetry", None)
        if session.telemetry is not telemetry:
            session.attach_telemetry(telemetry, user=username)
        return session

    def _build(self, username: str) -> Session:
        platform = self.platform
        engine = SESQLEngine(
            platform.databank,
            knowledge_base=platform.statements.effective_kb(username),
            mapping=platform.mapping,
            stored_queries=platform._registry_for(username),
            include_original=bool(self.options.include_original),
        )
        return Session(
            engine, self.options,
            on_result=lambda outcome: platform._feed_context(username,
                                                             outcome),
            plan_cache=self.plan_cache)

    def close(self) -> None:
        """Close every cached session and drop the shared templates
        (the platform replaces a closed default session)."""
        for session in self._users.values():
            session.close()
        self._users.clear()
        self.plan_cache.clear()
        self._closed = True


def _reject_durability(durability, kind: str, hint: str) -> None:
    if durability is not None:
        raise SessionError(
            f"durability does not apply when connecting a {kind}; {hint}")


def _enable_durability(durability, databank, knowledge_base):
    """Attach a manager to the databank (+ KB store) and recover."""
    from ..durability import DurabilityManager
    manager = (durability if isinstance(durability, DurabilityManager)
               else DurabilityManager(durability))
    manager.attach_database(databank)
    if knowledge_base is not None and hasattr(knowledge_base, "add_all"):
        manager.attach_store(knowledge_base, name="kb")
    manager.recover()
    return manager


def _reject_telemetry(telemetry, kind: str, hint: str) -> None:
    if telemetry is not None:
        raise SessionError(
            f"telemetry= does not apply when connecting a {kind}; {hint}")


def connect(source, options: QueryOptions | None = None,
            knowledge_base=None, mapping=None, stored_queries=None,
            durability=None, telemetry=None, **option_overrides):
    """The one entry point: a session over whatever *source* is.

    * :class:`~repro.relational.Database` — a plain databank; pass
      ``knowledge_base`` / ``mapping`` / ``stored_queries`` to wire the
      SESQL engine.
    * :class:`~repro.core.SESQLEngine` — wrap an existing engine.
    * :class:`~repro.crosse.CrossePlatform` — returns the platform's
      shared :class:`PlatformSession`; use ``.as_user(name)``.
    * :class:`~repro.federation.Mediator` — returns a
      :class:`~repro.federation.MediatorSession` over the global schema.
    * :class:`~repro.cluster.ClusterCoordinator` — returns a
      :class:`~repro.cluster.ClusterSession` routing per-user queries
      to the owning shard of a multi-process cluster.

    *durability* (a :class:`repro.durability.DurabilityOptions`, or a
    directory path) switches on write-ahead logging + snapshots for a
    plain-Database connection: the databank (and the given
    ``knowledge_base`` triple store, when one is passed) is attached,
    prior state in the directory is recovered, and an already-populated
    stack over a fresh directory gets an immediate baseline snapshot.
    When prior state exists the attached components must be empty —
    construct a fresh ``Database()`` (and empty store) and let recovery
    repopulate them.  The manager closes with the session and is
    reachable as ``session.durability``.  For a CroSSE platform, pass
    durability to the :class:`~repro.crosse.CrossePlatform` constructor
    instead.

    *telemetry* (a :class:`repro.telemetry.TelemetryOptions`, ``True``
    for defaults, or a shared :class:`repro.telemetry.Telemetry` bundle)
    switches on metrics + query tracing + the slow-query log for
    Database / SESQLEngine / Mediator connections; it is wired through
    every layer the session touches and reachable as
    ``session.telemetry``.  For a CroSSE platform, pass telemetry to
    the :class:`~repro.crosse.CrossePlatform` constructor instead.

    Keyword overrides (``include_original=True``, ...) build a
    :class:`QueryOptions` on the fly.
    """
    if option_overrides:
        options = (options or QueryOptions()).replace(**option_overrides)
    engine_wiring = any(value is not None for value
                        in (knowledge_base, mapping, stored_queries))

    def reject_wiring(kind: str) -> None:
        if engine_wiring:
            raise SessionError(
                "knowledge_base/mapping/stored_queries only apply when "
                f"connecting a plain Database; configure the {kind} "
                "directly instead")

    from ..relational.engine import Database
    if isinstance(source, SESQLEngine):
        reject_wiring("engine")
        _reject_durability(durability, "SESQLEngine",
                           "connect its Database instead")
        session = Session(source, options)
        if telemetry is not None:
            session.attach_telemetry(telemetry)
        return session
    if isinstance(source, Database):
        resolved = options or QueryOptions()
        engine = SESQLEngine(
            source, knowledge_base=knowledge_base, mapping=mapping,
            stored_queries=stored_queries,
            include_original=bool(resolved.include_original))
        session = Session(engine, resolved)
        if telemetry is not None:
            session.attach_telemetry(telemetry)
        if durability is not None:
            session.durability = _enable_durability(
                durability, source, knowledge_base)
            if session.telemetry is not None:
                session.durability.attach_telemetry(session.telemetry)
        return session

    from ..crosse.platform import CrossePlatform
    if isinstance(source, CrossePlatform):
        reject_wiring("platform")
        _reject_durability(
            durability, "CrossePlatform",
            "pass it to the CrossePlatform constructor instead")
        _reject_telemetry(
            telemetry, "CrossePlatform",
            "pass it to the CrossePlatform constructor instead")
        return source.connect(options)

    from ..federation.mediator import Mediator
    if isinstance(source, Mediator):
        reject_wiring("mediator")
        _reject_durability(durability, "Mediator",
                           "make each fragment database durable instead")
        if options is not None:
            raise SessionError(
                "QueryOptions do not apply to mediator sessions (no "
                "SESQL pipeline); call mediator.connect() directly")
        mediator_session = source.connect()
        if telemetry is not None:
            from ..telemetry import create_telemetry
            tel = create_telemetry(telemetry)
            if tel is not None:
                mediator_session.attach_telemetry(tel)
        return mediator_session

    from ..cluster.coordinator import ClusterCoordinator
    if isinstance(source, ClusterCoordinator):
        reject_wiring("cluster")
        _reject_durability(
            durability, "ClusterCoordinator",
            "the coordinator's primary already owns the WAL")
        _reject_telemetry(
            telemetry, "ClusterCoordinator",
            "pass it to the ClusterCoordinator constructor instead")
        if options is not None:
            raise SessionError(
                "QueryOptions do not apply to cluster sessions (each "
                "shard resolves its own); call coordinator.connect()")
        return source.connect()

    raise SessionError(
        f"cannot open a session over {type(source).__name__}; expected a "
        "Database, SESQLEngine, CrossePlatform, Mediator or "
        "ClusterCoordinator")
