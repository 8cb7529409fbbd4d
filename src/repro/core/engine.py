"""The SESQL engine: the full Fig. 6 pipeline behind one call.

``SESQLEngine.execute`` runs a SESQL query end to end:

1. the **SQP** splits the text, strips condition tags and parses both
   the SQL part and the enrichment specification;
2. the **SQM** builds one SPARQL extraction per enrichment and runs it
   on the (per-user) knowledge base;
3. WHERE enrichments rewrite the tagged conditions over their
   extractions' relations — bound to the run beside its ``?`` values,
   never catalog tables — and the (rewritten) SQL query executes on the
   databank;
4. the **JoinManager** folds each SELECT enrichment into the base
   result through a prepared combiner — the paper's final LEFT JOIN as
   a hash probe over the extraction's SQL side, built once per
   extraction — which yields the enriched result.

That stage sequence is written **once**, in ``SESQLEngine._run``.  A
run resolves the per-call defaults, keeps one statement memo and
appends a record per stage as it happens (name, SPARQL or SQL texts,
cached/deduped, seconds); it alone closes an open databank cursor.  It
reads the statement and never writes it: a bound template reaches the
databank as (statement, values, views), whose tree keeps the values and
the extractions' relations in slots.  The WHERE rewrite builds a new
statement with the ``?`` intact, once per template, over relations
named by position, so a rewritten template is re-driven like any other
— whichever user's extraction, at whichever KB generation, feeds it.
SQL texts are rendered when read, not per run.  The public entry points
are three *drains* of that run, differing only in what they plug into
its databank and combine steps:

* ``execute_parsed`` — ``databank.execute_ast`` + ``combine_enrichments``
  over the whole result; the ``SESQLResult`` is read off the records;
* ``stream_parsed`` — ``databank.stream_ast`` + the same prepared
  combiners page by page, behind a ``Cursor`` that closes the run's
  databank cursor when it closes;
* ``explain_parsed`` — ``databank.explain`` and no combine; the session
  layer (:mod:`repro.api`) renders the same records as plan stages.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

from ..rdf.store import TripleStore
from ..relational import ast as sql_ast
from ..relational.engine import Database
from ..relational.render import bound_to, render_query
from ..relational.result import Cursor, ResultSet
from .ast import (BoolSchemaExtension, BoolSchemaReplacement, EnrichedQuery,
                  Enrichment, ReplaceConstant, ReplaceVariable,
                  SchemaExtension, SchemaReplacement)
from .enrichment import WhereRewriter
from .errors import EnrichmentError, ParameterError
from .join_manager import JoinManager
from .mapping import ResourceMapping
from .sqm import Extraction, SemanticQueryModule
from .sqp import SemanticQueryParser
from .stored_queries import StoredQueryRegistry

#: Shared no-op context for disabled-telemetry span sites.
_NOOP = nullcontext()

#: The pipeline stages folded into ``repro_sesql_stage_seconds``.
_STAGES = ("parse", "where_rewrite", "sql", "combine", "total")


@dataclass
class SESQLResult:
    """The outcome of one SESQL execution, with full observability."""

    result: ResultSet
    enriched: EnrichedQuery
    #: The query the databank ran, and the values its ``?`` took.
    executed: sql_ast.SelectQuery
    executed_values: tuple | None = None
    sparql_queries: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0           # memoized SPARQL extractions reused
    cache_misses: int = 0
    #: SPARQL queries actually executed on the KB for this statement.
    #: ``sparql_queries`` lists one entry per *logical* extraction;
    #: identical extractions across tagged conditions (and across the
    #: WHERE/SELECT stages) are deduped and run once, so this count can
    #: be lower than ``len(sparql_queries)``.
    sparql_executions: int = 0
    #: The operator tree the databank ran for the (rewritten) SQL stage
    #: — the base result's ``plan``, with per-operator actual rows.  The
    #: WHERE-enrichment rewrite runs *before* planning, so enrichment-
    #: injected predicates benefit from pushdown and join re-ordering
    #: like hand-written ones.
    db_plan: object | None = None

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    @property
    def columns(self) -> list[str]:
        return self.result.columns

    @cached_property
    def base_sql(self) -> str:
        """The cleaned SQL as parsed, with the bound values."""
        return self.enriched.bound_sql()

    @cached_property
    def executed_sql(self) -> str:
        """The SQL actually run on the databank (rendered on first
        read)."""
        return render_query(self.executed, bound_to(self.executed_values))


@dataclass
class _Stage:
    """One pipeline stage as it ran: what ``SESQLResult`` and the
    session layer's ``explain()`` are both read off."""

    name: str                 # extract | rewrite | sql | combine
    detail: str = ""          # extract: enrichment kind; combine: what
    queries: list[str] = field(default_factory=list)
    seconds: float = 0.0
    #: extract: served by the statement memo or the extraction cache,
    #: i.e. no SPARQL query reached the KB for it; rewrite: the
    #: template's rewritten statement was recalled.
    cached: bool = False
    cache_hits: int = 0       # extraction-cache lookups of this stage
    cache_misses: int = 0


@dataclass
class _PipelineRun:
    """One pass of the stage sequence over one statement: the records,
    what the stages produced, and the cursor a pass can leave open."""

    enriched: EnrichedQuery           # the statement run, as given
    stages: list[_Stage] = field(default_factory=list)
    #: Statement-level dedupe across the WHERE and SELECT stages:
    #: identical logical extractions execute once.
    memo: dict = field(default_factory=dict)
    #: What was put to the databank: a query, its ``?`` values and the
    #: extractions' relations it reads, by name.
    executed: sql_ast.SelectQuery | None = None
    values: tuple | None = None
    views: dict | None = None
    base: object = None               # ResultSet | Cursor | databank plan
    outcome: object = None            # what the drain's combine returned
    seconds: float = 0.0

    def release(self) -> None:
        """Close an open databank cursor: it holds the read lock.
        Idempotent."""
        if isinstance(self.base, Cursor):
            self.base.close()

    def queries(self, name: str) -> list[str]:
        """Every text the stages called *name* ran, in order."""
        return [query for stage in self.stages if stage.name == name
                for query in stage.queries]

    def total(self, counter: str) -> int:
        return sum(getattr(stage, counter) for stage in self.stages)

    @cached_property
    def executed_sql(self) -> str:
        """The SQL put to the databank (rendered on first read)."""
        return render_query(self.executed, bound_to(self.values))


class SESQLEngine:
    """Executes SESQL queries against a databank + knowledge base pair."""

    def __init__(self, databank: Database,
                 knowledge_base: TripleStore | None = None,
                 mapping: ResourceMapping | None = None,
                 stored_queries: StoredQueryRegistry | None = None,
                 include_original: bool = False,
                 extraction_cache=None) -> None:
        self.databank = databank
        # Explicit None check: an *empty* TripleStore is falsy but must be
        # kept — the caller may populate it after constructing the engine.
        self.knowledge_base = (knowledge_base if knowledge_base is not None
                               else TripleStore())
        self.mapping = mapping or ResourceMapping()
        self.stored_queries = stored_queries or StoredQueryRegistry()
        self.include_original = include_original
        self.sqp = SemanticQueryParser()
        self.sqm = SemanticQueryModule(self.mapping, self.stored_queries,
                                       cache=extraction_cache)
        #: Telemetry hook (duck-typed): attached by the session layer /
        #: platform, cascaded to the SQM and the databank.
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Wire a telemetry bundle through the whole pipeline."""
        self.telemetry = telemetry
        self.sqm.attach_telemetry(telemetry)
        attach = getattr(self.databank, "attach_telemetry", None)
        if attach is not None:
            attach(telemetry)
        if telemetry is None:
            return
        metrics = telemetry.metrics
        stage_family = metrics.histogram(
            "repro_sesql_stage_seconds",
            "Wall time of the SESQL pipeline stages",
            labels=("stage",))
        self._tm_stage = {stage: stage_family.labels(stage)
                          for stage in _STAGES}
        self._tm_dedupe = metrics.counter(
            "repro_extraction_dedupe_total",
            "Duplicate extractions served from the per-statement memo")

    @property
    def extraction_cache(self):
        return self.sqm.cache

    # -- stage 1: parsing --------------------------------------------------------

    def parse(self, text: str) -> EnrichedQuery:
        """Run the SQP alone (stage 1 of the pipeline)."""
        return self.sqp.parse(text)

    # -- stage 2: SPARQL extraction ----------------------------------------------

    @staticmethod
    def extraction_key(enrichment: Enrichment) -> tuple:
        """The logical identity of an enrichment's SPARQL extraction.

        Two enrichments with the same key extract identical knowledge
        from the same KB — whatever tagged condition or stage (WHERE vs
        SELECT) they appear in — so one execution serves both.
        """
        if isinstance(enrichment, ReplaceConstant):
            return ("values", enrichment.prop, enrichment.constant)
        if isinstance(enrichment, (ReplaceVariable, SchemaExtension,
                                   SchemaReplacement)):
            return ("pairs", enrichment.prop)
        if isinstance(enrichment, (BoolSchemaExtension,
                                   BoolSchemaReplacement)):
            return ("subjects", enrichment.prop, enrichment.concept)
        raise EnrichmentError(  # pragma: no cover - exhaustive
            f"unhandled enrichment {enrichment.kind}")

    def extraction_for(self, enrichment: Enrichment, kb: TripleStore,
                       run: _PipelineRun) -> Extraction:
        """Run (or recall) the SQM extraction for one clause and append
        its stage record.  The run's memo dedupes identical extractions
        within the statement — each still gets its own record, reported
        as cached; the SQM's generation-keyed cache dedupes across
        statements and re-executions."""
        started = time.perf_counter()
        stage = _Stage("extract", enrichment.kind)
        key = self.extraction_key(enrichment)
        extraction = run.memo.get(key)
        if extraction is not None:
            stage.cached = True
            if self.telemetry is not None:
                self._tm_dedupe.inc()
        else:
            cache = self.sqm.cache
            hits, misses = ((cache.hits, cache.misses)
                            if cache is not None else (0, 0))
            if key[0] == "values":
                extraction = self.sqm.values_for(kb, enrichment.prop,
                                                 enrichment.constant)
            elif key[0] == "pairs":
                extraction = self.sqm.pairs_for(kb, enrichment.prop)
            else:
                extraction = self.sqm.subjects_for(kb, enrichment.prop,
                                                   enrichment.concept)
            run.memo[key] = extraction
            if cache is not None:
                stage.cache_hits = cache.hits - hits
                stage.cache_misses = cache.misses - misses
                stage.cached = stage.cache_hits > 0
        stage.queries.append(extraction.sparql)
        stage.seconds = time.perf_counter() - started
        run.stages.append(stage)
        return extraction

    # -- stage 3: WHERE rewrite + databank query ----------------------------------

    def apply_where_rewrites(self, enriched: EnrichedQuery,
                             plan: list[tuple[Enrichment, Extraction]],
                             include: bool, run: _PipelineRun
                             ) -> tuple[sql_ast.SelectQuery, bool]:
        """The query with its tagged conditions rewritten over the
        relations of their extractions, which *run* binds, and whether
        the rewrite was recalled; *enriched* itself is not changed."""
        rewritten, run.views, recalled = WhereRewriter(
            self.mapping).rewrite(enriched, plan, include)
        return rewritten, recalled

    # -- stage 4: combine ----------------------------------------------------------

    def _combiners(self, plan: list[tuple[Enrichment, Extraction]]) -> list:
        """The prepared combiner of each SELECT enrichment, in order."""
        join_manager = JoinManager(self.mapping)
        return [join_manager.prepare(enrichment, extraction)
                for enrichment, extraction in plan]

    @staticmethod
    def _fold(combiners: list, result: ResultSet) -> ResultSet:
        """*result* with every combiner applied, in order."""
        for combiner in combiners:
            result = combiner.combine(result)
        return result

    def combine_enrichments(self, base: ResultSet,
                            plan: list[tuple[Enrichment, Extraction]]
                            ) -> ResultSet:
        """JoinManager pass: fold each SELECT enrichment into the result."""
        return self._fold(self._combiners(plan), base)

    # -- the pipeline, written once ------------------------------------------------

    def _run(self, enriched: EnrichedQuery,
             knowledge_base: TripleStore | None,
             include_original: bool | None,
             databank, combine) -> _PipelineRun:
        """The Fig. 6 stage sequence; the callers are its drains.

        *databank* maps the (rewritten) query AST, its ``?`` values and
        the relations it reads (``None``: none) to the base outcome (a
        ``ResultSet``, a ``Cursor`` or a plan);
        *combine* maps ``(run, select_plan)`` to the drain's outcome.
        *enriched* is only read, and must come with a value
        for every ``?``.  On any error the run is released before the
        error propagates.
        """
        if enriched.parameter_count and enriched.values is None:
            raise ParameterError(
                f"statement has {enriched.parameter_count} '?' "
                "parameter(s); prepare it and bind values to run it")
        kb = knowledge_base if knowledge_base is not None \
            else self.knowledge_base
        include = (self.include_original if include_original is None
                   else include_original)
        run = _PipelineRun(enriched)
        tel = self.telemetry
        started = time.perf_counter()
        try:
            with (tel.span("sesql.extract", stage="where")
                  if tel is not None else _NOOP):
                where_plan = [
                    (enrichment, self.extraction_for(enrichment, kb, run))
                    for enrichment in enriched.where_enrichments()]
                run.values = enriched.values
                run.executed = enriched.query
                if where_plan:
                    stage = time.perf_counter()
                    run.executed, cached = self.apply_where_rewrites(
                        enriched, where_plan, include, run)
                    run.stages.append(_Stage(
                        "rewrite", seconds=time.perf_counter() - stage,
                        cached=cached))
            with (tel.span("sesql.sql") if tel is not None else _NOOP):
                stage = time.perf_counter()
                run.base = databank(run.executed, run.values, run.views)
                run.stages.append(_Stage(
                    "sql", seconds=time.perf_counter() - stage))
            with (tel.span("sesql.combine") if tel is not None else _NOOP):
                select_plan = [
                    (enrichment, self.extraction_for(enrichment, kb, run))
                    for enrichment in enriched.select_enrichments()]
                stage = time.perf_counter()
                run.outcome = combine(run, select_plan)
                if select_plan:
                    run.stages.append(_Stage(
                        "combine",
                        f"{len(select_plan)} SELECT enrichment(s)",
                        seconds=time.perf_counter() - stage))
        except BaseException:
            run.release()
            raise
        run.seconds = time.perf_counter() - started
        return run

    # -- drain 1: materialize ------------------------------------------------------

    def execute(self, text: str,
                knowledge_base: TripleStore | None = None,
                include_original: bool | None = None) -> SESQLResult:
        """Run a SESQL query; per-call arguments override engine defaults."""
        started = time.perf_counter()
        enriched = self.sqp.parse(text)
        parse_time = time.perf_counter() - started
        return self.execute_parsed(
            enriched, knowledge_base=knowledge_base,
            include_original=include_original, parse_time=parse_time)

    def execute_parsed(self, enriched: EnrichedQuery,
                       knowledge_base: TripleStore | None = None,
                       include_original: bool | None = None,
                       parse_time: float = 0.0) -> SESQLResult:
        """Run the pipeline on an already-parsed (or bound) query and
        materialize: the databank executes the rewritten SQL and the
        JoinManager folds the SELECT enrichments into its result."""
        def combine(run, select_plan):
            if not isinstance(run.base, ResultSet):  # pragma: no cover
                raise EnrichmentError("the SQL part did not produce rows")
            return self.combine_enrichments(run.base, select_plan)

        run = self._run(enriched, knowledge_base, include_original,
                        self.databank.execute_ast, combine)
        sql_at = [stage.name for stage in run.stages].index("sql")
        timings = {
            "parse": parse_time,
            "where_rewrite": sum(s.seconds for s in run.stages[:sql_at]),
            "sql": run.stages[sql_at].seconds,
            "combine": sum(s.seconds for s in run.stages[sql_at + 1:]),
            "total": parse_time + run.seconds,
        }
        if self.telemetry is not None:
            for name, hist in self._tm_stage.items():
                hist.observe(timings[name])
        return SESQLResult(
            result=run.outcome,
            enriched=run.enriched,
            executed=run.executed,
            executed_values=run.values,
            sparql_queries=run.queries("extract"),
            timings=timings,
            cache_hits=run.total("cache_hits"),
            cache_misses=run.total("cache_misses"),
            sparql_executions=sum(
                stage.name == "extract" and not stage.cached
                for stage in run.stages),
            db_plan=run.base.plan,
        )

    def query(self, text: str, **kwargs) -> ResultSet:
        """Execute and return just the enriched result rows."""
        return self.execute(text, **kwargs).result

    # -- drain 2: stream -----------------------------------------------------------

    def stream(self, text: str,
               knowledge_base: TripleStore | None = None,
               include_original: bool | None = None,
               page_size: int = 256) -> Cursor:
        """Run a SESQL query lazily, returning a :class:`Cursor`.

        The SQL stage streams from the databank (``LIMIT k`` stops
        after *k* rows) and SELECT enrichments are combined one page at
        a time, so the first enriched row is available long before the
        full result would have materialized.
        """
        enriched = self.sqp.parse(text)
        return self.stream_parsed(
            enriched, knowledge_base=knowledge_base,
            include_original=include_original, page_size=page_size)

    def stream_parsed(self, enriched: EnrichedQuery,
                      knowledge_base: TripleStore | None = None,
                      include_original: bool | None = None,
                      page_size: int = 256) -> Cursor:
        """Streaming counterpart of :meth:`execute_parsed`.

        Extraction and the WHERE rewrite still run eagerly — they are
        planning work and must precede the databank query — but the
        databank result is pulled through a cursor and each SELECT
        enrichment is folded in per *page_size* rows.  The cursor holds
        the databank's read lock until it is exhausted or closed;
        observers (``on_result`` context feeding) are not invoked for
        streamed executions.
        """
        if page_size < 1:
            raise EnrichmentError(
                f"page_size must be positive, got {page_size}")

        def prepare(run, select_plan):
            # The combiners are prepared once per cursor and applied
            # page after page.  Combining an empty page derives the
            # enriched column list (and validates the enrichment
            # attributes) up front.
            combiners = self._combiners(select_plan)
            probe = ResultSet(list(run.base.columns), [])
            return combiners, self._fold(combiners, probe).columns

        run = self._run(enriched, knowledge_base, include_original,
                        self.databank.stream_ast, prepare)
        base_cursor = run.base
        base_columns = list(base_cursor.columns)
        combiners, out_columns = run.outcome

        def pages():
            try:
                while True:
                    page = base_cursor.fetchmany(page_size)
                    if not page:
                        break
                    yield from self._fold(
                        combiners, ResultSet(base_columns, page)).rows
            finally:
                run.release()

        return Cursor(out_columns, pages(), on_close=run.release)

    # -- drain 3: explain ----------------------------------------------------------

    def explain_parsed(self, enriched: EnrichedQuery,
                       knowledge_base: TripleStore | None = None,
                       include_original: bool | None = None,
                       analyze: bool = False) -> _PipelineRun:
        """Run the pipeline with ``databank.explain`` in place of
        execution and no combine; returns the run, whose ``stages`` are
        the records an execution of the same statement would leave and
        whose ``base`` is the databank's plan (``None`` for a databank
        that cannot explain).  Planned with the extractions' relations
        bound, so enrichment-injected predicates are estimated like any
        others; ``analyze=True`` also runs the databank stage.
        """
        explain = getattr(self.databank, "explain", None)
        return self._run(
            enriched, knowledge_base, include_original,
            lambda query, values, views: (
                explain(query, analyze=analyze, params=values, views=views)
                if explain is not None else None),
            lambda run, select_plan: None)
