"""The SESQL engine: the full Fig. 6 pipeline behind one call.

``SESQLEngine.execute`` runs a SESQL query end to end:

1. the **SQP** splits the text, strips condition tags and parses both
   the SQL part and the enrichment specification;
2. the **SQM** builds one SPARQL extraction per enrichment and runs it
   on the (per-user) knowledge base;
3. WHERE enrichments rewrite the tagged conditions over temp tables
   injected next to the databank tables, and the (rewritten) SQL query
   executes on the databank;
4. the **JoinManager** combines the base result with each SELECT
   enrichment through the temporary support database, issuing the final
   SQL query that yields the enriched result.

The pipeline is factored into *resumable stages* so the session layer
(:mod:`repro.api`) can drive them independently: ``execute_parsed``
accepts a pre-parsed (prepared) query and skips the SQP, while
``extraction_plan`` / ``apply_where_rewrites`` let ``explain()`` run the
planning stages without touching the databank result.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..rdf.store import TripleStore
from ..relational.engine import Database
from ..relational.render import render_query
from ..relational.result import Cursor, ResultSet
from .ast import (BoolSchemaExtension, BoolSchemaReplacement, EnrichedQuery,
                  Enrichment, ReplaceConstant, ReplaceVariable,
                  SchemaExtension, SchemaReplacement)
from .enrichment import WhereRewriter
from .errors import EnrichmentError
from .join_manager import JoinManager
from .mapping import ResourceMapping
from .sqm import Extraction, SemanticQueryModule
from .sqp import SemanticQueryParser, clone_enriched
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
    base_sql: str                 # cleaned SQL as parsed
    executed_sql: str             # SQL actually run on the databank
    sparql_queries: list[str] = field(default_factory=list)
    final_sqls: list[str] = field(default_factory=list)
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


class SESQLEngine:
    """Executes SESQL queries against a databank + knowledge base pair."""

    def __init__(self, databank: Database,
                 knowledge_base: TripleStore | None = None,
                 mapping: ResourceMapping | None = None,
                 stored_queries: StoredQueryRegistry | None = None,
                 include_original: bool = False,
                 join_strategy: str = "tempdb",
                 extraction_cache=None) -> None:
        self.databank = databank
        # Explicit None check: an *empty* TripleStore is falsy but must be
        # kept — the caller may populate it after constructing the engine.
        self.knowledge_base = (knowledge_base if knowledge_base is not None
                               else TripleStore())
        self.mapping = mapping or ResourceMapping()
        self.stored_queries = stored_queries or StoredQueryRegistry()
        self.include_original = include_original
        self.join_strategy = join_strategy
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

    def extraction_for(self, enrichment: Enrichment,
                       kb: TripleStore,
                       memo: dict | None = None) -> Extraction:
        """Run (or recall from cache/memo) the SQM extraction for one
        clause.  *memo* dedupes identical extractions within a single
        statement; the SQM's generation-keyed cache dedupes across
        statements and re-executions."""
        key = self.extraction_key(enrichment)
        if memo is not None:
            found = memo.get(key)
            if found is not None:
                if self.telemetry is not None:
                    self._tm_dedupe.inc()
                return found
        if key[0] == "values":
            extraction = self.sqm.values_for(kb, enrichment.prop,
                                             enrichment.constant)
        elif key[0] == "pairs":
            extraction = self.sqm.pairs_for(kb, enrichment.prop)
        else:
            extraction = self.sqm.subjects_for(kb, enrichment.prop,
                                               enrichment.concept)
        if memo is not None:
            memo[key] = extraction
        return extraction

    def extraction_plan(self, enriched: EnrichedQuery, kb: TripleStore,
                        which: str, memo: dict | None = None
                        ) -> list[tuple[Enrichment, Extraction]]:
        """Extractions for the ``"where"`` or ``"select"`` enrichments.

        Pass one *memo* dict across both stages of a statement so a
        WHERE and a SELECT enrichment over the same property (or stored
        query) evaluate their SPARQL once.
        """
        enrichments = (enriched.where_enrichments() if which == "where"
                       else enriched.select_enrichments())
        return [(enrichment, self.extraction_for(enrichment, kb, memo))
                for enrichment in enrichments]

    # -- stage 3: WHERE rewrite + databank query ----------------------------------

    def apply_where_rewrites(self, enriched: EnrichedQuery,
                             plan: list[tuple[Enrichment, Extraction]],
                             include_original: bool) -> WhereRewriter:
        """Rewrite tagged conditions in place over materialized temp tables.

        The caller owns the returned rewriter and must ``cleanup()`` it
        once the databank query has run (or been skipped, for explain).
        """
        rewriter = WhereRewriter(self.databank, self.mapping,
                                 include_original)
        try:
            for enrichment, extraction in plan:
                condition = enriched.conditions[enrichment.cond]
                if isinstance(enrichment, ReplaceConstant):
                    rewriter.apply_replace_constant(
                        enriched.query, enrichment, condition, extraction)
                else:
                    rewriter.apply_replace_variable(
                        enriched.query, enrichment, condition, extraction)
        except BaseException:
            rewriter.cleanup()
            raise
        return rewriter

    # -- stage 4: combine ----------------------------------------------------------

    def combine_enrichments(self, base: ResultSet,
                            plan: list[tuple[Enrichment, Extraction]],
                            join_strategy: str,
                            final_sqls: list[str]) -> ResultSet:
        """JoinManager pass: fold each SELECT enrichment into the result."""
        join_manager = JoinManager(self.mapping, join_strategy)
        current = base
        for enrichment, extraction in plan:
            outcome = join_manager.combine(current, enrichment, extraction)
            current = outcome.result
            if outcome.final_sql is not None:
                final_sqls.append(outcome.final_sql)
        return current

    # -- the full pipeline ---------------------------------------------------------

    def execute(self, text: str,
                knowledge_base: TripleStore | None = None,
                include_original: bool | None = None,
                join_strategy: str | None = None) -> SESQLResult:
        """Run a SESQL query; per-call arguments override engine defaults."""
        started = time.perf_counter()
        enriched = self.sqp.parse(text)
        parse_time = time.perf_counter() - started
        # The freshly parsed AST is private to this call, so the rewrite
        # stage may mutate it directly (reuse_ast=True).
        return self.execute_parsed(
            enriched, knowledge_base=knowledge_base,
            include_original=include_original, join_strategy=join_strategy,
            reuse_ast=True, parse_time=parse_time)

    def execute_parsed(self, enriched: EnrichedQuery,
                       knowledge_base: TripleStore | None = None,
                       include_original: bool | None = None,
                       join_strategy: str | None = None,
                       reuse_ast: bool = False,
                       parse_time: float = 0.0) -> SESQLResult:
        """Run stages 2-4 on an already-parsed (e.g. prepared) query.

        Unless ``reuse_ast`` is set, *enriched* is deep-copied first: the
        WHERE rewrite mutates the query AST, and a prepared template must
        survive the call unchanged.
        """
        kb = knowledge_base if knowledge_base is not None \
            else self.knowledge_base
        include = (self.include_original if include_original is None
                   else include_original)
        strategy = join_strategy or self.join_strategy
        if not reuse_ast:
            enriched = clone_enriched(enriched)

        started = time.perf_counter()
        timings = {"parse": parse_time}
        sparql_queries: list[str] = []
        final_sqls: list[str] = []
        cache = self.sqm.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        executions_before = self.sqm.sparql_execution_count()
        tel = self.telemetry
        # One memo across the WHERE and SELECT stages: identical logical
        # extractions within this statement execute once.
        memo: dict = {}

        stage = time.perf_counter()
        with (tel.span("sesql.extract", stage="where")
              if tel is not None else _NOOP):
            where_plan = self.extraction_plan(enriched, kb, "where", memo)
            sparql_queries.extend(x.sparql for _e, x in where_plan)
            rewriter = self.apply_where_rewrites(enriched, where_plan,
                                                 include)
        timings["where_rewrite"] = time.perf_counter() - stage

        db_plan = None
        try:
            executed_sql = render_query(enriched.query)
            stage = time.perf_counter()
            with (tel.span("sesql.sql") if tel is not None else _NOOP):
                base = self.databank.execute_ast(enriched.query)
            timings["sql"] = time.perf_counter() - stage
            if not isinstance(base, ResultSet):  # pragma: no cover
                raise EnrichmentError("the SQL part did not produce rows")
            db_plan = base.plan
        finally:
            rewriter.cleanup()

        stage = time.perf_counter()
        with (tel.span("sesql.combine", strategy=strategy)
              if tel is not None else _NOOP):
            select_plan = self.extraction_plan(enriched, kb, "select", memo)
            sparql_queries.extend(x.sparql for _e, x in select_plan)
            current = self.combine_enrichments(base, select_plan, strategy,
                                               final_sqls)
        timings["combine"] = time.perf_counter() - stage
        timings["total"] = parse_time + time.perf_counter() - started
        if tel is not None:
            for name, hist in self._tm_stage.items():
                if name in timings:
                    hist.observe(timings[name])

        return SESQLResult(
            result=current,
            enriched=enriched,
            base_sql=enriched.sql_text,
            executed_sql=executed_sql,
            sparql_queries=sparql_queries,
            final_sqls=final_sqls,
            timings=timings,
            cache_hits=(cache.hits - hits_before
                        if cache is not None else 0),
            cache_misses=(cache.misses - misses_before
                          if cache is not None else 0),
            sparql_executions=(self.sqm.sparql_execution_count()
                               - executions_before),
            db_plan=db_plan,
        )

    def query(self, text: str, **kwargs) -> ResultSet:
        """Execute and return just the enriched result rows."""
        return self.execute(text, **kwargs).result

    # -- streaming -----------------------------------------------------------------

    def stream(self, text: str,
               knowledge_base: TripleStore | None = None,
               include_original: bool | None = None,
               join_strategy: str | None = None,
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
            include_original=include_original, join_strategy=join_strategy,
            reuse_ast=True, page_size=page_size)

    def stream_parsed(self, enriched: EnrichedQuery,
                      knowledge_base: TripleStore | None = None,
                      include_original: bool | None = None,
                      join_strategy: str | None = None,
                      reuse_ast: bool = False,
                      page_size: int = 256) -> Cursor:
        """Streaming counterpart of :meth:`execute_parsed`.

        Stages 2-3 (SPARQL extraction, WHERE rewrite) still run eagerly
        — they are planning work and must precede the databank query —
        but the databank result is pulled through a cursor and each
        SELECT enrichment is folded in per *page_size* rows.  The
        enrichment temp tables live until the returned cursor is
        exhausted or closed; observers (``on_result`` context feeding)
        are not invoked for streamed executions.
        """
        if page_size < 1:
            raise EnrichmentError(
                f"page_size must be positive, got {page_size}")
        kb = knowledge_base if knowledge_base is not None \
            else self.knowledge_base
        include = (self.include_original if include_original is None
                   else include_original)
        strategy = join_strategy or self.join_strategy
        if not reuse_ast:
            enriched = clone_enriched(enriched)

        tel = self.telemetry
        memo: dict = {}
        with (tel.span("sesql.extract", stage="where")
              if tel is not None else _NOOP):
            where_plan = self.extraction_plan(enriched, kb, "where", memo)
            rewriter = self.apply_where_rewrites(enriched, where_plan,
                                                 include)
        cleaned = [False]

        def cleanup() -> None:
            if not cleaned[0]:
                cleaned[0] = True
                rewriter.cleanup()

        try:
            base_cursor = self.databank.stream_ast(enriched.query)
            with (tel.span("sesql.extract", stage="select")
                  if tel is not None else _NOOP):
                select_plan = self.extraction_plan(enriched, kb, "select",
                                                   memo)
            # Extraction-side combine structures are built ONCE per
            # cursor and applied page after page (hash-probe semantics
            # identical to the tempdb final-SQL LEFT JOIN, whatever the
            # configured strategy).
            join_manager = JoinManager(self.mapping, strategy)
            combiners = [join_manager.prepare(enrichment, extraction)
                         for enrichment, extraction in select_plan]
            base_columns = list(base_cursor.columns)
            # Combining an empty page derives the enriched column list
            # (and validates the enrichment attributes) up front.
            probe = ResultSet(base_columns, [])
            for combiner in combiners:
                probe = combiner.combine(probe)
            out_columns = probe.columns
        except BaseException:
            cleanup()
            raise

        def pages():
            try:
                while True:
                    page = base_cursor.fetchmany(page_size)
                    if not page:
                        break
                    current = ResultSet(base_columns, page)
                    for combiner in combiners:
                        current = combiner.combine(current)
                    yield from current.rows
            finally:
                base_cursor.close()
                cleanup()

        def on_close() -> None:
            base_cursor.close()
            cleanup()

        return Cursor(out_columns, pages(), on_close=on_close)
