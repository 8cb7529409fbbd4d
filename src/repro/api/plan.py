"""Structured query plans returned by ``Session.explain()``.

``explain()`` is the third drain of the engine's one pipeline run (see
:mod:`repro.core.engine`): the same stage sequence an execution goes
through — SPARQL extraction, WHERE rewrite, databank, extraction again —
with ``databank.explain`` in place of the databank query and no combine
join.  By default the databank plans the statement without running it;
the rest is not free: the extractions run, and a
:class:`~repro.federation.MediatedDatabank` ships the views the
statement reads as ``execute`` would ship them.  The session prepends the parse (or plan-cache recall) and bind stages and
:func:`plan_stages` renders the run's stage records; the stage list,
every SPARQL text, the rewritten SQL and the cache counters are
therefore what an execution records, by construction.  The databank's
cost-based operator tree carries estimated rows per operator;
``explain(..., analyze=True)`` additionally runs the databank stage, so
every operator reports estimated *and* actual rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PlanStage:
    """One step of the pipeline as it would run.

    SESQL sessions emit ``parse | bind | extract | rewrite | sql |
    combine`` stages; mediator sessions emit ``prune | materialize |
    sql``, where one ``materialize`` stage may carry a whole *batch* of
    fragments the federation executor ships in parallel.
    """

    name: str
    description: str
    queries: list[str] = field(default_factory=list)
    cached: bool = False      # served from a cache rather than computed

    def format(self) -> str:
        marker = " [cached]" if self.cached else ""
        lines = [f"{self.name}{marker}: {self.description}"]
        lines.extend(f"    {query}" for query in self.queries)
        return "\n".join(lines)


def plan_stages(records, sql: str,
                analyze: bool = False) -> list[PlanStage]:
    """The engine's stage records (``extract | rewrite | sql |
    combine``, as the pipeline run appended them) as plan stages; the
    rewrite and SQL stages show *sql*, the SQL put to the databank."""
    describe = {
        "extract": "SQM extraction for {}",
        "rewrite": "tagged conditions rewritten over extraction temp "
                   "tables",
        "sql": ("databank executed the (rewritten) SQL [analyze]"
                if analyze else "databank executes the (rewritten) SQL"),
        "combine": "JoinManager folds {}",
    }
    return [PlanStage(record.name,
                      describe[record.name].format(record.detail),
                      [sql] if record.name in ("rewrite", "sql")
                      else list(record.queries), cached=record.cached)
            for record in records]


@dataclass
class QueryPlan:
    """What executing the statement would do, without doing it."""

    statement: str            # the SESQL text as given (placeholders intact)
    base_sql: str             # cleaned SQL part
    rewritten_sql: str        # SQL after the WHERE-enrichment rewrite
    stages: list[PlanStage] = field(default_factory=list)
    sparql_queries: list[str] = field(default_factory=list)
    cache_hits: int = 0       # extractions recalled from the memo
    cache_misses: int = 0
    parse_cached: bool = False  # template came from the plan cache
    #: The databank's cost-based plan for the (rewritten) SQL stage — a
    #: :class:`repro.planner.PlannedStatement` whose operator tree
    #: carries estimated rows (and actual rows under ``analyze=True``).
    db_plan: object | None = None
    #: The static-analysis :class:`~repro.analysis.AnalysisReport` for
    #: the statement (``None`` when analysis is disabled).
    diagnostics: object | None = None

    def operators(self) -> list:
        """The databank plan's operator nodes, outermost first."""
        if self.db_plan is None:
            return []
        return list(self.db_plan.root.walk())

    def format(self) -> str:
        """Pretty multi-line rendering (EXPLAIN-style)."""
        lines = [f"plan for: {' '.join(self.statement.split())}"]
        for stage in self.stages:
            lines.append("  " + stage.format().replace("\n", "\n  "))
        if self.db_plan is not None:
            lines.append("  databank operators (est/actual rows):")
            lines.append("    "
                         + self.db_plan.format().replace("\n", "\n    "))
        if self.diagnostics is not None and len(self.diagnostics):
            lines.append("  diagnostics:")
            for diagnostic in self.diagnostics:
                lines.append("    " + diagnostic.format())
        lines.append(f"  cache: {self.cache_hits} hit(s), "
                     f"{self.cache_misses} miss(es)")
        return "\n".join(lines)
