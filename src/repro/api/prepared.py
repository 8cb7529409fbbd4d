"""Prepared SESQL queries: parse once, bind and execute many times."""

from __future__ import annotations

from ..core.ast import EnrichedQuery
from ..core.errors import ParameterError
from ..core.sqp import bind_parameters, clone_enriched


class PreparedQuery:
    """A SESQL statement parsed once, executable with ``?`` parameters.

    Obtained from :meth:`repro.api.Session.prepare`.  The underlying
    template lives in the session's plan cache; every execution binds a
    fresh copy, so a prepared query can be reused (and shared) freely.
    """

    def __init__(self, session, text: str, template: EnrichedQuery,
                 parameter_count: int, from_cache: bool = False,
                 parse_time_s: float = 0.0, diagnostics=None) -> None:
        self._session = session
        self.text = text
        self._template = template
        self.parameter_count = parameter_count
        #: Whether ``prepare`` found the template in the plan cache.
        self.from_cache = from_cache
        #: Wall time the SQP spent parsing (0.0 on plan-cache hits);
        #: traced executions report it as a synthetic ``sesql.parse``
        #: span so the tree covers the whole pipeline.
        self.parse_time_s = parse_time_s
        #: The static-analysis :class:`~repro.analysis.AnalysisReport`
        #: for the template (computed once per template, shared across
        #: plan-cache hits), or ``None`` when analysis is disabled.
        self.diagnostics = diagnostics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PreparedQuery({self.text!r}, "
                f"parameters={self.parameter_count})")

    # -- binding ------------------------------------------------------------

    def bind(self, params=None) -> EnrichedQuery:
        """A private, parameter-substituted copy of the template."""
        values = tuple(params) if params is not None else ()
        if len(values) != self.parameter_count:
            raise ParameterError(
                f"query expects {self.parameter_count} parameter(s), "
                f"got {len(values)}")
        if not values:
            return clone_enriched(self._template)
        return bind_parameters(self._template, values)

    # -- execution ----------------------------------------------------------

    def execute(self, params=None, *, include_original=None,
                join_strategy=None):
        """Run the query; skips re-parsing and re-runs only stale SPARQL."""
        return self._session._execute_prepared(
            self, params, include_original, join_strategy)

    def execute_many(self, param_rows) -> list:
        """Execute once per parameter row, reusing the parsed template."""
        return [self.execute(row) for row in param_rows]

    def stream(self, params=None, *, include_original=None,
               join_strategy=None, page_size: int = 256):
        """Run lazily: a :class:`~repro.relational.Cursor` whose rows
        are produced as fetched, with SELECT enrichments combined one
        page at a time (see :meth:`repro.api.Session.stream`)."""
        return self._session._stream_prepared(
            self, params, include_original, join_strategy, page_size)

    def explain(self, params=None, *, analyze: bool = False):
        """The :class:`~repro.api.QueryPlan`; by default nothing is
        executed.  ``analyze=True`` runs the databank stage so the
        operator tree reports actual rows alongside the estimates."""
        return self._session._explain_prepared(self, params,
                                               analyze=analyze)
