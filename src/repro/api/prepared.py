"""Prepared SESQL queries: parse once, bind and execute many times.

A template's ``?`` placeholders are ``Param`` nodes of its syntax tree,
and :meth:`PreparedQuery.bind` checks the values and hands them to the
pipeline beside the template — nothing is copied and nothing is
spliced: the databank runs the template's one operator tree with the
values in its slots.  A statement the WHERE rewrite changes is
rewritten once per set of extraction relations, with its ``?`` intact,
and its tree is kept the same way.  Nothing ever writes to the
template, so it is shared freely.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import replace
from functools import cached_property

from ..core.ast import EnrichedQuery
from ..core.errors import ParameterError

#: Python types a parameter may carry (preserved end to end).
_BINDABLE = (bool, int, float, str)


def parameter_row(params) -> tuple:
    """*params* — a sequence of values, or None for none — as a tuple.

    A string, bytes or a mapping is iterable but is not a row of
    values: binding its characters or its keys would run a query the
    caller never wrote, so it is rejected like anything not iterable.
    """
    if params is None:
        return ()
    if isinstance(params, (str, bytes, Mapping)) \
            or not isinstance(params, Iterable):
        raise ParameterError(
            "parameters must be a sequence of values, got "
            f"{type(params).__name__}")
    return tuple(params)


class PreparedQuery:
    """A SESQL statement parsed once, executable with ``?`` parameters.

    Obtained from :meth:`repro.api.Session.prepare`.  The underlying
    template lives in the session's plan cache and is only ever read,
    so a prepared query can be reused (and shared) freely.
    """

    def __init__(self, session, text: str, template: EnrichedQuery,
                 from_cache: bool = False, parse_time_s: float = 0.0,
                 diagnostics=None) -> None:
        self._session = session
        self.text = text
        self._template = template
        #: Whether ``prepare`` found the template in the plan cache.
        self.from_cache = from_cache
        #: Wall time the SQP spent parsing (0.0 on plan-cache hits);
        #: traced executions report it as a synthetic ``sesql.parse``
        #: span so the tree covers the whole pipeline.
        self.parse_time_s = parse_time_s
        self._report = diagnostics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PreparedQuery({self.text!r}, "
                f"parameters={self.parameter_count})")

    @cached_property
    def diagnostics(self):
        """The static-analysis :class:`~repro.analysis.AnalysisReport`
        for the template (computed once per template, shared across
        plan-cache hits), or ``None`` when analysis is disabled.  An
        inlined statement may be handed its shape's report: it is
        restated for this statement's text on first read."""
        report, sql_text = self._report, self._template.sql_text
        if report is None or report.statement == sql_text:
            return report
        return replace(report, statement=sql_text,
                       diagnostics=list(report.diagnostics))

    @property
    def parameter_count(self) -> int:
        return self._template.parameter_count

    # -- binding ------------------------------------------------------------

    def bind(self, params=None) -> EnrichedQuery:
        """The statement one execution runs: the template itself when
        it has no parameters, else the template with *params* as its
        ``values``.  Values reach the databank as values — never
        interpolated into SQL text — which preserves their Python types
        (None/bool/int/float/str) and is immune to SQL injection."""
        values = parameter_row(params)
        template = self._template
        if len(values) != template.parameter_count:
            raise ParameterError(
                f"query expects {template.parameter_count} parameter(s), "
                f"got {len(values)}")
        if not values:
            return template
        for value in values:
            if value is not None and not isinstance(value, _BINDABLE):
                raise ParameterError(
                    f"cannot bind parameter of type {type(value).__name__}; "
                    "supported: None, bool, int, float, str")
        return EnrichedQuery(template.sql_text, template.query,
                             template.enrichments, template.conditions,
                             template.parameter_count, values)

    # -- execution ----------------------------------------------------------

    def execute(self, params=None, *, include_original=None):
        """Run the query; skips re-parsing and re-runs only stale SPARQL."""
        return self._session._execute_prepared(self, params,
                                               include_original)

    def execute_many(self, param_rows) -> list:
        """Execute once per parameter row, reusing the parsed template."""
        return [self.execute(row) for row in param_rows]

    def stream(self, params=None, *, include_original=None,
               page_size: int = 256):
        """Run lazily: a :class:`~repro.relational.Cursor` whose rows
        are produced as fetched, with SELECT enrichments combined one
        page at a time (see :meth:`repro.api.Session.stream`)."""
        return self._session._stream_prepared(
            self, params, include_original, page_size)

    def explain(self, params=None, *, analyze: bool = False):
        """The :class:`~repro.api.QueryPlan`: the run up to the
        databank, extractions included, whose statement the databank
        plans but by default does not run — a mediated databank still
        ships the views it reads, as ``execute`` would.
        ``analyze=True`` runs the databank stage so the operator tree
        reports actual rows alongside the estimates."""
        return self._session._explain_prepared(self, params,
                                               analyze=analyze)
