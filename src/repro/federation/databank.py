"""A mediated global schema, usable anywhere a Database is expected.

:class:`MediatedDatabank` is a :class:`~repro.relational.Database`
whose tables are the mediator's global views: before executing any
SELECT it ships the views the statement references (through its
embedded :class:`~repro.federation.MediatorSession`, with
materialization reuse), then runs the statement locally with those
views bound to the run, beside any relations its caller binds (a SESQL
run's extractions) — a view is a leaf of the statement's operator
tree, never a table of this database.  That makes federated sources
composable with every layer built on the Database protocol — most
importantly the SESQL engine::

    session = repro.connect(mediator.as_databank(), knowledge_base=kb,
                            telemetry=TelemetryOptions())

gives a SESQL session whose FROM tables are mediated views: one query
produces one span tree covering parse → extraction → fragment shipping
(per-source child spans) → local execution → combine.
"""

from __future__ import annotations

from ..relational import ast as sql_ast
from ..relational.engine import Database
from ..relational.result import Cursor
from ..relational.table import BoundView
from .executor import FederationOptions
from .mediator import MediationReport, Mediator, MediatorSession


class MediatedDatabank(Database):
    """A Database whose base tables are mediated global views."""

    def __init__(self, mediator: Mediator,
                 options: FederationOptions | None = None,
                 name: str = "mediated") -> None:
        super().__init__(name)
        #: The embedded session: owns the held views and runs its
        #: statements in *this* database, so they read any local/temp
        #: tables callers create here beside the views.
        self.session = MediatorSession(mediator, options, scratch=self)
        #: The :class:`MediationReport` of the most recent shipping
        #: pass (view pruning, per-source timings, warnings).
        self.last_report: MediationReport | None = None

    @property
    def mediator(self) -> Mediator:
        return self.session.mediator

    def attach_telemetry(self, telemetry) -> None:
        super().attach_telemetry(telemetry)
        # The session guards against re-attaching its scratch (= self),
        # so this cascade terminates.
        self.session.attach_telemetry(telemetry)

    def refresh(self, views: list[str] | None = None) -> None:
        """Drop held view materializations (see MediatorSession)."""
        self.session.refresh(views)

    # -- query paths: ship, then run locally with the views bound --------
    #
    # A prepared statement runs as it is, its values beside it: what it
    # ships is derived once per template (the session's ship template),
    # and the local statement re-drives the tree this database keeps
    # for it with each run's values and views.

    def execute_ast(self, stmt: sql_ast.Statement,
                    params: tuple | None = None,
                    views: dict[str, BoundView] | None = None):
        if not isinstance(stmt, sql_ast.SelectQuery):
            return super().execute_ast(stmt)
        with self.session.shipped(stmt, params=params) \
                as (self.last_report, shipped):
            return super().execute_ast(stmt, params,
                                       _beside(shipped, views))

    def stream_ast(self, query: sql_ast.SelectQuery,
                   params: tuple | None = None,
                   views: dict[str, BoundView] | None = None) -> Cursor:
        # Pushdown is off, as for MediatorSession.stream: what a stream
        # ships is held for the queries after it.
        with self.session.shipped(query, pushdown=False, params=params) \
                as (self.last_report, shipped):
            return super().stream_ast(query, params,
                                      _beside(shipped, views))

    def explain(self, target, analyze: bool = False,
                params: tuple | None = None,
                views: dict[str, BoundView] | None = None):
        """Plan *target* over exactly what ``execute`` would ship for it
        (same pushdown) — nothing at all for a statement that is not a
        SELECT."""
        from ..relational.parser import parse_sql
        stmt = parse_sql(target) if isinstance(target, str) else target
        if not isinstance(stmt, sql_ast.SelectQuery):
            return super().explain(stmt, analyze)    # refuses it
        with self.session.shipped(stmt, params=params) \
                as (self.last_report, shipped):
            return super().explain(stmt, analyze, params,
                                   _beside(shipped, views))


def _beside(shipped: dict[str, BoundView],
            bound: dict[str, BoundView] | None) -> dict[str, BoundView]:
    """The run's shipped views and the relations its caller bound (a
    SESQL run's extractions, whose names are never views)."""
    return {**shipped, **bound} if bound else shipped
