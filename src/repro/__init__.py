"""repro — reproduction of "Contextually-Enriched Querying of Integrated
Data Sources" (Cavallo et al., ICDE 2018).

The canonical way to query anything in this package is the **unified
session API**::

    import repro

    session = repro.connect(databank, knowledge_base=kb)
    prepared = session.prepare(
        "SELECT elem_name FROM elem_contained WHERE amount > ? "
        "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    print(prepared.explain([10.0]).format())   # plan, SPARQL, rewritten SQL
    outcome = prepared.execute([10.0])         # parse cached, SPARQL memoized

``connect`` accepts a plain :class:`~repro.relational.Database`, a
:class:`~repro.crosse.CrossePlatform` (``.as_user(name)`` gives each
user her contextualised session over one cached engine), or a
:class:`~repro.federation.Mediator` (global-schema session with view
materialization reuse).  The historical entry points —
``SESQLEngine.execute``, ``CrossePlatform.run_sesql`` and
``Mediator.query`` — remain supported and now delegate to (or share
machinery with) sessions.

Layers:

* :mod:`repro.api` — sessions, prepared queries, plan/extraction
  caches, ``explain()``
* :mod:`repro.relational` — in-memory SQL engine (the databank substrate)
* :mod:`repro.rdf` / :mod:`repro.sparql` — RDF triple store + SPARQL subset
  (the personal knowledge-base substrate)
* :mod:`repro.core` — the SESQL language and its processing pipeline
  (the paper's primary contribution)
* :mod:`repro.crosse` — users, semantic tagging, knowledge sharing,
  context tracking, recommendations and previews
* :mod:`repro.federation` — foreign data wrappers and the GAV mediator
* :mod:`repro.smartground` — the SmartGround use case: schema, synthetic
  data and contextual ontologies
"""

from .api import (PlanCache, PlatformSession, PreparedQuery, QueryOptions,
                  QueryPlan, Session, SessionError, connect)
from .durability import (DurabilityError, DurabilityManager,
                         DurabilityOptions, RecoveryReport)
from .planner import PlannedStatement, PlannerOptions, StatisticsCatalog
from .relational import Operator
from .telemetry import (MetricsRegistry, Span, Telemetry, TelemetryOptions,
                        Tracer)

__all__ = [
    "connect", "Session", "PlatformSession", "PreparedQuery",
    "QueryOptions", "QueryPlan", "PlanCache", "SessionError",
    "PlannerOptions", "PlannedStatement", "Operator",
    "StatisticsCatalog", "DurabilityOptions", "DurabilityManager",
    "DurabilityError", "RecoveryReport",
    "Telemetry", "TelemetryOptions", "MetricsRegistry", "Tracer", "Span",
]

__version__ = "0.5.0"
