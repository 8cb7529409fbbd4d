"""Cost-based query planning for the relational engine.

The planner turns a parsed SELECT into a cheaper, semantically
equivalent plan before compilation:

* :mod:`repro.planner.stats` — the statistics catalog (``ANALYZE``
  collection, incremental maintenance on DML, equi-width histograms);
* :mod:`repro.planner.estimate` — selectivity / cardinality estimation;
* :mod:`repro.planner.cost` — the physical cost model;
* :mod:`repro.planner.rewrite` — logical rewrites (constant folding,
  predicate pushdown, projection pruning);
* :mod:`repro.planner.joins` — join-order optimization (left-deep DP up
  to :data:`~repro.planner.joins.DP_RELATION_LIMIT` relations, greedy
  beyond)
  with a physical strategy — hash, index probe or nested loop — chosen
  per join;
* :mod:`repro.planner.plan` — the driver producing a
  :class:`PlannedStatement`: the rewritten AST plus the executable
  operator tree (:mod:`repro.relational.operators`) built from it, which
  records estimated and (after execution) actual rows per operator.

The planner is wired into :class:`repro.relational.Database` (on by
default, see :class:`PlannerOptions`), which makes every layer above —
the SESQL engine's rewritten WHERE clauses, sessions, the federation
mediator's scratch database — benefit transparently.
"""

from .cost import CostModel, JoinChoice
from .estimate import (equality_selectivity, join_selectivity,
                       predicate_selectivity, range_selectivity)
from .options import PlannerOptions
from .plan import PlannedStatement, plan_select
from .stats import ColumnStats, Histogram, StatisticsCatalog, TableStats

__all__ = [
    "PlannerOptions", "PlannedStatement", "plan_select",
    "CostModel", "JoinChoice",
    "StatisticsCatalog", "TableStats", "ColumnStats", "Histogram",
    "predicate_selectivity", "equality_selectivity", "range_selectivity",
    "join_selectivity",
]
