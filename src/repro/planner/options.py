"""Planner configuration.

Every :class:`~repro.relational.engine.Database` owns a
:class:`PlannerOptions` (on by default).  ``enabled=False`` compiles
every query exactly as written — the reference the equivalence tests
compare planned executions against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlannerOptions:
    """Feature flags and tuning knobs of the cost-based planner."""

    #: Off = compile the query exactly as written (every pass — constant
    #: folding, predicate pushdown, projection pruning, join re-ordering,
    #: index-probe joins — is skipped).
    enabled: bool = True

    def replace(self, **changes) -> "PlannerOptions":
        return replace(self, **changes)
