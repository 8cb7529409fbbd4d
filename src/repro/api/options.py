"""Per-session query defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..analysis.diagnostics import AnalysisOptions


@dataclass(frozen=True)
class QueryOptions:
    """Session-wide defaults; ``execute`` accepts per-call overrides.

    ``include_original`` defaults to ``None`` = *defer to the engine* —
    important when a session wraps an engine that was already
    configured (e.g. ``repro.connect(engine)``).
    """

    #: Keep the original constant/condition alongside the enrichment
    #: (the "include original" semantics toggle of DESIGN.md).
    include_original: bool | None = None
    #: Entries in the SESQL-text (or statement-shape) → parsed-template
    #: LRU (0 disables it, and with it literal lifting).
    plan_cache_size: int = 128
    #: Static-analysis behaviour at ``prepare()`` time: ``None`` means
    #: the defaults (analyze, attach diagnostics, never raise); pass
    #: ``AnalysisOptions(strict=True)`` to reject statements with
    #: errors, or ``AnalysisOptions(enabled=False)`` to skip analysis.
    analysis: AnalysisOptions | None = None

    def replace(self, **changes) -> "QueryOptions":
        return dataclasses.replace(self, **changes)
