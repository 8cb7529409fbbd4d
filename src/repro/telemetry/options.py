"""Configuration for the telemetry subsystem.

Mirrors :class:`repro.durability.DurabilityOptions`: a frozen dataclass
validated at construction, passed to ``repro.connect(telemetry=...)`` or
the ``CrossePlatform`` constructor.  Telemetry is **off by default** —
no options object means no registry, no tracer, and the instrumented
code paths reduce to a single ``is None`` check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: Default latency histogram buckets (seconds) — log-ish spacing from
#: 100 µs to 10 s, matching the range observed across the bench suite.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True)
class TelemetryOptions:
    """Tuning knobs for metrics, tracing and the slow-query log.

    enabled
        Master switch.  ``TelemetryOptions(enabled=False)`` behaves
        exactly like passing no telemetry at all.
    slow_query_threshold_s
        Root spans whose wall time exceeds this land in the slow-query
        log (with their full span tree and plan).  ``0`` logs every
        query; ``None`` disables the slow-query log.
    trace_retention
        How many recent root spans the tracer keeps addressable by
        ``query_id`` (ring buffer; older traces are dropped).
    latency_buckets
        Upper bounds (seconds) for every latency histogram.
    """

    enabled: bool = True
    slow_query_threshold_s: float | None = 0.25
    trace_retention: int = 128
    latency_buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS

    def __post_init__(self) -> None:
        if self.slow_query_threshold_s is not None \
                and self.slow_query_threshold_s < 0:
            raise ValueError("slow_query_threshold_s must be >= 0 or None")
        if self.trace_retention < 1:
            raise ValueError("trace_retention must be >= 1")
        buckets = tuple(float(b) for b in self.latency_buckets)
        if not buckets:
            raise ValueError("latency_buckets must not be empty")
        if any(b <= 0 for b in buckets):
            raise ValueError("latency buckets must be positive")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("latency buckets must be strictly increasing")
        object.__setattr__(self, "latency_buckets", buckets)

    def replace(self, **changes) -> "TelemetryOptions":
        """A copy with *changes* applied (options are immutable)."""
        return dataclasses.replace(self, **changes)
