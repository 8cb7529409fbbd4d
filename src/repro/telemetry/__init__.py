"""repro.telemetry — metrics, query tracing and the slow-query log.

The subsystem follows the durability playbook: core layers never import
it.  Instead every instrumentable component carries a ``telemetry``
attribute defaulting to ``None`` and an ``attach_telemetry`` method;
the session layer (``repro.connect(telemetry=...)``) and
``CrossePlatform(telemetry=...)`` create one :class:`Telemetry` bundle
and push it down the object graph.  When the attribute is ``None`` —
the default — every instrumented call site reduces to a single
``is None`` test.

The bundle ties together:

* :class:`MetricsRegistry` — counters / gauges / histograms with
  Prometheus-style labels and text exposition (``repro_*`` namespace);
* :class:`Tracer` — per-query span trees propagated via
  ``contextvars`` so spans survive generator-based streaming and
  federation worker threads;
* :class:`SlowQueryLog` — ring buffer of span tree + plan for queries
  over a configurable threshold.

REST surface (when a ``CrosseRestService`` fronts a telemetry-enabled
platform): ``GET /api/v1/metrics`` (JSON, or Prometheus text with
``?format=prometheus``), ``GET /api/v1/traces/{query_id}``,
``GET /api/v1/slow_queries``.
"""

from __future__ import annotations

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .options import DEFAULT_LATENCY_BUCKETS, TelemetryOptions
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import Span, Tracer

__all__ = [
    "Telemetry", "TelemetryOptions", "create_telemetry",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SlowQueryLog", "SlowQueryEntry",
    "DEFAULT_LATENCY_BUCKETS",
]


class Telemetry:
    """The live bundle: one registry + tracer + slow-query log.

    Shared by every component of one platform/session graph, so
    cross-layer metrics (a federation fragment shipped on behalf of a
    user query) all land in one place.
    """

    def __init__(self, options: TelemetryOptions | None = None) -> None:
        self.options = options or TelemetryOptions()
        self.metrics = MetricsRegistry(
            default_buckets=self.options.latency_buckets)
        self.tracer = Tracer(retention=self.options.trace_retention)
        self.slow_queries = SlowQueryLog(
            threshold_s=self.options.slow_query_threshold_s)
        # Pre-created hot-path instruments (unlabelled families resolve
        # to their single child, so these are direct references).
        self._query_seconds = self.metrics.histogram(
            "repro_query_seconds",
            "End-to-end wall time of session queries",
            labels=("backend",))
        self._queries_total = self.metrics.counter(
            "repro_queries_total",
            "Queries executed through the session layer",
            labels=("backend", "user"))
        self._slow_total = self.metrics.counter(
            "repro_slow_queries_total",
            "Queries that crossed the slow-query threshold")

    # -- convenience pass-throughs --------------------------------------

    def span(self, name: str, **attrs):
        """Shortcut for ``tracer.span`` — the common call site shape is
        ``with (tel.span(...) if tel is not None else _NOOP):``."""
        return self.tracer.span(name, **attrs)

    def record_query(self, root, *, backend: str, statement=None,
                     user=None, plan=None, rows=None) -> None:
        """Fold a finished root span into metrics + the slow-query log."""
        wall = root.wall_s if root.wall_s is not None else 0.0
        self._query_seconds.labels(backend).observe(wall)
        self._queries_total.labels(backend, user or "").inc()
        if self.slow_queries.should_record(wall):
            self._slow_total.inc()
            self.slow_queries.record(SlowQueryEntry(
                query_id=root.query_id or "",
                statement=statement,
                user=user,
                wall_s=wall,
                trace=root.to_dict(),
                plan=plan,
                rows=rows,
            ))


def create_telemetry(spec) -> Telemetry | None:
    """Normalise the ``telemetry=`` argument accepted by ``connect()``
    and ``CrossePlatform``:

    * ``None`` / ``False`` — telemetry off (returns None);
    * ``True`` — on, with default options;
    * a :class:`TelemetryOptions` — on iff ``options.enabled``;
    * a :class:`Telemetry` bundle — used as-is (lets several platforms
      share one registry).
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, Telemetry):
        return spec
    if spec is True:
        return Telemetry()
    if isinstance(spec, TelemetryOptions):
        return Telemetry(spec) if spec.enabled else None
    raise TypeError(
        "telemetry must be None, a bool, TelemetryOptions, or a "
        f"Telemetry bundle, not {type(spec).__name__}")
