"""Parallel fragment shipping for the mediator.

A mediated query touching *k* remote sources decomposes into per-source
sub-queries ("fragments").  The sources are independent, so shipping
them one after another pays *k* network round-trips where one would do:
this module gives the mediator a bounded worker pool that dispatches
**all fragments of all needed views at once**, with

* a **per-view reconciliation barrier** — a view's partial results are
  only reconciled (``union`` / ``prefer_first`` precedence) once every
  one of its fragments has landed, in the fragment-definition order, so
  parallel and serial shipping are byte-identical;
* **per-source failure policies** — ``fail`` (default: first error
  aborts the batch), ``skip`` (a failing source contributes no rows and
  is recorded in the :class:`~repro.federation.MediationReport`) and
  ``retry`` (re-dispatch with capped exponential backoff, escalating to
  a failure when the attempts are exhausted);
* a **fragment-result cache** keyed ``(source, fragment SQL, values,
  state)`` — the SQL is the statement the source runs rendered with
  its ``?`` as written (a job ships it parsed, with the values), the
  values are the ones its ``?`` read, in text order and type-tagged
  (``1``, ``1.0`` and ``TRUE`` are three keys), and the state is what
  the fragment reads of the source: the database's floor
  (``Database.floor``, moved by an out-of-band change) and the state of
  each table it reads (``Table.state``: a stamp every write but an
  append moves, a new table a fresh one, and the slot count an append
  moves).  So repeated ships over unchanged tables are free, any write
  to a table the fragment reads invalidates its entries by
  construction, and a write to another table of the source leaves them
  valid.  Fragments touching foreign tables are never cached: their
  remote content can change without moving anything local.  A
  :class:`FragmentResult` carries the state its rows were read at, so
  a held view can tell that a source only appended since
  (``MediatorSession.refresh``).
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field

from ..api.cache import LRUCache
from ..relational.ast import SelectQuery
from ..relational.engine import Database
from ..relational.render import bound_to, render_query
from ..relational.result import ResultSet
from .errors import MediationError

#: Per-source failure policies.
FAIL, SKIP, RETRY = "fail", "skip", "retry"
FAILURE_POLICIES = (FAIL, SKIP, RETRY)


@dataclass
class PolicyOutcome:
    """What :func:`run_with_policy` produced: a result or a final
    failure, plus how many executions it took to get there."""

    result: object = None
    attempts: int = 1
    error: str | None = None            # message of the final failure
    exception: Exception | None = None  # the final failure itself

    @property
    def failed(self) -> bool:
        return self.exception is not None


def run_with_policy(fn, *, policy: str = FAIL, max_retries: int = 2,
                    backoff_s: float = 0.05, backoff_cap_s: float = 1.0,
                    sleep=time.sleep) -> PolicyOutcome:
    """Run *fn* under a fail/skip/retry failure policy.

    ``retry`` re-runs with capped exponential backoff until the extra
    attempts are exhausted; any final failure is **returned** (never
    raised) so the caller decides whether its policy absorbs the error
    (``skip``) or escalates it (``fail`` / exhausted ``retry``).  Both
    the federation executor (per-source fragments) and the cluster
    coordinator (per-shard RPCs) route failures through here, so the
    two layers degrade identically.
    """
    delay = backoff_s
    attempts = 0
    while True:
        attempts += 1
        try:
            return PolicyOutcome(fn(), attempts)
        except Exception as exc:
            if policy == RETRY and attempts <= max_retries:
                sleep(delay)
                delay = min(delay * 2, backoff_cap_s)
                continue
            return PolicyOutcome(
                None, attempts, error=str(exc) or type(exc).__name__,
                exception=exc)


@dataclass(frozen=True)
class FederationOptions:
    """Knobs for parallel fragment shipping.

    ``max_workers=1`` degenerates to the serial shipping of earlier
    revisions (fragments run inline, in dispatch order) — the E13
    benchmark uses exactly that as its baseline.
    """

    #: Upper bound on concurrently in-flight fragments.
    max_workers: int = 8
    #: Default per-source policy; ``source_policies`` overrides per name.
    failure_policy: str = FAIL
    source_policies: dict[str, str] = field(default_factory=dict)
    #: Extra attempts under ``retry`` before escalating to a failure.
    max_retries: int = 2
    #: First retry delay; doubles per attempt up to ``backoff_cap_s``.
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Entries in the fragment-result cache (0 disables it).
    fragment_cache_size: int = 128

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise MediationError("max_workers must be at least 1")
        if self.max_retries < 0:
            raise MediationError("max_retries must not be negative")
        if self.fragment_cache_size < 0:
            raise MediationError("fragment_cache_size must not be negative")
        for policy in (self.failure_policy,
                       *self.source_policies.values()):
            if policy not in FAILURE_POLICIES:
                raise MediationError(
                    f"unknown failure policy {policy!r} "
                    f"(expected one of {', '.join(FAILURE_POLICIES)})")

    def policy_for(self, source: str) -> str:
        return self.source_policies.get(source, self.failure_policy)

    def replace(self, **changes) -> "FederationOptions":
        return dataclasses.replace(self, **changes)


@dataclass
class FragmentJob:
    """One source sub-query to ship: view, position, source, SQL."""

    view: str
    index: int               # fragment position within the view
    source: str
    database: Database
    #: ``statement`` as text, its ``?`` as written: the cache key's.
    sql: str
    #: The tables the fragment reads when each is a heap table of the
    #: source: what the cache keys on (None: never cached).
    tables: tuple | None = None
    #: What the source runs, unparsed: the fragment's memoised parse or
    #: the statement a pushed filter was composed into, once per
    #: template (None: no SELECT).
    statement: SelectQuery | None = None
    #: The values ``statement``'s ``?`` read (``()``: none — the source
    #: still keeps its tree); None with no statement.
    values: tuple | None = None
    #: What the cache keys on for ``values``: the ones the ``?`` read,
    #: in text order, each with its type.
    tags: tuple = ()
    _text: str | None = field(default=None, init=False, repr=False)

    def state(self) -> tuple | None:
        """What the fragment reads of the source now: its floor and each
        table's state (None when it reads a table of another kind)."""
        if self.tables is None:
            return None
        return (self.database.floor,
                *[table.state for table in self.tables])

    def rendered(self) -> str:
        """The SQL the source ran: ``sql`` with the values bound."""
        if self._text is None:
            self._text = (render_query(self.statement,
                                       bound_to(self.values))
                          if self.values else self.sql)
        return self._text


@dataclass
class FragmentResult:
    """What shipping one fragment produced."""

    job: FragmentJob
    result: ResultSet | None = None   # None => skipped under SKIP
    error: str | None = None          # the failure that caused a skip
    attempts: int = 1                 # source executions (0 = cache hit)
    elapsed_s: float = 0.0
    cached: bool = False
    #: The job's state (:meth:`FragmentJob.state`) the rows were read at.
    state: tuple | None = None

    @property
    def skipped(self) -> bool:
        return self.result is None


class _FragmentFailed(Exception):
    """Internal: carries the failing job through the future boundary."""

    def __init__(self, job: FragmentJob, cause: Exception,
                 attempts: int) -> None:
        super().__init__(str(cause))
        self.job = job
        self.cause = cause
        self.attempts = attempts


class FragmentCache(LRUCache):
    """Thread-safe LRU of fragment results.

    Keys are ``(source name, fragment SQL, values, state)``: a write to
    a table the fragment reads moves the state, so its stale entries
    are simply never looked up again and age out of the LRU.  The LRU
    itself is the session layer's :class:`~repro.api.cache.LRUCache`;
    this subclass only adds the lock worker threads need to probe and
    fill it concurrently.  An entry is the source's result unchanged —
    columns, as the source's scan produced them — marked shared
    (:meth:`ResultSet.share`), so rows a reader derives from it are not
    kept on it (an entry keeps one form), and without its plan: an
    entry never holds the source's operator tree.
    """

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__(maxsize)
        self._lock = threading.Lock()

    def get(self, key: tuple) -> ResultSet | None:
        with self._lock:
            return super().get(key)

    def put(self, key: tuple, result: ResultSet) -> None:
        with self._lock:
            super().put(key, result.share())

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()


class FederationExecutor:
    """Ships fragment batches through a bounded worker pool."""

    def __init__(self, options: FederationOptions | None = None,
                 cache: FragmentCache | None = None) -> None:
        self.options = options or FederationOptions()
        self.cache = cache if cache is not None \
            else FragmentCache(self.options.fragment_cache_size)
        #: Telemetry hook (duck-typed): when attached, every shipped
        #: fragment records per-source latency/retry/skip/cache-hit
        #: metrics and opens a span under the originating query — the
        #: submitter copies its ``contextvars`` context per job, so
        #: worker-thread spans parent correctly.
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        if telemetry is None:
            return
        metrics = telemetry.metrics
        self._tm_fragment_seconds = metrics.histogram(
            "repro_federation_fragment_seconds",
            "Per-source wall time of shipped fragments",
            labels=("source",))
        self._tm_retries = metrics.counter(
            "repro_federation_retries_total",
            "Fragment retry attempts beyond the first", labels=("source",))
        self._tm_skips = metrics.counter(
            "repro_federation_skips_total",
            "Fragments skipped under the skip policy", labels=("source",))
        self._tm_cache_hits = metrics.counter(
            "repro_federation_cache_hits_total",
            "Fragments served from the fragment-result cache",
            labels=("source",))
        self._tm_rows = metrics.counter(
            "repro_federation_rows_total",
            "Rows fetched from each source", labels=("source",))

    def ship(self, jobs: list[FragmentJob]
             ) -> dict[str, list[FragmentResult]]:
        """Dispatch *jobs* concurrently; per-view results in fragment
        order.

        Every job runs under its source's failure policy.  Under
        ``fail`` (and exhausted ``retry``) the first failure cancels
        the not-yet-started remainder, waits out the in-flight ones and
        raises :class:`MediationError` naming the view, the source and
        the attempt count — the caller stores nothing, so no view is
        ever observable partially shipped.
        """
        if not jobs:
            return {}
        # Cache hits are resolved inline (a dict lookup each): a warm
        # batch spawns no threads, only the misses enter the pool.
        outcomes: list[FragmentResult] = []
        pending: list[FragmentJob] = []
        tel = self.telemetry
        for job in jobs:
            hit = self._probe_cache(job)
            if hit is not None:
                if tel is not None:
                    self._tm_cache_hits.labels(job.source).inc()
                outcomes.append(hit)
            else:
                pending.append(job)
        workers = min(self.options.max_workers, len(pending))
        if workers <= 1:
            # Serial path: inline, dispatch order, no threads — the
            # exact shipping behavior of earlier revisions.
            for job in pending:
                outcomes.append(self._guarded(job))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                if tel is None:
                    futures = [pool.submit(self._run_job, job)
                               for job in pending]
                else:
                    # One context copy PER job: the copy carries the
                    # submitter's current span into the worker thread
                    # (a single Context cannot be entered concurrently).
                    futures = [
                        pool.submit(contextvars.copy_context().run,
                                    self._run_job, job)
                        for job in pending]
                try:
                    for future in as_completed(futures):
                        outcomes.append(future.result())
                except _FragmentFailed as failed:
                    for future in futures:
                        future.cancel()
                    raise self._failure_error(failed) from failed.cause
        grouped: dict[str, list[FragmentResult]] = {}
        for outcome in outcomes:
            grouped.setdefault(outcome.job.view, []).append(outcome)
        for results in grouped.values():
            results.sort(key=lambda outcome: outcome.job.index)
        return grouped

    def _guarded(self, job: FragmentJob) -> FragmentResult:
        try:
            return self._run_job(job)
        except _FragmentFailed as failed:
            raise self._failure_error(failed) from failed.cause

    @staticmethod
    def _failure_error(failed: _FragmentFailed) -> MediationError:
        job = failed.job
        return MediationError(
            f"view {job.view!r}: fragment from source {job.source!r} "
            f"failed after {failed.attempts} attempt(s): {failed.cause}")

    def _probe_cache(self, job: FragmentJob) -> FragmentResult | None:
        if job.tables is None or self.options.fragment_cache_size <= 0:
            return None
        started = time.perf_counter()
        state = job.state()
        cached = self.cache.get(_cache_key(job, state))
        if cached is None:
            return None
        return FragmentResult(
            job, cached, attempts=0,
            elapsed_s=time.perf_counter() - started, cached=True,
            state=state)

    def _run_job(self, job: FragmentJob) -> FragmentResult:
        """Execute one fragment, instrumented when telemetry is on."""
        tel = self.telemetry
        if tel is None:
            return self._execute_job(job)
        started = time.perf_counter()
        with tel.span("federation.fragment", source=job.source,
                      view=job.view) as span:
            outcome = self._execute_job(job)
            if span is not None:
                span.attrs["attempts"] = outcome.attempts
                if outcome.skipped:
                    span.attrs["skipped"] = True
                else:
                    span.attrs["rows"] = len(outcome.result)
        self._tm_fragment_seconds.labels(job.source).observe(
            time.perf_counter() - started)
        if outcome.attempts > 1:
            self._tm_retries.labels(job.source).inc(outcome.attempts - 1)
        if outcome.skipped:
            self._tm_skips.labels(job.source).inc()
        else:
            self._tm_rows.labels(job.source).inc(len(outcome.result))
        return outcome

    def _execute_job(self, job: FragmentJob) -> FragmentResult:
        """Execute one fragment under its source's policy.

        The cache was already probed inline by :meth:`ship`; a
        successful cacheable result is published under the state read
        here, *before* executing — a concurrent write moves it forward,
        so later lookups (always on the current state) can never hit a
        pre-write entry.
        """
        started = time.perf_counter()
        state = job.state()
        target = job.sql if job.statement is None else job.statement
        policy = self.options.policy_for(job.source)
        outcome = run_with_policy(
            lambda: job.database.query(target, job.values),
            policy=policy,
            max_retries=self.options.max_retries,
            backoff_s=self.options.backoff_s,
            backoff_cap_s=self.options.backoff_cap_s)
        if outcome.failed:
            if policy == SKIP:
                return FragmentResult(
                    job, None, error=outcome.error,
                    attempts=outcome.attempts,
                    elapsed_s=time.perf_counter() - started)
            raise _FragmentFailed(job, outcome.exception,
                                  outcome.attempts) from outcome.exception
        result = outcome.result
        if state is not None and self.options.fragment_cache_size > 0:
            self.cache.put(_cache_key(job, state), result)
        return FragmentResult(
            job, result, attempts=outcome.attempts,
            elapsed_s=time.perf_counter() - started, state=state)


def _cache_key(job: FragmentJob, state: tuple) -> tuple:
    return job.source, job.sql, job.tags, state
