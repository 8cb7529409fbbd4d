"""A capacity-bounded pool of query sessions.

The REST facade (and any multi-threaded embedder) serves many users at
once; building a session stack per request would rebuild engines and
caches every time, and handing every thread the same session would
serialize them on its mutable state.  :class:`SessionPool` sits in
between: a fixed number of *slots*, each holding a warm session stack,
checked out per request and returned afterwards.

* Over a :class:`~repro.crosse.CrossePlatform`, each slot is an
  independent :class:`~repro.api.PlatformSession` — one plan cache
  shared by the slot's users, one engine and extraction cache per user
  — and ``checkout(username)`` yields that slot's per-user session.  A
  slot is leased to one thread at a time, so the shared plan cache is
  never touched by two threads.  Engines read the user's context and
  the stored-query registries live; the pool's telemetry follows
  ``platform.telemetry``.
* Over a plain :class:`~repro.relational.Database` or
  :class:`~repro.core.SESQLEngine`, each slot is a plain
  :class:`~repro.api.Session` and ``checkout()`` takes no username.

``checkout`` blocks while every slot is in use and raises
:class:`~repro.api.PoolTimeoutError` after *timeout* seconds, bounding
queueing time under overload instead of letting it grow without limit.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from .errors import PoolTimeoutError, SessionError
from .options import QueryOptions


class SessionLease:
    """A checked-out session; releasing returns the slot to the pool.

    Usable as a context manager (``with pool.checkout(user) as session``)
    or manually via ``.session`` + ``.release()``.  Release is
    idempotent.
    """

    def __init__(self, pool: "SessionPool", slot: Any, session: Any) -> None:
        self._pool = pool
        self._slot = slot
        self.session = session
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._pool._release(self._slot)

    def __enter__(self):
        return self.session

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.release()
        except Exception:
            pass


class SessionPool:
    """Check out per-user sessions under a fixed capacity."""

    def __init__(self, source: Any, capacity: int = 8,
                 options: QueryOptions | None = None,
                 telemetry=None) -> None:
        if capacity < 1:
            raise SessionError(
                f"pool capacity must be positive, got {capacity}")
        from ..crosse.platform import CrossePlatform
        self._source = source
        self._is_platform = isinstance(source, CrossePlatform)
        self.capacity = capacity
        self._options = options
        self._cond = threading.Condition()
        self._idle: list[Any] = []      # warm slots awaiting checkout
        self._in_use = 0
        self._closed = False
        #: Counters surfaced by :meth:`stats`.
        self.checkouts = 0
        self.timeouts = 0
        self.peak_in_use = 0
        #: Callers currently blocked waiting for a slot.
        self._waiting = 0
        #: Telemetry hook (duck-typed): checkout wait time, occupancy
        #: and timeout counts fold into the shared registry.
        self.telemetry = None
        if self._is_platform:
            if telemetry is not None:
                raise SessionError(
                    "a platform-backed pool follows platform.telemetry; "
                    "pass telemetry to the CrossePlatform instead")
            telemetry = source.telemetry
        self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        if telemetry is None:
            return
        metrics = telemetry.metrics
        self._tm_wait = metrics.histogram(
            "repro_pool_checkout_wait_seconds",
            "Time callers waited for a free session-pool slot")
        self._tm_in_use = metrics.gauge(
            "repro_pool_in_use", "Session-pool slots currently leased")
        self._tm_checkouts = metrics.counter(
            "repro_pool_checkouts_total", "Session-pool checkouts")
        self._tm_timeouts = metrics.counter(
            "repro_pool_timeouts_total",
            "Checkouts abandoned after the timeout")
        self._tm_exhausted = metrics.counter(
            "repro_pool_exhausted_total",
            "Checkouts that found every slot leased and had to wait "
            "or time out")

    # -- slot construction ----------------------------------------------------

    def _build_slot(self) -> Any:
        if self._is_platform:
            # A non-None options object forces an independent
            # PlatformSession (the shared default one is single-slot).
            return self._source.connect(self._options or QueryOptions())
        from .session import Session, connect
        if isinstance(self._source, Session):
            raise SessionError(
                "pool over a single Session makes no sense; pass the "
                "Database, SESQLEngine or CrossePlatform instead")
        return connect(self._source, self._options)

    # -- checkout / release ---------------------------------------------------

    def checkout(self, username: str | None = None,
                 timeout: float | None = 30.0) -> SessionLease:
        """A session lease, blocking up to *timeout* s for a free slot."""
        if username is not None and not self._is_platform:
            raise SessionError(
                "per-user checkout requires a CrossePlatform-backed pool")
        if username is None and self._is_platform:
            raise SessionError(
                "platform-backed pools check out per-user sessions; "
                "pass username")
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        started = time.perf_counter()
        with self._cond:
            # The platform's bundle may be switched on (or swapped)
            # after the pool was built: same check as ``as_user``.
            if self._is_platform \
                    and self._source.telemetry is not self.telemetry:
                self.attach_telemetry(self._source.telemetry)
            tel = self.telemetry
            exhausted = False
            while True:
                if self._closed:
                    raise SessionError("session pool is closed")
                if self._in_use < self.capacity:
                    break
                if not exhausted:
                    # Counted once per checkout, not once per wakeup:
                    # the metric reads "checkouts that hit a full pool".
                    exhausted = True
                    self._waiting += 1
                    if tel is not None:
                        self._tm_exhausted.inc()
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    self._waiting -= 1
                    self.timeouts += 1
                    if tel is not None:
                        self._tm_timeouts.inc()
                    raise PoolTimeoutError(
                        f"no session available within {timeout}s "
                        f"(capacity {self.capacity}, "
                        f"{self._in_use} leased, "
                        f"{self._waiting} other caller(s) waiting)")
                try:
                    self._cond.wait(remaining)
                except BaseException:
                    self._waiting -= 1
                    raise
            if exhausted:
                self._waiting -= 1
            self._in_use += 1
            self.checkouts += 1
            self.peak_in_use = max(self.peak_in_use, self._in_use)
            if tel is not None:
                self._tm_wait.observe(time.perf_counter() - started)
                self._tm_checkouts.inc()
                self._tm_in_use.set(self._in_use)
            slot = self._idle.pop() if self._idle else None
        if slot is None:
            try:
                slot = self._build_slot()
            except BaseException:
                self._release(None)
                raise
        try:
            session = (slot.as_user(username) if self._is_platform
                       else slot)
        except BaseException:
            # e.g. an unknown username: the slot itself is healthy, so
            # hand it back instead of leaking capacity.
            self._release(slot)
            raise
        return SessionLease(self, slot, session)

    def _release(self, slot: Any) -> None:
        with self._cond:
            self._in_use -= 1
            if self.telemetry is not None:
                self._tm_in_use.set(self._in_use)
            if slot is not None and not self._closed:
                self._idle.append(slot)
            elif slot is not None:
                slot.close()
            self._cond.notify()

    # -- lifecycle / observability --------------------------------------------

    def close(self) -> None:
        """Close idle slots and refuse further checkouts.

        Outstanding leases stay usable; their slots are closed when
        released.
        """
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for slot in idle:
            slot.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "capacity": self.capacity,
                "in_use": self._in_use,
                "idle": len(self._idle),
                "waiting": self._waiting,
                "checkouts": self.checkouts,
                "timeouts": self.timeouts,
                "peak_in_use": self.peak_in_use,
            }
