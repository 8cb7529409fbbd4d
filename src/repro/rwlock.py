"""A reentrant readers-writer lock for the service layer.

The streaming execution surface lets many sessions read one
:class:`~repro.relational.Database` (or :class:`~repro.rdf.TripleStore`)
concurrently while DML / ANALYZE / annotation-acceptance writers get
exclusive access.  The lock is:

* **shared for readers** — any number of threads may hold it for
  reading at once;
* **exclusive for writers** — one thread, no concurrent readers;
* **writer-preferring** — new readers queue behind a waiting writer so
  a steady read workload cannot starve mutations;
* **reentrant** — a thread may re-acquire a lock it already holds in
  the same mode, and the write holder may also take the read side
  (statement execution nested inside DML, e.g. ``INSERT ... SELECT``);
* **hold-based on the read side** — every read acquisition returns a
  :class:`ReadHold` carrying its own accounting unit, so a long-lived
  holder (a streaming cursor's generator) can be released from a
  *different* thread than the one that acquired it — cursors are
  handed between worker threads and may be finalized by the GC on an
  arbitrary thread.  Each hold captures its owner thread's depth
  record, so cross-thread release keeps the owner's nesting state
  exact (no stale-depth barging past writers, no phantom upgrade
  refusals).

Upgrading (read held → write requested by the same thread) deadlocks by
construction in any RW lock, so it raises ``RuntimeError`` instead —
the practical consequence is that a thread must exhaust or close its
open cursors before mutating the same database.
"""

from __future__ import annotations

import threading
import time


class _ThreadDepth:
    """Per-thread read-nesting record, shared with that thread's holds.

    Mutated only under the lock's condition, so a hold released from a
    foreign thread updates the owner's record consistently.
    """

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0


class ReadHold:
    """One read acquisition; ``release()`` is idempotent and may be
    called from any thread.  As a context manager (``with
    lock.read_locked():``) it releases on exit."""

    __slots__ = ("_lock", "_state", "_piggyback", "_released")

    def __init__(self, lock: "RWLock", state: _ThreadDepth,
                 piggyback: bool) -> None:
        self._lock = lock
        self._state = state
        self._piggyback = piggyback
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._lock._release_unit(self._state, self._piggyback)

    def __enter__(self) -> "RWLock":
        return self._lock

    def __exit__(self, *exc_info) -> None:
        self.release()


class _WriteGuard:
    """The ``with`` form of the write side; stateless (the lock counts
    the depth), so one instance per lock serves every block.  A plain
    class, like :class:`ReadHold`: these sit on per-statement write
    paths, where ``@contextmanager``'s generator cost more than the
    uncontended lock itself."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> "RWLock":
        self._lock.acquire_write()
        return self._lock

    def __exit__(self, *exc_info) -> None:
        self._lock.release_write()


class RWLock:
    """Reentrant, writer-preferring readers-writer lock."""

    def __init__(self) -> None:
        #: The condition's own mutex, entered directly on the paths
        #: that never wait (its ``with`` is C code; the condition's is
        #: a Python wrapper around it).
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        self._active_readers = 0        # outstanding read units
        self._waiting_readers = 0       # blocked in read_hold
        self._waiting_writers = 0
        self._writer: int | None = None  # ident of the write holder
        self._write_depth = 0
        self._local = threading.local()
        #: Telemetry hook (duck-typed): when attached, acquisitions
        #: that actually block record their wait time.  Uncontended
        #: acquisitions never touch the registry.
        self.telemetry = None
        self._read_wait = self._write_wait = None
        self._write_guard = _WriteGuard(self)

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        if telemetry is not None:
            family = telemetry.metrics.histogram(
                "repro_rwlock_wait_seconds",
                "Time spent blocked acquiring the readers-writer lock",
                labels=("mode",))
            self._read_wait = family.labels("read")
            self._write_wait = family.labels("write")

    # -- introspection (tests / diagnostics) --------------------------------

    @property
    def write_held(self) -> bool:
        return self._writer is not None

    @property
    def active_readers(self) -> int:
        return self._active_readers

    def _state(self) -> _ThreadDepth:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadDepth()
        return state

    def _read_depth(self) -> int:
        return self._state().depth

    # -- read side ----------------------------------------------------------

    def read_hold(self) -> ReadHold:
        """Acquire one read unit, returning its hold.

        A thread inside its own write section piggybacks (no shared
        unit: the write lock is already exclusive).  A thread that
        still holds a read — checked under the condition, so a
        cross-thread release cannot leave it stale — takes its unit
        without waiting: writers are already excluded by the read it
        holds, and queueing behind its own writer-preference entry
        would self-deadlock.
        """
        me = threading.get_ident()
        state = self._state()
        if self._writer == me:
            with self._mutex:
                state.depth += 1
            return ReadHold(self, state, piggyback=True)
        with self._mutex:
            if state.depth == 0 and (self._writer is not None
                                     or self._waiting_writers):
                started = time.perf_counter() \
                    if self.telemetry is not None else None
                self._waiting_readers += 1
                try:
                    while state.depth == 0 and (self._writer is not None
                                                or self._waiting_writers):
                        self._cond.wait()
                finally:
                    self._waiting_readers -= 1
                if started is not None:
                    self._read_wait.observe(time.perf_counter() - started)
            self._active_readers += 1
            state.depth += 1
        return ReadHold(self, state, piggyback=False)

    def _release_unit(self, state: _ThreadDepth, piggyback: bool) -> None:
        with self._mutex:
            state.depth -= 1
            if not piggyback:
                self._active_readers -= 1
                # Only writers wait for the readers to drain (a reader
                # queued behind one stays queued until it has written).
                if self._active_readers == 0 and self._waiting_writers:
                    self._cond.notify_all()

    #: ``with lock.read_locked():`` — one read hold for the block.
    read_locked = read_hold

    # -- write side ----------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            self._write_depth += 1
            return
        state = self._state()
        with self._mutex:
            if state.depth:
                # Only this thread adds to its own depth, and it is
                # here, not reading — so the depth cannot rise while
                # we wait below; checking once is enough.
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; close "
                    "open cursors before mutating")
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._active_readers:
                    started = time.perf_counter() \
                        if self.telemetry is not None else None
                    while self._writer is not None or self._active_readers:
                        self._cond.wait()
                    if started is not None:
                        self._write_wait.observe(
                            time.perf_counter() - started)
                self._writer = me
                self._write_depth = 1
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        if self._writer != threading.get_ident():
            raise RuntimeError("release_write by a non-holder")
        self._write_depth -= 1
        if self._write_depth:
            return
        with self._mutex:
            self._writer = None
            if self._waiting_readers or self._waiting_writers:
                self._cond.notify_all()

    def write_locked(self) -> "_WriteGuard":
        """``with lock.write_locked():`` — the write side for the block."""
        return self._write_guard
