"""Read replicas kept fresh by tailing the primary's WAL.

The durability manager journals every committed mutation of the shared
relational databank / triple store as checksummed frames in numbered
WAL segments, with compacted snapshots at epoch boundaries.  A
:class:`WalTailer` reads that same directory **read-only** from another
process, and it reads it the way crash recovery does — through one
:class:`~repro.durability.replay.ReplayCursor`: the same snapshot load
(newest valid, one-epoch fallback), the same frame replay and the same
exact generation pin.  All the tailer adds is its own offset and the
walk from one segment to its successor.

Freshness is the whole contract: a :class:`ReadReplica` serves a read
**iff** its ``Database.generation`` / ``TripleStore.generation`` stamp
has caught up with the generation the caller observed on the primary —
otherwise it forwards to the primary (when a forward target is wired)
or refuses with :class:`~repro.cluster.ReplicaStaleError`.  It never
silently serves stale data.

Torn tails are expected (the tailer races the primary's group-commit
writes): the tailer simply keeps its offset at the last valid frame
boundary and re-reads once more bytes land.  A per-component sequence
hole, by contrast, means retained history is gone (pruned or corrupt
segment): the cursor quarantines that component at the hole, as
recovery does, and every poll from then on raises
:class:`~repro.cluster.ReplicaGapError` instead of serving a replica
that can never catch up.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from ..durability.replay import (KINDS, SEGMENTS, SNAPSHOTS, Component,
                                 ReplayCursor, list_numbered)
from ..relational.engine import Database
from ..relational.result import ResultSet
from ..rdf.store import TripleStore
from .errors import ReplicaGapError, ReplicaStaleError


class WalTailer:
    """Applies a primary's WAL history to local component copies.

    Strictly read-only on the durability directory: it never truncates,
    prunes or rewrites anything — those are the primary's recovery
    privileges.
    """

    def __init__(self, directory: str, *, database: Database | None = None,
                 stores: dict[str, TripleStore] | None = None,
                 foreign_sources: Any = None) -> None:
        self.directory = directory
        self._lock = threading.Lock()
        components: dict[str, Component] = {}
        if database is not None:
            components[f"db:{database.name}"] = Component(
                KINDS["database"], database)
        for name, store in (stores or {}).items():
            components[f"store:{name}"] = Component(KINDS["store"], store)
        self._cursor = ReplayCursor(components, foreign_sources)
        #: The cursor's list: replay warnings plus this walk's own.
        self.warnings = self._cursor.warnings
        self._segment: int | None = None   # current segment number
        self._offset = 0                   # valid bytes consumed of it
        self._bootstrapped = False

    @property
    def frames_applied(self) -> int:
        return self._cursor.frames_applied

    def poll(self) -> int:
        """Apply every newly visible frame; returns how many."""
        with self._lock:
            cursor = self._cursor
            if not self._bootstrapped:
                snaps = list_numbered(self.directory, *SNAPSHOTS)
                if not snaps and not list_numbered(self.directory,
                                                   *SEGMENTS):
                    return 0             # primary hasn't written yet
                cursor.load_snapshot(snaps)
                cursor.pin()
                self._bootstrapped = True
            before = cursor.frames_applied
            while True:
                # List the segments before reading: the primary closes a
                # segment before creating its successor, so "a successor
                # existed before this read" proves the read reached the
                # segment's true end.
                segments = dict(list_numbered(self.directory, *SEGMENTS))
                if self._segment is None:
                    # Older retained segments only hold frames below
                    # each cut, so starting at the earliest is safe.
                    if not segments:
                        break
                    self._segment, self._offset = min(segments), 0
                later = [num for num in segments if num > self._segment]
                path = segments.get(self._segment)
                if path is not None:
                    with open(path, "rb") as handle:
                        handle.seek(self._offset)
                        self._offset += cursor.feed(handle.read())
                if not later:
                    break
                if path is not None and self._offset < os.path.getsize(path):
                    # Torn bytes inside a closed segment: the primary
                    # crashed mid-write and will truncate them on its
                    # own recovery; a seq hole will surface if any
                    # attached component actually lost records.
                    self.warnings.append(
                        f"torn tail inside closed segment "
                        f"{os.path.basename(path)}")
                self._segment, self._offset = min(later), 0
            applied = cursor.frames_applied - before
            if applied:
                cursor.pin()
            if cursor.gaps:
                raise ReplicaGapError(f"{cursor.gaps[0]}; rebuild this "
                                      f"replica from a snapshot")
            return applied


class ReadReplica:
    """A queryable, generation-fresh copy of the shared stores.

    ``query(sql, expected_generation=...)`` refreshes from the WAL and
    serves locally iff the replica has caught up with the generation
    the caller observed on the primary; otherwise it forwards (when a
    ``forward`` callable is wired) or raises — never a stale answer.
    """

    def __init__(self, directory: str, *, database_name: str = "main",
                 store_names: tuple[str, ...] = (),
                 database_factory: Callable[[str], Database] | None = None,
                 forward: Callable[[str], ResultSet] | None = None,
                 foreign_sources: Any = None) -> None:
        factory = database_factory or (lambda name: Database(name=name))
        self.database = factory(database_name)
        self.stores = {name: TripleStore() for name in store_names}
        self.tailer = WalTailer(directory, database=self.database,
                                stores=self.stores,
                                foreign_sources=foreign_sources)
        self.forward = forward
        self.local_reads = 0
        self.forwarded_reads = 0
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        if telemetry is None:
            return
        metrics = telemetry.metrics
        self._tm_reads = metrics.counter(
            "repro_replica_reads_total",
            "Replica reads by outcome (local vs forwarded to primary)",
            labels=("mode",))
        self._tm_generation = metrics.gauge(
            "repro_replica_generation",
            "Relational generation this replica has replayed up to")

    # -- freshness -------------------------------------------------------------

    def refresh(self) -> int:
        """One tailer poll; returns the number of frames applied."""
        applied = self.tailer.poll()
        if self.telemetry is not None:
            self._tm_generation.set(self.database.generation)
        return applied

    def generations(self) -> dict:
        """The stamps a coordinator compares against the primary's."""
        return {"db": self.database.generation,
                "stores": {name: store.generation
                           for name, store in self.stores.items()}}

    def is_fresh(self, expect: dict | None) -> bool:
        """True when every stamp has reached the expected one.

        ``>=`` rather than ``==``: the tailer only replays primary
        history, so a stamp past the captured expectation means the
        primary has moved *further* — the replica still reflects
        everything the caller could have observed when it captured
        ``expect``.
        """
        if not expect:
            return True
        if self.database.generation < expect.get("db", 0):
            return False
        for name, generation in (expect.get("stores") or {}).items():
            store = self.stores.get(name)
            if store is None or store.generation < generation:
                return False
        return True

    def wait_fresh(self, expect: dict | None, timeout_s: float = 5.0,
                   interval_s: float = 0.002) -> bool:
        """Poll the WAL until fresh w.r.t. *expect* or out of time."""
        deadline = time.monotonic() + timeout_s
        while True:
            self.refresh()
            if self.is_fresh(expect):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(interval_s)

    # -- reads -----------------------------------------------------------------

    def query(self, sql: str,
              expected_generation: int | None = None) -> ResultSet:
        """Serve *sql* locally iff fresh, else forward — never stale."""
        self.refresh()
        if (expected_generation is None
                or self.database.generation >= expected_generation):
            self.local_reads += 1
            if self.telemetry is not None:
                self._tm_reads.labels("local").inc()
            return self.database.query(sql)
        if self.forward is not None:
            self.forwarded_reads += 1
            if self.telemetry is not None:
                self._tm_reads.labels("forwarded").inc()
            return self.forward(sql)
        raise ReplicaStaleError(
            f"replica at generation {self.database.generation} cannot "
            f"serve a read expecting generation {expected_generation} "
            f"and has no forward target",
            have=self.database.generation, want=expected_generation)
