"""The durability manager: WAL append, snapshot epochs, crash recovery.

One :class:`DurabilityManager` owns one directory holding numbered
snapshot/WAL pairs::

    snap-000001.snap   compacted state as of epoch 1
    wal-000001.log     records logged while epoch 1 was current

WAL segment *K* contains exactly the records logged after snapshot *K*
was taken (``wal-000000.log`` predates any snapshot), so recovery is:
load the newest **valid** snapshot, then replay every retained segment
in order, applying only frames past each component's recorded cut.  A
corrupt latest snapshot falls back to the previous epoch — same replay
logic, longer tail.  Retention keeps ``keep_epochs`` snapshots plus
every segment the oldest of them could need.

The reading — snapshot load, frame replay, the generation pin, the
per-kind dispatch — is :mod:`repro.durability.replay`, the same code
the cluster's read replicas tail this directory with.  What only the
owner of the directory may do stays here: deleting torn snapshot temp
files, truncating the active segment's torn tail, refusing to recover
into non-empty components, and arming the writer.  A component whose
sequence has a hole is quarantined at the hole; its journal resumes
past the highest sequence the retained log holds for it and recovery
snapshots at once, so records acknowledged after recovery survive the
next one.

Components attach *before* ``recover()`` and are identified by stable
names (``db:<name>``, ``store:<name>``, ``"platform"``) so a restarted
process re-binds its journals to the recovered history.  Mutation
hooks in the relational/rdf/crosse layers are duck-typed — they call
``journal.log(...)`` on an attached ``durability_journal`` attribute
and never import this package, keeping the core layers cycle-free.
A database and a triple store each log from one commit, one record
per write: ``sql`` / ``rows`` / ``create_table`` / ``drop_table`` /
``bump`` / ``attach_foreign`` (``Database.commit_write``), and
``add_all`` / ``remove_all`` (``TripleStore._commit``) or ``clear``.
The platform logs its own records (:mod:`repro.durability.replay`).

Locking protocol (deadlock-free by ordering): mutators take their
component lock first, then the manager's append lock inside
``journal.log``.  Snapshots serialize each component under its *own*
read lock without the append lock, then swap the WAL under the append
lock without any component lock — the two lock classes are always
acquired in the same order.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..relational.engine import Database
from . import snapshot as snapshot_io
from .errors import DurabilityError
from .options import DurabilityOptions
from .replay import (KINDS, SEGMENTS, SNAPSHOTS, Component, ReplayCursor,
                     list_numbered)
from .wal import WAL_HEADER_COMPONENT, WalWriter


class ComponentJournal:
    """The logging facade a component's mutation hooks talk to.

    ``log`` is a no-op while the manager is replaying (or closed), so
    recovery can drive mutations through the exact same code paths
    without re-journaling them.
    """

    __slots__ = ("manager", "name", "seq")

    def __init__(self, manager: "DurabilityManager", name: str) -> None:
        self.manager = manager
        self.name = name
        #: Per-component record sequence; snapshot cuts and replay
        #: filtering are expressed in it.
        self.seq = 0

    def log(self, record_type: str, data: Any, generation: int = 0) -> None:
        manager = self.manager
        if not manager._logging:
            return
        with manager._lock:
            if manager._writer is None:
                return
            self.seq += 1
            manager._append_locked({"c": self.name, "q": self.seq,
                                    "g": generation, "t": record_type,
                                    "d": data})


@dataclass
class RecoveryReport:
    """What ``recover()`` found and did."""

    snapshot_epoch: int | None = None
    frames_applied: int = 0
    frames_skipped: int = 0
    replay_errors: int = 0
    truncated_bytes: int = 0
    #: ``recover()`` took a baseline snapshot (see there for when).
    initial_snapshot: bool = False
    components: dict[str, dict] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


class DurabilityManager:
    """WAL + snapshots + recovery for an attached component set."""

    def __init__(self, options: DurabilityOptions | str) -> None:
        if isinstance(options, str):
            options = DurabilityOptions(directory=options)
        self.options = options
        self.directory = options.directory
        os.makedirs(self.directory, exist_ok=True)
        self._opener = options.file_opener or open
        #: Append lock: journal sequencing + writer access.  Reentrant
        #: because replay/apply paths may nest logging call sites.
        self._lock = threading.RLock()
        self._snapshot_mutex = threading.Lock()
        self._logging = False
        self._recovered = False
        self._closed = False
        self._components: dict[str, Component] = {}
        self._writer: WalWriter | None = None
        self._epoch = 0          # epoch of the effective snapshot
        self._wal_seq = 0        # numeric suffix of the active segment
        self._max_epoch_seen = 0
        self._records_since_snapshot = 0
        self._snap_thread: threading.Thread | None = None
        self._snap_event = threading.Event()
        self.snapshot_errors: list[Exception] = []
        self.last_recovery: RecoveryReport | None = None
        #: Telemetry hook (duck-typed): WAL fsync/bytes/batch metrics,
        #: snapshot durations, and snapshot spans parented under the
        #: query whose append crossed the snapshot threshold.
        self.telemetry = None
        self._snap_parent = None

    def attach_telemetry(self, telemetry) -> None:
        """Meter the WAL and snapshots through *telemetry* (None = off)."""
        self.telemetry = telemetry
        if telemetry is not None:
            self._tm_snapshot = telemetry.metrics.histogram(
                "repro_snapshot_seconds",
                "Wall time of compacted snapshot writes")
        with self._lock:
            if self._writer is not None:
                self._writer.attach_telemetry(telemetry)

    # -- attachment ----------------------------------------------------------

    def attach_database(self, db: Database,
                        name: str | None = None) -> ComponentJournal:
        journal = self._attach(f"db:{name or db.name}", "database", db)
        db.durability_journal = journal
        return journal

    def attach_store(self, store: Any,
                     name: str = "kb") -> ComponentJournal:
        journal = self._attach(f"store:{name}", "store", store)
        store.durability_journal = journal
        return journal

    def attach_platform(self, platform: Any) -> ComponentJournal:
        journal = self._attach("platform", "platform", platform)
        platform.durability_journal = journal
        platform.users.durability_journal = journal
        platform.context.durability_journal = journal
        platform.statements.durability_journal = journal
        return journal

    def _attach(self, name: str, kind: str, obj: Any) -> ComponentJournal:
        with self._lock:
            if self._recovered:
                raise DurabilityError(
                    "components must attach before recover()")
            if name in self._components:
                raise DurabilityError(
                    f"component {name!r} is already attached")
            journal = ComponentJournal(self, name)
            self._components[name] = Component(KINDS[kind], obj, journal)
            return journal

    # -- paths ---------------------------------------------------------------

    def _snap_name(self, epoch: int) -> str:
        return f"snap-{epoch:06d}.snap"

    def _wal_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:06d}.log")

    # -- recovery ------------------------------------------------------------

    def recover(self, foreign_sources: Any = None) -> RecoveryReport:
        """Restore prior state and arm logging.

        All components must already be attached (empty, when prior
        state exists).  *foreign_sources* re-resolves non-CSV foreign
        tables: a mapping of table name to source, or a callable taking
        the recorded descriptor — remote fetches are never replayed.
        """
        with self._snapshot_mutex:
            report = self._recover_locked(foreign_sources)
        self.last_recovery = report
        if report.initial_snapshot:
            # A baseline cut, taken now so a crash before the first
            # explicit snapshot still recovers: durability switched on
            # over an already-populated stack in a fresh directory, or a
            # quarantined component whose journal resumed past its hole
            # (without a cut there, replay would stop at the hole again
            # and drop every record logged from here on).
            self.snapshot()
        if self.options.snapshot_every > 0 and self._snap_thread is None:
            self._snap_thread = threading.Thread(
                target=self._snapshot_loop,
                name="durability-snapshot", daemon=True)
            self._snap_thread.start()
        return report

    def _recover_locked(self, foreign_sources: Any) -> RecoveryReport:
        if self._recovered:
            raise DurabilityError("recover() already ran")
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):  # torn snapshot write, never renamed
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover
                    pass
        snaps = list_numbered(self.directory, *SNAPSHOTS)
        wals = list_numbered(self.directory, *SEGMENTS)
        self._max_epoch_seen = max(
            [num for num, _ in snaps] + [num for num, _ in wals],
            default=0)
        has_prior = bool(snaps or wals)
        if has_prior:
            for name, comp in self._components.items():
                if not comp.kind.empty(comp.obj):
                    raise DurabilityError(
                        f"component {name!r} must be empty to "
                        f"recover prior state from {self.directory!r}")
        cursor = ReplayCursor(self._components, foreign_sources)
        report = RecoveryReport(warnings=cursor.warnings)
        report.snapshot_epoch = cursor.load_snapshot(snaps)
        self._epoch = report.snapshot_epoch or 0
        for _num, path in wals:
            with open(path, "rb") as handle:
                data = handle.read()
            end = cursor.feed(data)
            if end < len(data):
                if path == wals[-1][1]:
                    # Torn tail of the active segment: the standard
                    # crash shape.  Truncate so appends resume cleanly.
                    os.truncate(path, end)
                    report.truncated_bytes += len(data) - end
                else:
                    cursor.warnings.append(
                        f"corrupt frame inside retained segment "
                        f"{os.path.basename(path)}")
        report.frames_applied = cursor.frames_applied
        report.frames_skipped = cursor.frames_skipped
        report.replay_errors = cursor.replay_errors
        if has_prior:
            cursor.pin()
            for name, comp in self._components.items():
                position = cursor.positions[name]
                comp.journal.seq = position.last
                report.components[name] = {
                    "seq": comp.journal.seq,
                    "generation": position.gen}
        if wals:
            self._wal_seq = wals[-1][0]
            self._writer = self._open_writer(wals[-1][1])
        else:
            self._wal_seq = self._epoch
            with self._lock:
                self._writer = self._open_writer(
                    self._wal_path(self._wal_seq))
                self._append_header_locked()
        self._recovered = True
        self._logging = True
        report.initial_snapshot = bool(cursor.gaps) or (
            not has_prior and any(not comp.kind.empty(comp.obj)
                                  for comp in self._components.values()))
        return report

    # -- appending -----------------------------------------------------------

    def _append_locked(self, payload: dict) -> None:
        self._writer.append(payload)
        self._records_since_snapshot += 1
        if (self.options.snapshot_every
                and self._snap_thread is not None
                and self._records_since_snapshot
                >= self.options.snapshot_every):
            if self.telemetry is not None:
                # Remember which query tripped the threshold so the
                # background snapshot's span parents under its trace.
                current = self.telemetry.tracer.current()
                if current is not None:
                    self._snap_parent = current
            self._snap_event.set()

    def _open_writer(self, path: str) -> WalWriter:
        options = self.options
        writer = WalWriter(path, fsync=options.fsync,
                           group_commit_records=options.group_commit_records,
                           group_commit_bytes=options.group_commit_bytes,
                           opener=self._opener)
        if self.telemetry is not None:
            writer.attach_telemetry(self.telemetry)
        return writer

    def _append_header_locked(self) -> None:
        components = {
            name: {"seq": comp.journal.seq,
                   "generation": comp.kind.generation(comp.obj)}
            for name, comp in self._components.items()}
        self._writer.append({"c": WAL_HEADER_COMPONENT, "q": 0, "g": 0,
                             "t": "header",
                             "d": {"epoch": self._wal_seq,
                                   "components": components}})
        self._writer.flush(sync=self.options.fsync != "never")

    def sync(self) -> None:
        """Force buffered records to disk (regardless of fsync policy)."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush(sync=True)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> str:
        """Write a compacted snapshot and rotate to a fresh WAL segment.

        Three phases, never holding both lock classes at once:
        serialize every component under its own read lock (recording
        per-component cuts), write + rename the snapshot file, then
        swap the WAL under the append lock.  Records logged between a
        component's cut and the swap land in the *previous* segment
        with sequence numbers past the cut — replay picks them up,
        which is why retention always keeps one segment more than the
        snapshots it keeps.
        """
        tel = self.telemetry
        started = time.perf_counter() if tel is not None else 0.0
        with self._snapshot_mutex:
            if not self._recovered:
                raise DurabilityError(
                    "recover() must run before snapshot()")
            if self._closed:
                raise DurabilityError("manager is closed")
            epoch = self._max_epoch_seen + 1
            payload = {"format": 1, "epoch": epoch,
                       "components": {
                           name: comp.kind.serialize(comp.obj,
                                                     comp.journal)
                           for name, comp in self._components.items()}}
            path = snapshot_io.write_snapshot_file(
                self.directory, self._snap_name(epoch), payload,
                self._opener)
            with self._lock:
                old = self._writer
                if old is not None:
                    old.flush(sync=self.options.fsync != "never")
                    old.close()
                self._epoch = epoch
                self._max_epoch_seen = epoch
                self._wal_seq = epoch
                self._writer = self._open_writer(self._wal_path(epoch))
                self._records_since_snapshot = 0
                self._append_header_locked()
            self._prune(epoch)
            if tel is not None:
                self._tm_snapshot.observe(time.perf_counter() - started)
            return path

    def _prune(self, epoch: int) -> None:
        keep_snapshots = epoch - (self.options.keep_epochs - 1)
        keep_wals = epoch - self.options.keep_epochs
        for num, path in list_numbered(self.directory, *SNAPSHOTS):
            if num < keep_snapshots:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover
                    pass
        for num, path in list_numbered(self.directory, *SEGMENTS):
            if num < keep_wals:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover
                    pass

    def _snapshot_loop(self) -> None:
        while True:
            self._snap_event.wait()
            if self._closed:
                break
            self._snap_event.clear()
            if (self._records_since_snapshot
                    < self.options.snapshot_every):
                continue
            tel = self.telemetry
            parent, self._snap_parent = self._snap_parent, None
            try:
                if tel is not None:
                    # Explicit parenting: this thread never inherits the
                    # query's contextvars, so the span is attached to
                    # the root captured at trigger time (no-op when the
                    # trigger was an untraced mutation).
                    with tel.tracer.attach(parent, "durability.snapshot"):
                        self.snapshot()
                else:
                    self.snapshot()
            except Exception as exc:  # pragma: no cover - crash paths
                self.snapshot_errors.append(exc)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and stop; further mutations are no longer journaled."""
        if self._closed:
            return
        self._logging = False
        self._closed = True
        self._snap_event.set()
        if self._snap_thread is not None:
            self._snap_thread.join(timeout=5)
            self._snap_thread = None
        with self._lock:
            writer = self._writer
            self._writer = None
        if writer is not None:
            try:
                writer.flush(sync=self.options.fsync != "never")
            finally:
                writer.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
