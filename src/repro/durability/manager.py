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

Components attach *before* ``recover()`` and are identified by stable
names (``db:<name>``, ``store:<name>``, ``"platform"``) so a restarted
process re-binds its journals to the recovered history.  Mutation
hooks in the relational/rdf/crosse layers are duck-typed — they call
``journal.log(...)`` on an attached ``durability_journal`` attribute
and never import this package, keeping the core layers cycle-free.

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

from ..crosse.kb import Reference
from ..federation.foreign import attach_foreign_table
from ..rdf.store import Triple
from ..relational.engine import Database
from ..relational.errors import RelationalError
from ..relational.schema import Column
from . import snapshot as snapshot_io
from .errors import DurabilityError, SnapshotError
from .options import DurabilityOptions
from .wal import WAL_HEADER_COMPONENT, WalWriter, iter_frames


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


class _Component:
    __slots__ = ("name", "kind", "obj", "journal")

    def __init__(self, name: str, kind: str, obj: Any,
                 journal: ComponentJournal) -> None:
        self.name = name
        self.kind = kind
        self.obj = obj
        self.journal = journal


@dataclass
class RecoveryReport:
    """What ``recover()`` found and did."""

    snapshot_epoch: int | None = None
    frames_applied: int = 0
    frames_skipped: int = 0
    replay_errors: int = 0
    truncated_bytes: int = 0
    initial_snapshot: bool = False
    components: dict[str, dict] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def apply_database_record(db: Database, record_type: str, data: dict,
                          foreign_sources: Any = None) -> None:
    """Replay one WAL ``db:*`` record against *db*.

    Shared by crash recovery and the cluster layer's WAL-tailing read
    replicas, so both consumers apply primary history through the exact
    same mutation paths.
    """
    if record_type == "sql":
        try:
            db.execute(data["sql"])
        except RelationalError:
            # The original statement failed identically after its
            # partial mutation; the log recorded it because the
            # generation moved.  Same failure, same state.
            pass
    elif record_type == "rows":
        columns = data["columns"]
        db.insert_rows(data["table"],
                       (dict(zip(columns, row))
                        for row in data["rows"]))
    elif record_type == "create_table":
        db.create_table(
            data["name"],
            [Column.from_spec(spec) for spec in data["columns"]],
            data["if_not_exists"])
    elif record_type == "drop_table":
        db.drop_table(data["name"], data["if_exists"])
    elif record_type == "bump":
        db.bump_generation()
    elif record_type == "attach_foreign":
        source = snapshot_io.resolve_foreign_source(
            data["name"], data["source"], foreign_sources)
        attach_foreign_table(db, data["name"], source,
                             data["mode"], data["latency_s"])
    else:
        raise DurabilityError(
            f"unknown database record type {record_type!r}")


def apply_store_record(store: Any, record_type: str, data: dict) -> None:
    """Replay one WAL ``store:*`` record against *store* (see
    :func:`apply_database_record`)."""
    if record_type == "add":
        store.add(Triple(*data["triple"]))
    elif record_type == "add_all":
        store.add_all(tuple(triple) for triple in data["triples"])
    elif record_type == "remove":
        store.remove(Triple(*data["triple"]))
    elif record_type == "remove_all":
        store.remove_all(Triple(*triple)
                         for triple in data["triples"])
    elif record_type == "clear":
        store.clear()
    else:
        raise DurabilityError(
            f"unknown store record type {record_type!r}")


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
        self._components: dict[str, _Component] = {}
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
            self._components[name] = _Component(name, kind, obj, journal)
            return journal

    # -- paths ---------------------------------------------------------------

    def _snap_name(self, epoch: int) -> str:
        return f"snap-{epoch:06d}.snap"

    def _wal_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:06d}.log")

    def _list_numbered(self, prefix: str,
                       suffix: str) -> list[tuple[int, str]]:
        entries: list[tuple[int, str]] = []
        for name in os.listdir(self.directory):
            if not (name.startswith(prefix) and name.endswith(suffix)):
                continue
            middle = name[len(prefix):len(name) - len(suffix)]
            if middle.isdigit():
                entries.append((int(middle),
                                os.path.join(self.directory, name)))
        entries.sort()
        return entries

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
            # Durability switched on over an already-populated stack in
            # a fresh directory: capture the baseline immediately so a
            # crash before the first explicit snapshot still recovers.
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
        report = RecoveryReport()
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):  # torn snapshot write, never renamed
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover
                    pass
        snaps = self._list_numbered("snap-", ".snap")
        wals = self._list_numbered("wal-", ".log")
        self._max_epoch_seen = max(
            [num for num, _ in snaps] + [num for num, _ in wals],
            default=0)
        has_prior = bool(snaps or wals)
        if has_prior:
            for comp in self._components.values():
                if not self._component_empty(comp):
                    raise DurabilityError(
                        f"component {comp.name!r} must be empty to "
                        f"recover prior state from {self.directory!r}")
        chosen_payload = None
        if snaps:
            for num, path in reversed(snaps):
                try:
                    chosen_payload = snapshot_io.load_snapshot_file(path)
                except SnapshotError as exc:
                    # Fall back to the previous epoch: its WAL tail is
                    # retained exactly for this case.
                    report.warnings.append(str(exc))
                    continue
                self._epoch = num
                report.snapshot_epoch = num
                break
        progress = {name: {"next": 1, "gen": 0, "broken": False}
                    for name in self._components}
        if chosen_payload is not None:
            for name, payload in chosen_payload.get("components",
                                                    {}).items():
                comp = self._components.get(name)
                if comp is None:
                    report.warnings.append(
                        f"snapshot holds unattached component {name!r}")
                    continue
                self._restore_component(comp, payload, foreign_sources)
                progress[name]["next"] = payload.get("seq", 0) + 1
                progress[name]["gen"] = payload.get("generation", 0)
        self._replay_segments(wals, progress, foreign_sources, report)
        if has_prior:
            for name, comp in self._components.items():
                state = progress[name]
                comp.journal.seq = state["next"] - 1
                self._force_generation(comp, state["gen"])
                report.components[name] = {
                    "seq": comp.journal.seq,
                    "generation": state["gen"]}
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
        if not has_prior and any(
                not self._component_empty(comp)
                for comp in self._components.values()):
            report.initial_snapshot = True
        return report

    def _replay_segments(self, wals: list[tuple[int, str]],
                         progress: dict, foreign_sources: Any,
                         report: RecoveryReport) -> None:
        unattached: set[str] = set()
        for position, (num, path) in enumerate(wals):
            with open(path, "rb") as handle:
                data = handle.read()
            end = 0
            for payload, end in iter_frames(data):
                name = payload.get("c")
                if name == WAL_HEADER_COMPONENT:
                    header = payload.get("d", {}).get("components", {})
                    for comp_name, info in header.items():
                        state = progress.get(comp_name)
                        if state is not None:
                            state["gen"] = max(
                                state["gen"],
                                info.get("generation", 0))
                    continue
                state = progress.get(name)
                if state is None:
                    if name not in unattached:
                        unattached.add(name)
                        report.warnings.append(
                            f"WAL holds records for unattached "
                            f"component {name!r}")
                    report.frames_skipped += 1
                    continue
                seq = payload.get("q", 0)
                if state["broken"] or seq < state["next"]:
                    report.frames_skipped += 1
                    continue
                if seq > state["next"]:
                    # A hole (lost segment or mid-file corruption):
                    # applying later records would fabricate history.
                    state["broken"] = True
                    report.warnings.append(
                        f"WAL gap for {name!r}: expected record "
                        f"{state['next']}, found {seq}")
                    report.frames_skipped += 1
                    continue
                try:
                    self._apply_frame(self._components[name],
                                      payload.get("t"),
                                      payload.get("d"),
                                      foreign_sources)
                except Exception as exc:
                    report.replay_errors += 1
                    report.warnings.append(
                        f"replay of {name}#{seq} "
                        f"({payload.get('t')}) failed: {exc}")
                state["next"] = seq + 1
                state["gen"] = max(state["gen"], payload.get("g", 0))
                report.frames_applied += 1
            if end < len(data):
                if position == len(wals) - 1:
                    # Torn tail of the active segment: the standard
                    # crash shape.  Truncate so appends resume cleanly.
                    os.truncate(path, end)
                    report.truncated_bytes += len(data) - end
                else:
                    report.warnings.append(
                        f"corrupt frame inside retained segment "
                        f"{os.path.basename(path)}")
        return

    def _force_generation(self, comp: _Component, generation: int) -> None:
        # Exact, not max: snapshot restore drives the normal mutation
        # paths, whose incidental bumps may overshoot the recorded
        # counter.  At recovery time the process is fresh (no cache has
        # observed any (id, generation) pair yet), so pinning to the
        # pre-crash value both restores monotonicity with the crashed
        # process and keeps recovered state byte-identical to a
        # never-crashed reference.
        if comp.kind in ("database", "store"):
            comp.obj.pin_generation(generation)

    # -- replay dispatch ------------------------------------------------------

    def _component_empty(self, comp: _Component) -> bool:
        if comp.kind == "database":
            return snapshot_io.database_empty(comp.obj)
        if comp.kind == "store":
            return snapshot_io.store_empty(comp.obj)
        return snapshot_io.platform_empty(comp.obj)

    def _serialize_component(self, comp: _Component) -> dict:
        if comp.kind == "database":
            return snapshot_io.serialize_database(comp.obj, comp.journal)
        if comp.kind == "store":
            return snapshot_io.serialize_store(comp.obj, comp.journal)
        with self._lock:
            seq = comp.journal.seq
        return snapshot_io.serialize_platform(comp.obj, seq)

    def _restore_component(self, comp: _Component, payload: dict,
                           foreign_sources: Any) -> None:
        if comp.kind == "database":
            snapshot_io.restore_database(comp.obj, payload,
                                         foreign_sources)
        elif comp.kind == "store":
            snapshot_io.restore_store(comp.obj, payload)
        else:
            snapshot_io.restore_platform(comp.obj, payload)

    def _apply_frame(self, comp: _Component, record_type: str,
                     data: dict, foreign_sources: Any) -> None:
        if comp.kind == "database":
            self._apply_database(comp.obj, record_type, data,
                                 foreign_sources)
        elif comp.kind == "store":
            self._apply_store(comp.obj, record_type, data)
        else:
            self._apply_platform(comp.obj, record_type, data)

    def _apply_database(self, db: Database, record_type: str,
                        data: dict, foreign_sources: Any) -> None:
        apply_database_record(db, record_type, data, foreign_sources)

    def _apply_store(self, store: Any, record_type: str,
                     data: dict) -> None:
        apply_store_record(store, record_type, data)

    def _apply_platform(self, platform: Any, record_type: str,
                        data: dict) -> None:
        if record_type == "user":
            platform.users.register(data["username"],
                                    data["display_name"],
                                    data["affiliation"],
                                    list(data["interests"]))
        elif record_type == "stored_query":
            platform.register_stored_query(data["name"], data["sparql"],
                                           data["username"],
                                           data["description"])
        elif record_type == "stmt_insert":
            reference = (Reference(*data["reference"])
                         if data["reference"] else None)
            platform.statements.restore_statement(
                data["id"], Triple(*data["triple"]), data["author"],
                data["public"], (), reference)
        elif record_type == "stmt_accept":
            platform.statements.accept(data["username"], data["id"])
        elif record_type == "stmt_reject":
            platform.statements.reject(data["username"], data["id"])
        elif record_type == "stmt_retract":
            platform.statements.retract(data["author"], data["id"])
        elif record_type == "context":
            platform.context.record_concepts(data["username"],
                                             list(data["concepts"]),
                                             data["event"])
        elif record_type == "resource":
            platform.context.record_resource(data["username"],
                                             data["resource"])
        elif record_type == "document":
            platform.add_document(data["doc_id"], data["title"],
                                  data["text"], list(data["tags"]))
        else:
            raise DurabilityError(
                f"unknown platform record type {record_type!r}")

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
                   "generation": self._generation_of(comp)}
            for name, comp in self._components.items()}
        self._writer.append({"c": WAL_HEADER_COMPONENT, "q": 0, "g": 0,
                             "t": "header",
                             "d": {"epoch": self._wal_seq,
                                   "components": components}})
        self._writer.flush(sync=self.options.fsync != "never")

    def _generation_of(self, comp: _Component) -> int:
        if comp.kind in ("database", "store"):
            return comp.obj.generation
        return 0

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
                           name: self._serialize_component(comp)
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
        for num, path in self._list_numbered("snap-", ".snap"):
            if num < keep_snapshots:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover
                    pass
        for num, path in self._list_numbered("wal-", ".log"):
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
