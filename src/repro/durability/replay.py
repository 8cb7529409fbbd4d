"""The read side of a durability directory, built once.

Crash recovery (:class:`~repro.durability.DurabilityManager`) and the
cluster's WAL-tailing read replicas (:class:`~repro.cluster.WalTailer`)
read the same on-disk protocol, so they read it through this module:

* **layout** — :func:`list_numbered` lists the ``snap-NNNNNN.snap`` /
  ``wal-NNNNNN.log`` files in epoch order;
* **component kinds** — :data:`KINDS` says, for a database, a triple
  store and the CroSSE platform, how to test for emptiness, serialize,
  restore, apply one WAL record and read the generation stamp.  A
  database writes ``sql``, ``rows``, ``create_table``, ``drop_table``,
  ``bump`` and ``attach_foreign`` records, a triple store ``add_all``,
  ``remove_all`` and ``clear`` (each write one record, from its store's
  one commit); ``add`` and ``remove`` records are no longer written but
  are still replayed, for logs written before;
* **replay** — a :class:`ReplayCursor` loads the newest valid snapshot
  (falling back one epoch on a corrupt one), is fed segment bytes, and
  applies every frame past each component's cut, in sequence.  A hole
  in a component's sequence quarantines that component: nothing past
  the hole is applied, because it would fabricate history.

What stays with each caller is what only it may do: recovery deletes
torn snapshot temp files, truncates the active segment's torn tail and
arms the writer; a tailer walks segment successions from its own
offset and refuses to serve past a hole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from ..crosse.kb import Reference
from ..federation.foreign import attach_foreign_table
from ..rdf.store import Triple
from ..relational.engine import Database
from ..relational.errors import RelationalError
from ..relational.schema import Column
from . import snapshot as snapshot_io
from .errors import DurabilityError, SnapshotError
from .wal import WAL_HEADER_COMPONENT, iter_frames

SNAPSHOTS = ("snap-", ".snap")
SEGMENTS = ("wal-", ".log")


def list_numbered(directory: str, prefix: str,
                  suffix: str) -> list[tuple[int, str]]:
    """``(number, path)`` of every ``<prefix>NNNNNN<suffix>`` file in
    *directory*, in ascending order (empty when it does not exist)."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    entries: list[tuple[int, str]] = []
    for name in names:
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        middle = name[len(prefix):len(name) - len(suffix)]
        if middle.isdigit():
            entries.append((int(middle), os.path.join(directory, name)))
    entries.sort()
    return entries


# -- applying one record -----------------------------------------------------

def apply_database_record(db: Database, record_type: str, data: dict,
                          foreign_sources: Any = None) -> None:
    """Replay one WAL ``db:*`` record against *db*."""
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


def apply_store_record(store: Any, record_type: str, data: dict,
                       foreign_sources: Any = None) -> None:
    """Replay one WAL ``store:*`` record against *store* (``add`` and
    ``remove``: older logs only)."""
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


def apply_platform_record(platform: Any, record_type: str, data: dict,
                          foreign_sources: Any = None) -> None:
    """Replay one WAL ``platform`` record against *platform*."""
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


# -- component kinds ---------------------------------------------------------

@dataclass(frozen=True)
class ComponentKind:
    """Everything durability does differently per kind of component.

    ``serialize(obj, journal)`` reads the journal's sequence as the
    snapshot cut; ``restore(obj, payload, foreign_sources)`` and
    ``apply(obj, record_type, data, foreign_sources)`` drive the
    component's own mutation paths.  A *stamped* kind carries a
    generation counter that replay pins exactly.
    """

    empty: Callable[[Any], bool]
    serialize: Callable[[Any, Any], dict]
    restore: Callable[[Any, dict, Any], None]
    apply: Callable[[Any, str, dict, Any], None]
    stamped: bool = True

    def generation(self, obj: Any) -> int:
        return obj.generation if self.stamped else 0

    def pin(self, obj: Any, generation: int) -> None:
        # Exact, not max: replay drives the normal mutation paths, whose
        # incidental bumps may overshoot the recorded counter.  A
        # recovering process is fresh (no cache has observed any (id,
        # generation) pair yet) and a replica's stamp must equal the
        # primary's to mean "same data", so pinning to the recorded
        # value keeps both byte-identical to the never-crashed history.
        if self.stamped and obj.generation != generation:
            obj.pin_generation(generation)


KINDS = {
    "database": ComponentKind(
        snapshot_io.database_empty, snapshot_io.serialize_database,
        snapshot_io.restore_database, apply_database_record),
    "store": ComponentKind(
        snapshot_io.store_empty, snapshot_io.serialize_store,
        lambda store, payload, _sources:
            snapshot_io.restore_store(store, payload),
        apply_store_record),
    "platform": ComponentKind(
        snapshot_io.platform_empty,
        lambda platform, journal:
            snapshot_io.serialize_platform(platform, journal.seq),
        lambda platform, payload, _sources:
            snapshot_io.restore_platform(platform, payload),
        apply_platform_record, stamped=False),
}


@dataclass
class Component:
    """One attached component: its kind, the live object and (on the
    writing side) the journal its mutation hooks log through."""

    kind: ComponentKind
    obj: Any
    journal: Any = None


# -- replay ------------------------------------------------------------------

@dataclass
class Position:
    """Where replay stands for one component."""

    next: int = 1            # the sequence number applied next
    gen: int = 0             # the recorded generation stamp
    high: int = 0            # the highest sequence number seen
    quarantined: bool = False

    @property
    def last(self) -> int:
        """The sequence a journal resumes after: past every record the
        retained log holds, so a quarantined component's new records
        never reuse a number replay has already given up on."""
        return max(self.next - 1, self.high)


class ReplayCursor:
    """Applies snapshot + WAL history to attached components, in order.

    Never touches the directory: callers list and read the files and
    decide what a torn tail means for them.
    """

    def __init__(self, components: dict[str, Component],
                 foreign_sources: Any = None) -> None:
        self.components = components
        self.foreign_sources = foreign_sources
        self.positions = {name: Position() for name in components}
        self.frames_applied = 0
        self.frames_skipped = 0
        self.replay_errors = 0
        self.warnings: list[str] = []
        #: One message per component quarantined at a sequence hole.
        self.gaps: list[str] = []
        self._unattached: set[str] = set()

    def load_snapshot(self, snaps: list[tuple[int, str]]) -> int | None:
        """Restore the newest valid snapshot of *snaps* (a corrupt one
        falls back to the previous epoch, whose WAL tail is retained
        exactly for this case); its epoch, or None."""
        for epoch, path in reversed(snaps):
            try:
                payload = snapshot_io.load_snapshot_file(path)
            except SnapshotError as exc:
                self.warnings.append(str(exc))
                continue
            for name, state in payload.get("components", {}).items():
                component = self.components.get(name)
                if component is None:
                    self.warnings.append(
                        f"snapshot holds unattached component {name!r}")
                    continue
                component.kind.restore(component.obj, state,
                                       self.foreign_sources)
                position = self.positions[name]
                position.next = state.get("seq", 0) + 1
                position.gen = state.get("generation", 0)
            return epoch
        return None

    def feed(self, data: bytes) -> int:
        """Replay every valid frame of *data*; returns the end offset of
        the last one (a torn or corrupt frame ends the feed)."""
        end = 0
        for payload, end in iter_frames(data):
            self._replay(payload)
        return end

    def _replay(self, payload: dict) -> None:
        name = payload.get("c")
        if name == WAL_HEADER_COMPONENT:
            # A segment header floors each generation: a component with
            # no records since the snapshot still comes back stamped.
            header = payload.get("d", {}).get("components", {})
            for comp_name, info in header.items():
                position = self.positions.get(comp_name)
                if position is not None:
                    position.gen = max(position.gen,
                                       info.get("generation", 0))
            return
        position = self.positions.get(name)
        if position is None:
            if name not in self._unattached:
                self._unattached.add(name)
                self.warnings.append(
                    f"WAL holds records for unattached component {name!r}")
            self.frames_skipped += 1
            return
        seq = payload.get("q", 0)
        position.high = max(position.high, seq)
        if position.quarantined or seq < position.next:
            self.frames_skipped += 1
            return
        if seq > position.next:
            # A hole (lost segment or mid-file corruption): applying
            # later records would fabricate history.
            position.quarantined = True
            self.gaps.append(f"WAL gap for {name!r}: expected record "
                             f"{position.next}, found {seq}")
            self.warnings.append(self.gaps[-1])
            self.frames_skipped += 1
            return
        component = self.components[name]
        try:
            component.kind.apply(component.obj, payload.get("t"),
                                 payload.get("d"), self.foreign_sources)
        except Exception as exc:
            # Warn and move on rather than wedge on a frame that will
            # never apply differently.
            self.replay_errors += 1
            self.warnings.append(f"replay of {name}#{seq} "
                                 f"({payload.get('t')}) failed: {exc}")
        position.next = seq + 1
        position.gen = max(position.gen, payload.get("g", 0))
        self.frames_applied += 1

    def pin(self) -> None:
        """Pin every stamped component to its recorded generation."""
        for name, component in self.components.items():
            component.kind.pin(component.obj, self.positions[name].gen)
