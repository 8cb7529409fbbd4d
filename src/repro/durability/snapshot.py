"""Compacted snapshots: point-in-time component state, written atomically.

A snapshot file is a one-line header (magic, CRC32, body length)
followed by one JSON body holding every attached component's state plus
its WAL cut — the per-component sequence number the snapshot covers.
Recovery loads the newest *valid* snapshot and replays only WAL frames
past each component's cut; a corrupt or torn snapshot simply falls back
to the previous epoch with a longer replay.

Writes are crash-safe by construction: the body goes to a temp file,
is fsynced, and only then renamed over the final name (``os.replace``
is atomic on POSIX), followed by a directory fsync — a crash at any
byte leaves either the old snapshot set or the new one, never a
half-written file under a valid name.

Component payloads reuse the stack's own typed machinery rather than
pickling: tables round-trip through ``Column.to_spec()`` + the CSV
codec with an explicit NULL marker, triple stores ship their
dictionary-encoded id-tuples plus the (remapped, dense) term table,
and foreign tables are recorded as *descriptors* so recovery re-attaches
them instead of replaying remote fetches.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Callable

from ..core.stored_queries import StoredQueryRegistry
from ..crosse.kb import Reference
from ..federation.foreign import (CsvSource, ForeignTable,
                                  attach_foreign_table, describe_source)
from ..rdf.store import Triple, TripleStore
from ..relational.catalog import RESERVED_PREFIX
from ..relational.csv_io import load_csv, rows_to_csv
from ..relational.engine import Database
from ..relational.schema import Column
from .errors import DurabilityError, SnapshotError
from .records import decode_json, encode_json

SNAPSHOT_MAGIC = b"REPROSNAP1"

#: The CSV NULL marker snapshots always use, so a NULL column value and
#: an empty string survive the round-trip distinctly.
NULL_MARKER = "\\N"


# -- file format -------------------------------------------------------------

def write_snapshot_file(directory: str, final_name: str, payload: Any,
                        opener: Callable[..., Any]) -> str:
    body = encode_json(payload)
    header = SNAPSHOT_MAGIC + b" %08x %d\n" % (zlib.crc32(body), len(body))
    tmp_path = os.path.join(directory, final_name + ".tmp")
    final_path = os.path.join(directory, final_name)
    handle = opener(tmp_path, "wb")
    try:
        handle.write(header + body)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    os.replace(tmp_path, final_path)
    fsync_directory(directory)
    return final_path


def fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def load_snapshot_file(path: str) -> Any:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}")
    newline = raw.find(b"\n")
    if newline < 0 or not raw.startswith(SNAPSHOT_MAGIC + b" "):
        raise SnapshotError(f"snapshot {path!r} has no valid header")
    try:
        checksum_hex, length_text = raw[len(SNAPSHOT_MAGIC) + 1:newline] \
            .split(b" ")
        checksum = int(checksum_hex, 16)
        length = int(length_text)
    except ValueError:
        raise SnapshotError(f"snapshot {path!r} has a malformed header")
    body = raw[newline + 1:]
    if len(body) != length:
        raise SnapshotError(
            f"snapshot {path!r} is truncated "
            f"({len(body)} of {length} body bytes)")
    if zlib.crc32(body) != checksum:
        raise SnapshotError(f"snapshot {path!r} fails its checksum")
    try:
        return decode_json(body)
    except Exception as exc:
        raise SnapshotError(f"snapshot {path!r} body is unreadable: {exc}")


# -- relational databank -----------------------------------------------------

def serialize_database(db: Database, journal) -> dict:
    """State of every durable table, under the databank's read lock.

    ``journal.seq`` is read inside the same lock: journal appends
    happen under the write side, so the cut is exact.
    """
    with db.rwlock.read_locked():
        tables: list[dict] = []
        for name in db.table_names():
            if name.startswith(RESERVED_PREFIX):
                continue
            table = db.table(name)
            if isinstance(table, ForeignTable):
                tables.append({
                    "name": table.name,
                    "foreign": describe_source(table.source),
                    "mode": table.mode,
                    "latency_s": table.latency_s})
                continue
            tables.append({
                "name": table.name,
                "columns": [col.to_spec() for col in table.schema.columns],
                "indexes": [{"name": index.name,
                             "columns": list(index.column_names),
                             "unique": index.unique,
                             "kind": index.kind}
                            for index in table.indexes.values()],
                "csv": rows_to_csv(table.schema.column_names(),
                                   table.rows(),
                                   null_marker=NULL_MARKER)})
        return {"kind": "database", "seq": journal.seq,
                "generation": db.generation, "tables": tables}


def restore_database(db: Database, payload: dict,
                     foreign_sources) -> None:
    for entry in payload["tables"]:
        if "foreign" in entry:
            source = resolve_foreign_source(
                entry["name"], entry["foreign"], foreign_sources)
            attach_foreign_table(db, entry["name"], source,
                                 entry["mode"], entry["latency_s"])
            continue
        columns = [Column.from_spec(spec) for spec in entry["columns"]]
        db.create_table(entry["name"], columns)
        for index in entry["indexes"]:
            db.table(entry["name"]).create_index(
                index["name"], list(index["columns"]),
                index["unique"], index["kind"])
        load_csv(db, entry["name"], entry["csv"], create=False,
                 null_marker=NULL_MARKER)
    db.restore_generation(payload.get("generation", 0))


def database_empty(db: Database) -> bool:
    return not any(not name.startswith(RESERVED_PREFIX)
                   for name in db.table_names())


def resolve_foreign_source(table_name: str, descriptor: dict,
                           foreign_sources):
    """Rebuild a foreign source from its WAL/snapshot descriptor.

    CSV sources are self-contained (the text is in the descriptor).
    Everything else — remote databases, remote views, callables — is
    identity-only by design: recovery must never replay a remote fetch,
    so the caller supplies ``foreign_sources`` (a mapping of table name
    to source, or a callable taking the descriptor) to re-establish
    live handles.
    """
    if foreign_sources is not None:
        if callable(foreign_sources):
            source = foreign_sources(descriptor)
        else:
            source = foreign_sources.get(table_name)
        if source is not None:
            return source
    if descriptor.get("kind") == "csv":
        return CsvSource(descriptor["text"], descriptor["name"])
    raise DurabilityError(
        f"cannot re-attach foreign table {table_name!r} from descriptor "
        f"{descriptor!r}: pass foreign_sources= to recover()")


# -- triple store ------------------------------------------------------------

def serialize_store(store: TripleStore, journal) -> dict:
    """Dictionary-encoded store state: dense term table + id triples.

    Term ids are remapped to a dense 0..n-1 range covering only the
    terms this store actually uses — the dictionary may be shared
    platform-wide and hold terms of other stores.
    """
    with store.rwlock.read_locked():
        id_triples = sorted(store._match_ids(None, None, None))
        used_ids = sorted({term_id for triple in id_triples
                           for term_id in triple})
        remap = {old: new for new, old in enumerate(used_ids)}
        term_of = store.dictionary.term
        return {"kind": "store", "seq": journal.seq,
                "generation": store.generation,
                "indexing": store.indexing,
                "terms": [term_of(term_id) for term_id in used_ids],
                "triples": [[remap[s], remap[p], remap[o]]
                            for s, p, o in id_triples]}


def restore_store(store: TripleStore, payload: dict) -> None:
    terms = payload["terms"]
    store.add_all((terms[s], terms[p], terms[o])
                  for s, p, o in payload["triples"])
    store.restore_generation(payload.get("generation", 0))


def store_empty(store: TripleStore) -> bool:
    return len(store) == 0


# -- CroSSE platform ---------------------------------------------------------

def serialize_platform(platform, seq: int) -> dict:
    """Users, statements, context, stored queries and documents."""
    statements = platform.statements
    context = platform.context
    with statements.rwlock.read_locked():
        statement_entries = [
            {"id": record.statement_id,
             "triple": list(record.triple),
             "author": record.author,
             "public": record.public,
             "accepted_by": list(record.accepted_by),
             "reference": ([record.reference.title,
                            record.reference.author,
                            record.reference.link]
                           if record.reference is not None else None)}
            for record in statements._statements.values()]
    return {
        "kind": "platform", "seq": seq,
        "users": [{"username": user.username,
                   "display_name": user.display_name,
                   "affiliation": user.affiliation,
                   "interests": list(user.declared_interests)}
                  for user in platform.users.users()],
        "statements": statement_entries,
        "next_statement_id": statements._next_statement_id,
        "stored_queries": _registry_spec(platform.stored_queries),
        # list(): a user's first query adds her (empty, hence skipped)
        # level while the snapshot thread is here.
        "user_queries": {username: _registry_spec(registry)
                         for username, registry
                         in list(platform._user_queries.items())
                         if registry.names()},
        "profiles": [{"username": profile.username,
                      "weights": dict(profile.weights),
                      "history": [list(entry)
                                  for entry in profile.history]}
                     for profile in context.profiles()],
        "resources": {resource: dict(accesses)
                      for resource, accesses
                      in context._resource_access.items()},
        "documents": [[doc.doc_id, doc.title, doc.text, list(doc.tags)]
                      for doc in platform.documents.values()],
    }


def _registry_spec(registry: StoredQueryRegistry) -> list[list[str]]:
    return [[stored.name, stored.text, stored.description]
            for stored in (registry.get(name)
                           for name in registry.names())]


def restore_platform(platform, payload: dict) -> None:
    for user in payload.get("users", ()):
        platform.users.register(user["username"], user["display_name"],
                                user["affiliation"],
                                list(user["interests"]))
    statements = platform.statements
    for entry in payload.get("statements", ()):
        reference = (Reference(*entry["reference"])
                     if entry["reference"] else None)
        statements.restore_statement(
            entry["id"], Triple(*entry["triple"]), entry["author"],
            entry["public"], entry["accepted_by"], reference)
    statements._next_statement_id = max(
        statements._next_statement_id,
        payload.get("next_statement_id", 0))
    for name, text, description in payload.get("stored_queries", ()):
        platform.stored_queries.register(name, text, description)
    for username, specs in payload.get("user_queries", {}).items():
        registry = platform._registry_for(username)
        for name, text, description in specs:
            registry.register(name, text, description)
    context = platform.context
    for spec in payload.get("profiles", ()):
        context.profile(spec["username"]).restore(
            spec["weights"], [tuple(entry) for entry in spec["history"]])
    for resource, accesses in payload.get("resources", {}).items():
        context.restore_accesses(resource, accesses)
    for doc_id, title, text, tags in payload.get("documents", ()):
        platform.add_document(doc_id, title, text, tags)


def platform_empty(platform) -> bool:
    return (len(platform.users) == 0
            and len(platform.statements) == 0
            and not platform.stored_queries.names()
            and not platform._user_queries
            and not platform.context.profiles()
            and not platform.context.all_resources()
            and not platform.documents)
