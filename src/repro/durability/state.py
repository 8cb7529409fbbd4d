"""Canonical state capture + digests for the crash-point harness.

``*_state`` functions flatten a component into a deterministic,
JSON-able structure (sorted keys, sorted collections, generation
counters included); :func:`state_digest` hashes it.  The harness proves
recovery exact by comparing digests of a recovered stack against a
never-crashed reference that applied the same operation prefix —
including the generation counters, so caches can never serve stale
entries after restart.

``store_id`` and planner statistics are deliberately excluded: the
former is process-local identity, the latter is derived state an
ANALYZE rebuilds (and ANALYZE is excluded from the WAL by
construction).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..federation.foreign import ForeignTable, describe_source
from ..rdf.ntriples import serialize_ntriples
from ..rdf.store import TripleStore
from ..relational.catalog import RESERVED_PREFIX
from ..relational.engine import Database
from .records import json_default


def database_state(db: Database) -> dict:
    with db.rwlock.read_locked():
        tables: dict[str, Any] = {}
        for name in db.table_names():
            if name.startswith(RESERVED_PREFIX):
                continue
            table = db.table(name)
            if isinstance(table, ForeignTable):
                tables[name] = {"foreign": describe_source(table.source),
                                "mode": table.mode,
                                "latency_s": table.latency_s}
                continue
            tables[name] = {
                "columns": [col.to_spec() for col in table.schema.columns],
                "rows": [list(row) for row in table.rows()],
                "indexes": sorted(
                    [index.name, list(index.column_names),
                     index.unique, index.kind]
                    for index in table.indexes.values())}
        return {"generation": db.generation, "tables": tables}


def store_state(store: TripleStore) -> dict:
    return {"generation": store.generation,
            "ntriples": serialize_ntriples(store)}


def platform_state(platform) -> dict:
    statements = platform.statements
    context = platform.context
    with statements.rwlock.read_locked():
        statement_rows = sorted(
            [record.statement_id, record.triple.n3(), record.author,
             record.public, list(record.accepted_by),
             ([record.reference.title, record.reference.author,
               record.reference.link]
              if record.reference is not None else None)]
            for record in statements._statements.values())
    return {
        "users": [[user.username, user.display_name, user.affiliation,
                   list(user.declared_interests)]
                  for user in platform.users.users()],
        "statements": statement_rows,
        "next_statement_id": statements._next_statement_id,
        "stored_queries": sorted(
            [name, platform.stored_queries.get(name).text,
             platform.stored_queries.get(name).description]
            for name in platform.stored_queries.names()),
        "user_queries": {
            username: sorted([name, registry.get(name).text,
                              registry.get(name).description]
                             for name in registry.names())
            for username, registry in sorted(
                platform._user_queries.items())
            if registry.names()},
        "profiles": sorted(
            [profile.username,
             sorted(profile.weights.items()),
             [list(entry) for entry in profile.history]]
            for profile in context.profiles()),
        "resources": {resource: sorted(accesses.items())
                      for resource, accesses
                      in sorted(context._resource_access.items())
                      if accesses},
        "documents": sorted(
            [doc.doc_id, doc.title, doc.text, list(doc.tags)]
            for doc in platform.documents.values()),
    }


def state_digest(state: Any) -> str:
    canonical = json.dumps(state, sort_keys=True, default=json_default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
