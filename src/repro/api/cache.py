"""LRU caches backing the session layer.

Two caches sit on the repeated-query hot path:

* :class:`PlanCache` — SESQL text, or the shape of an inlined
  statement (:func:`repro.core.parser.lift_literals`), → parsed
  :class:`EnrichedQuery` template (+ analysis report).  Parsing and
  analysis read the statement and the databank, never the KB or the
  user, so the key is the statement alone and one cache serves every
  user of a platform session.
* :class:`ExtractionCache` — (kind, KB store id, arguments,
  stored-query text) → the SPARQL :class:`~repro.core.sqm.Extraction`;
  one per user engine, because the key is that user's context view.
  The invalidation rule is per predicate: an entry keeps the ids of the
  predicates its SPARQL read and the store's stamp of them (see
  :mod:`repro.rdf.store`), and is served only while that stamp holds.
  A write to any other predicate leaves it valid; a write to one of its
  own, or a clear or restored generation of the store, gets it
  replaced.  Stamps never come back to an earlier value and the
  ``store_id`` is process-unique, so a stale entry is never served.  An
  entry keeps its SQL side, and with it the relations its WHERE
  enrichments bind to a run (never catalog tables), so nothing is to be
  released when it goes.

Both expose ``hits`` / ``misses`` counters which ``explain()`` and the
E9 benchmark read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable


class LRUCache:
    """A size-bounded mapping with move-to-front on access.

    ``maxsize <= 0`` disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op) so callers never need a separate code path.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any | None:
        entry = self.probe(key)
        if entry is None:
            self.misses += 1
        return entry

    def probe(self, key: Hashable) -> Any | None:
        """:meth:`get` that leaves a miss uncounted: for a caller that
        looks again under another key, where the miss is counted."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> dict[str, int]:
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses}


class PlanCache(LRUCache):
    """SESQL text or statement shape → prepared plan template."""


class ExtractionCache(LRUCache):
    """Memo for SQM extraction results: one entry per extraction key,
    valid while the stamp of the predicates it read holds."""

    def get(self, key: Hashable, stamp_of=None):
        """The entry under *key* if ``stamp_of(entry.reads)`` (the KB's
        :meth:`~repro.rdf.TripleStore.stamp`) is still the stamp it was
        extracted at."""
        entry = self._entries.get(key)
        if entry is not None and (stamp_of is None
                                  or entry.stamp != stamp_of(entry.reads)):
            self.misses += 1
            return None
        return super().get(key)
