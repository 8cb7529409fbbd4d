"""The relations an extraction keeps in the databank.

An extraction's SQL side (:class:`SqlExtraction`) is its terms
converted once, with the combine structures built from them.  A WHERE
enrichment reads it as a :class:`Relation`: a read-only temp table
registered in the databank once per extraction (and extra constant),
under a name of its own, so the statement rewritten over it is the same
statement every run.  A run leases the relations it reads and returns
them when it is released; a relation is dropped once it is retired —
its extraction left the cache, or was never in one — and its last
lease is back, never earlier.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from functools import cached_property

from ..relational.engine import Database
from ..relational.indexes import _normalize
from ..relational.result import ResultSet

_counter = itertools.count()

#: Guards every relation's registration, leases, retirement and memo.
_LOCK = threading.RLock()

#: The relations registered and not yet dropped, by name (an index: it
#: keeps none of them alive).
_LIVE: "weakref.WeakValueDictionary[str, Relation]" = \
    weakref.WeakValueDictionary()


# -- an extraction's SQL side ------------------------------------------------------


class SqlExtraction:
    """One extraction's terms as SQL values — converted once, with the
    engine's mapping — the combine structures built from them, and the
    relations WHERE enrichments registered for it.

    ``kept`` says whether its extraction sits in an extraction cache: a
    relation of a kept extraction stays registered for the next run, one
    of an extraction nobody keeps is retired from the start.
    """

    def __init__(self, extraction, mapping, kept: bool) -> None:
        convert = mapping.to_sql_value
        self.values = [convert(term) for term in extraction.values]
        self.pairs = [(convert(subject), convert(obj))
                      for subject, obj in extraction.pairs]
        #: The normalised subjects: the boolean enrichments' key set,
        #: built from the terms so ``TRUE`` and ``1`` stay two keys.
        self.keys = {_normalize(value) for value in map(
            convert, extraction.subjects) if value is not None}
        self.kept = kept
        self._relations: dict[tuple, Relation] = {}

    @cached_property
    def buckets(self) -> dict[object, list[object]]:
        """Objects by normalised subject, in extraction order: the
        SCHEMAEXTENSION / -REPLACEMENT hash side."""
        buckets: dict[object, list[object]] = {}
        for subject, obj in self.pairs:
            if subject is not None:
                buckets.setdefault(_normalize(subject), []).append(obj)
        return buckets

    def lease(self, databank: Database, kind: str, extra: tuple,
              counts: dict[str, int]) -> "Relation":
        """The relation of this extraction in *databank* — ``vals``:
        its values and then *extra*, one column; ``pairs``: its pairs,
        two — registered on first use, with one more lease taken."""
        key = (databank, kind, extra)
        with _LOCK:
            relation = self._relations.get(key)
            if relation is None:
                columns = ([self.values + list(extra)] if kind == "vals"
                           else [[subject for subject, _obj in self.pairs],
                                 [obj for _subject, obj in self.pairs]])
                relation = Relation(databank, kind, columns, counts)
                if self.kept:
                    self._relations[key] = relation
                else:
                    relation.retired = True
                    counts["retired"] += 1
            relation.leases += 1
            return relation

    def retire(self) -> None:
        """Its extraction left the cache: so do its relations, each as
        soon as no run holds it."""
        with _LOCK:
            self.kept = False
            relations, self._relations = self._relations, {}
            for relation in relations.values():
                relation.retire()


class Relation:
    """An extraction registered in a databank as a read-only temp table
    named ``__sesql_<kind>_<n>``, the runs holding it (``leases``) and
    the statements rewritten over it (their memo).  A relation nothing
    refers to any more — its extraction cache was dropped unclosed —
    takes its table with it."""

    def __init__(self, databank: Database, kind: str, columns: list[list],
                 counts: dict[str, int]) -> None:
        self.name = f"__sesql_{kind}_{next(_counter)}"
        self.databank = databank
        self.leases = 0
        self.retired = False
        #: Rewritten statements by memo key (see :func:`memoise`).
        self.rewrites: dict[tuple, tuple] = {}
        self._counts = counts
        databank.create_temp_table(self.name, ResultSet(
            [f"c{index}" for index in range(len(columns))], cols=columns))
        self._unregister = weakref.finalize(
            self, databank.drop_temp_table, self.name)
        self._unregister.atexit = False
        counts["registered"] += 1
        counts["live"] += 1
        _LIVE[self.name] = self

    def release(self) -> None:
        """Return one lease."""
        with _LOCK:
            self.leases -= 1
            if self.retired and not self.leases:
                self._drop()

    def retire(self) -> None:
        with _LOCK:
            if self.retired:
                return
            self.retired = True
            self._counts["retired"] += 1
            if not self.leases:
                self._drop()

    def _drop(self) -> None:
        self._unregister()
        self._counts["live"] -= 1
        _LIVE.pop(self.name, None)
        for _query, finalizer in list(self.rewrites.values()):
            detached = finalizer.detach()
            if detached is not None:
                _forget(*detached[2])


def live_relations(databank: Database) -> list[Relation]:
    """The relations registered in *databank* and not yet dropped."""
    with _LOCK:
        return [relation for relation in _LIVE.values()
                if relation.databank is databank]


# -- the memo of rewritten statements ----------------------------------------------


def recall(template, relations: list[Relation], key: tuple):
    """The statement *template* was rewritten to over *relations*
    (under *key*), or ``None``."""
    entry = relations[0].rewrites.get((id(template),) + key)
    return entry[0] if entry is not None else None


def memoise(template, relations: list[Relation], key: tuple, rewritten):
    """Keep *rewritten* with each of *relations* until the template or
    one of them goes, whichever is first; returns the statement kept
    (another run's, if it memoised first)."""
    full_key = (id(template),) + key
    with _LOCK:
        entry = relations[0].rewrites.get(full_key)
        if entry is not None:
            return entry[0]
        finalizer = weakref.finalize(template, _forget, full_key,
                                     relations)
        finalizer.atexit = False
        entry = (rewritten, finalizer)
        for relation in relations:
            relation.rewrites[full_key] = entry
        return rewritten


def _forget(key: tuple, relations: list[Relation]) -> None:
    with _LOCK:
        for relation in relations:
            relation.rewrites.pop(key, None)
