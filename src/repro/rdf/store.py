"""The triple store: dictionary-encoded, SPO/POS/OSP-indexed RDF graph.

This is the Jena stand-in of the reproduction, organised the way
production RDF engines are: every term is *interned* once through a
:class:`TermDictionary` (term ↔ small integer id) and the three access
indexes hold nested dicts of **ids**, so pattern matching, join keys and
set membership all run on integer hashing instead of re-hashing full
``Term`` dataclasses.  The paper's personal-KB evaluation model runs
every SE-SQL enrichment against one of these stores, so this layer
bounds end-to-end enrichment latency.

Pattern matching picks the most selective index for the bound
positions; the POS and OSP indexes can be disabled
(``TripleStore(indexing="spo")``) which the E4 benchmark uses as an
ablation.  :class:`StoreStatistics` exposes O(1) per-pattern
cardinalities (maintained alongside the indexes) that the SPARQL BGP
planner (:mod:`repro.sparql.planner`) uses for join ordering.

Several stores may share one dictionary (``TripleStore(dictionary=d)``).
A :class:`TripleView` is a read-only subset of one store — the CroSSE
platform keeps every statement's triple once in a platform-wide store
and gives each user a view holding only the id-triples visible to her.

Every store and view keeps a *stamp* per predicate id, moved exactly
when a triple of that predicate enters or leaves it, and a *floor*,
moved by a store's ``clear``, ``restore_generation`` and
``pin_generation``.  :meth:`_PatternReader.stamp` reads them for a set
of predicates: what an extraction keys on, so a write to one predicate
leaves the extractions of every other valid.  A store's
``generation`` is what durability and replicas compare.

A store has one write path.  Insertions (``add``, ``add_all``,
``update``) run one insertion core and removals (``remove``,
``remove_all``, ``remove_pattern``) one removal core over id triples;
both end in one commit, which bumps the generation once, moves the
touched predicates' stamps and logs one ``add_all`` or ``remove_all``
record of the triples the batch changed.  ``clear`` alone bumps the
generation itself (it moves the floor and logs ``clear``).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterable, Iterator, NamedTuple

from ..rwlock import RWLock
from .errors import RdfError
from .terms import IRI, Term, is_term, term_from_python

#: Process-local store identities.  Generations are **per store** (a
#: plain counter bumped under the write lock), so a recovered store can
#: restore its counter monotonically from a WAL header without racing
#: every other store in the process — the durability layer's
#: requirement.  Stamps are per store too, so SQM extraction keys pair
#: them with this ``store_id``, which no two live stores ever share.
_STORE_IDS = itertools.count(1)

#: Process-monotonic source of predicate stamps and floors.  Never the
#: generation: ``pin_generation`` may move a generation back, and a
#: stamp that came round again would match an entry of older data.
_STAMPS = itertools.count(1)


class Triple(NamedTuple):
    """An RDF statement."""

    subject: Term
    predicate: IRI
    object: Term

    def n3(self) -> str:
        return (f"{self.subject.n3()} {self.predicate.n3()} "
                f"{self.object.n3()} .")


TriplePatternArg = Term | None

_INDEXING_MODES = ("full", "spo")


def _as_triple(subject: Any, predicate: Any, obj: Any) -> Triple:
    subject_term = term_from_python(subject)
    predicate_term = predicate if isinstance(predicate, IRI) else None
    if predicate_term is None:
        raise RdfError(
            f"triple predicate must be an IRI, got {predicate!r}")
    object_term = term_from_python(obj)
    return Triple(subject_term, predicate_term, object_term)


class TermDictionary:
    """A bidirectional term ↔ int-id intern table.

    Ids are dense (0..n-1) and never recycled; ``term(id)`` is a list
    index.  Lookups are lock-free (CPython dict reads are atomic);
    inserts take a short mutex.  One dictionary may back any number of
    stores — ids are comparable *across* stores sharing it, which is
    what lets the SPARQL evaluator hash-join id-encoded solutions.
    """

    __slots__ = ("_lock", "_ids", "_terms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: Term) -> int:
        """The id of *term*, inserting it if unseen."""
        found = self._ids.get(term)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(term)
            if found is None:
                found = len(self._terms)
                self._terms.append(term)
                self._ids[term] = found
            return found

    def lookup(self, term: Term) -> int | None:
        """The id of *term*, or None when it was never interned."""
        return self._ids.get(term)

    def term(self, term_id: int) -> Term:
        """The term behind an id (O(1) list index)."""
        return self._terms[term_id]

    @property
    def terms(self) -> list[Term]:
        """The id → term table itself (read-only by convention); the
        evaluator grabs it once per query for bulk late materialization."""
        return self._terms


class StoreStatistics:
    """O(1) per-pattern cardinalities read off a store's index sizes.

    The SPARQL BGP planner orders joins by these counts the same way
    :mod:`repro.planner` orders relational joins by table statistics —
    except triple-store "statistics" need no ANALYZE: the exact count of
    every single-constant pattern is the size of an index level, and
    per-position counters (``triples per subject/predicate/object id``)
    are maintained on every add/remove.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "TripleStore") -> None:
        self._store = store

    # -- id-level (the planner's working currency) ---------------------------

    def triple_count(self) -> int:
        return self._store._size

    def distinct_subjects(self) -> int:
        return len(self._store._s_counts)

    def distinct_predicates(self) -> int:
        return len(self._store._p_counts)

    def distinct_objects(self) -> int:
        return len(self._store._o_counts)

    def count_ids(self, s: int | None = None, p: int | None = None,
                  o: int | None = None) -> int:
        """Exact matches of an id pattern, from index sizes alone.

        O(1) for every pattern shape on a fully indexed store; the
        "spo" ablation falls back to scanning for the shapes its
        missing indexes would have answered.
        """
        store = self._store
        if s is not None:
            by_predicate = store._spo.get(s)
            if by_predicate is None:
                return 0
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return 0
                if o is not None:
                    return 1 if o in objects else 0
                return len(objects)
            if o is None:
                return store._s_counts.get(s, 0)
            # (s, -, o): one OSP level when available, else scan s's slice.
            if store.indexing == "full":
                return len(store._osp.get(o, {}).get(s, ()))
            return sum(1 for objects in by_predicate.values()
                       if o in objects)
        if p is not None:
            if o is None:
                return store._p_counts.get(p, 0)
            if store.indexing == "full":
                return len(store._pos.get(p, {}).get(o, ()))
            return sum(1 for _ in store._match_ids(None, p, o))
        if o is not None:
            return store._o_counts.get(o, 0)
        return store._size

    # -- term-level convenience ----------------------------------------------

    def count(self, subject: TriplePatternArg = None,
              predicate: TriplePatternArg = None,
              obj: TriplePatternArg = None) -> int:
        """Exact matches of a term pattern (None = wildcard)."""
        ids = self._store._encode_pattern(subject, predicate, obj)
        if ids is None:
            return 0
        return self.count_ids(*ids)


class _PatternReader:
    """The term-level read protocol, written once over ``_match_ids``.

    A subclass supplies ``dictionary``, ``rwlock`` and the id-level
    matcher ``_match_ids(s, p, o)``, and calls :meth:`_init_stamps`;
    :class:`TripleStore` and :class:`TripleView` both read through
    these methods.
    """

    # -- stamps --------------------------------------------------------------

    def _init_stamps(self) -> None:
        #: predicate id → the stamp its triples last moved at.
        self._stamps: dict[int, int] = {}
        #: Moved by a write no predicate stamp describes (``clear``, a
        #: generation restored or pinned): every key below it is stale.
        self._floor = 0
        #: The last stamp handed out here: the whole graph's stamp.
        self._latest = 0

    def _move(self, predicates: Iterable[int]) -> None:
        """Give *predicates* one fresh stamp.  Caller holds the write
        side."""
        stamp = self._latest = next(_STAMPS)
        stamps = self._stamps
        for predicate in predicates:
            stamps[predicate] = stamp

    def _move_floor(self) -> None:
        self._floor = self._latest = next(_STAMPS)

    def stamp(self, predicates: Iterable[int | IRI] | None = None) -> int:
        """The stamp of what a read of *predicates* sees (``None``: the
        whole graph).  A predicate is its id, or its IRI while it may
        not be interned yet.  The stamp changes exactly when one of
        their triples entered or left, or the floor moved, and never
        comes back to a value it had."""
        if predicates is None:
            return self._latest
        stamps = self._stamps
        stamp = self._floor
        for predicate in predicates:
            if not isinstance(predicate, int):
                predicate = self.dictionary.lookup(predicate)
            moved = stamps.get(predicate, 0)
            if moved > stamp:
                stamp = moved
        return stamp

    # -- encoding helpers ----------------------------------------------------

    def _encode_pattern(self, subject: TriplePatternArg,
                        predicate: TriplePatternArg,
                        obj: TriplePatternArg
                        ) -> tuple[int | None, int | None, int | None] | None:
        """Encode a term pattern to ids; None when a bound term is
        absent from the dictionary (no triple can match)."""
        lookup = self.dictionary.lookup
        s = p = o = None
        if subject is not None:
            if not is_term(subject):
                subject = term_from_python(subject)
            s = lookup(subject)
            if s is None:
                return None
        if predicate is not None:
            p = lookup(predicate)
            if p is None:
                return None
        if obj is not None:
            if not is_term(obj):
                obj = term_from_python(obj)
            o = lookup(obj)
            if o is None:
                return None
        return (s, p, o)

    # -- lookup ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples(self, subject: TriplePatternArg = None,
                predicate: TriplePatternArg = None,
                obj: TriplePatternArg = None) -> Iterator[Triple]:
        """All triples matching the pattern (None = wildcard).

        The returned generator holds the store's read lock while
        active, so writers wait until it is exhausted or dropped.
        Terms are materialized from the dictionary on the way out.
        """
        ids = self._encode_pattern(subject, predicate, obj)
        if ids is None:
            return
        terms = self.dictionary.terms
        with self.rwlock.read_locked():
            for s, p, o in self._match_ids(*ids):
                yield Triple(terms[s], terms[p], terms[o])

    def id_triples(self, s: int | None = None, p: int | None = None,
                   o: int | None = None) -> Iterator[tuple[int, int, int]]:
        """Id-level pattern matching (the SPARQL evaluator's hot path).

        Yields ``(s, p, o)`` id tuples; the caller decodes through
        :attr:`dictionary` only at result-materialization time.  Holds
        the read lock while active, like :meth:`triples`.
        """
        with self.rwlock.read_locked():
            yield from self._match_ids(s, p, o)

    # -- convenience views --------------------------------------------------------

    def subjects(self, predicate: TriplePatternArg = None,
                 obj: TriplePatternArg = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for triple in self.triples(None, predicate, obj):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def objects(self, subject: TriplePatternArg = None,
                predicate: TriplePatternArg = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def predicates(self, subject: TriplePatternArg = None,
                   obj: TriplePatternArg = None) -> Iterator[IRI]:
        seen: set[IRI] = set()
        for triple in self.triples(subject, None, obj):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def value(self, subject: TriplePatternArg = None,
              predicate: TriplePatternArg = None) -> Term | None:
        """The single object of (subject, predicate), or None."""
        for triple in self.triples(subject, predicate, None):
            return triple.object
        return None


class TripleStore(_PatternReader):
    """A set of triples with id-keyed hash indexes on each access pattern.

    Thread safety: a reader-writer lock lets any number of threads
    match patterns concurrently while a mutator gets exclusive access.
    Every mutator is one batch under one write-lock acquisition —
    ``add`` and ``remove`` are batches of one — and a batch that
    changed the store commits once (:meth:`_commit`), so caches keyed
    on the generation or on predicate stamps stay stable across a bulk
    load, and a batch that changed nothing moves nothing.  A
    ``triples()`` generator holds the read side until exhausted or
    dropped.
    """

    def __init__(self, indexing: str = "full",
                 dictionary: TermDictionary | None = None) -> None:
        if indexing not in _INDEXING_MODES:
            raise RdfError(f"unknown indexing mode {indexing!r}")
        self.indexing = indexing
        self.dictionary = dictionary if dictionary is not None \
            else TermDictionary()
        #: Process-unique identity; pairs with :meth:`stamp` in
        #: extraction keys (two stores both hold predicate stamps).
        self.store_id = next(_STORE_IDS)
        #: Per-store mutation stamp: starts at 0, bumped once per
        #: batch that changed the store (:meth:`_commit`, ``clear``).
        self.generation = 0
        #: Durability hook (duck-typed): when a
        #: :class:`repro.durability.DurabilityManager` attaches this
        #: store, every committed mutation is logged here.
        self.durability_journal = None
        self.rwlock = RWLock()
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._osp: dict[int, dict[int, set[int]]] = {}
        #: Per-position triple counters backing the O(1) statistics.
        self._s_counts: dict[int, int] = {}
        self._p_counts: dict[int, int] = {}
        self._o_counts: dict[int, int] = {}
        self._size = 0
        self.stats = StoreStatistics(self)
        self._init_stamps()

    # -- mutation -----------------------------------------------------------

    def _commit(self, kind: str, touched: Iterable[int],
                logged: list | None) -> None:
        """Make one batch that changed the store visible and durable:
        bump ``generation`` once, give the predicates it *touched* one
        fresh stamp, and log one *kind* record of *logged*, the term
        triples it added or removed (``None``: no journal).  Every
        mutator but ``clear`` commits here; the caller holds the write
        side and calls only when the batch changed something."""
        self.generation += 1
        self._move(touched)
        journal = self.durability_journal
        if journal is not None and logged:
            journal.log(kind, {"triples": logged},
                        generation=self.generation)

    def _logged(self, keys: Iterable[tuple[int, int, int]]) -> list | None:
        """Id triples *keys* as a journal record holds them: terms
        (``None`` when no journal is attached)."""
        if self.durability_journal is None:
            return None
        terms = self.dictionary.terms
        return [(terms[s], terms[p], terms[o]) for s, p, o in keys]

    def add(self, subject: Any, predicate: Any = None,
            obj: Any = None) -> bool:
        """Add a triple; returns False when it was already present.

        Accepts either ``add(Triple(...))`` or ``add(s, p, o)``; a batch
        of one through :meth:`add_all`'s insertion core.
        """
        if not (isinstance(subject, Triple) and predicate is None):
            subject = _as_triple(subject, predicate, obj)
        return self._insert((subject,)) == 1

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Bulk insert: one write-lock acquisition and, when anything
        was added, one :meth:`_commit` (one ``add_all`` record).

        Returns the number of triples actually added (duplicates both
        within the batch and against the store are skipped).
        """
        return self._insert(triples)

    def _insert(self, triples: Iterable[Triple]) -> int:
        """The one insertion core, behind ``add``, ``add_all`` and
        ``update`` (``add`` calls it directly: a batch of one is no bulk
        load where ``benchmarks/e2e/trace.py`` counts ``add_all`` calls).

        The loop is deliberately inlined — interning and the three
        index inserts run on local aliases with the dictionary's intern
        mutex held once for the whole batch, so a bulk load costs a
        fraction of a per-triple path (the E12 benchmark gates this).
        """
        dictionary = self.dictionary
        ids = dictionary._ids
        terms = dictionary._terms
        ids_get = ids.get
        terms_append = terms.append
        spo, pos, osp = self._spo, self._pos, self._osp
        spo_get, pos_get, osp_get = spo.get, pos.get, osp.get
        s_counts, p_counts, o_counts = (self._s_counts, self._p_counts,
                                        self._o_counts)
        s_get, p_get, o_get = s_counts.get, p_counts.get, o_counts.get
        full = self.indexing == "full"
        #: The predicates the batch added to (deferred: all of them).
        touched: set[int] = set()
        touched_add = touched.add
        count = 0

        with self.rwlock.write_locked(), dictionary._lock:
            # On a load into an empty store the per-position counters
            # are rebuilt by :meth:`_recount` instead of three dict
            # updates per triple.
            defer_counts = self._size == 0
            #: Journaled batches record exactly the triples that made
            #: it into the indexes (not the raw input): an iterable that
            #: raises mid-batch must replay only its applied prefix.
            added: list | None = ([] if self.durability_journal
                                  is not None else None)
            try:
                # Terms are validated/coerced only on their *first*
                # intern (an already-interned term was checked then),
                # so the loop carries no per-triple isinstance dispatch.
                for s_term, p_term, o_term in triples:
                    s = ids_get(s_term)
                    if s is None:
                        if not is_term(s_term):
                            s_term = term_from_python(s_term)
                            s = ids_get(s_term)
                        if s is None:
                            # Publish order matters for lock-free
                            # readers: the term goes in the table
                            # before its id does.
                            s = len(terms)
                            terms_append(s_term)
                            ids[s_term] = s
                    p = ids_get(p_term)
                    if p is None:
                        if not isinstance(p_term, IRI):
                            raise RdfError(
                                "triple predicate must be an IRI, "
                                f"got {p_term!r}")
                        p = len(terms)
                        terms_append(p_term)
                        ids[p_term] = p
                    o = ids_get(o_term)
                    if o is None:
                        if not is_term(o_term):
                            o_term = term_from_python(o_term)
                            o = ids_get(o_term)
                        if o is None:
                            o = len(terms)
                            terms_append(o_term)
                            ids[o_term] = o
                    by_predicate = spo_get(s)
                    if by_predicate is None:
                        by_predicate = spo[s] = {}
                    objects = by_predicate.get(p)
                    if objects is None:
                        by_predicate[p] = {o}
                    elif o in objects:
                        continue
                    else:
                        objects.add(o)
                    if full:
                        by_object = pos_get(p)
                        if by_object is None:
                            by_object = pos[p] = {}
                        subjects = by_object.get(o)
                        if subjects is None:
                            by_object[o] = {s}
                        else:
                            subjects.add(s)
                        by_subject = osp_get(o)
                        if by_subject is None:
                            by_subject = osp[o] = {}
                        predicates = by_subject.get(s)
                        if predicates is None:
                            by_subject[s] = {p}
                        else:
                            predicates.add(p)
                    if not defer_counts:
                        s_counts[s] = s_get(s, 0) + 1
                        p_counts[p] = p_get(p, 0) + 1
                        o_counts[o] = o_get(o, 0) + 1
                        touched_add(p)
                    count += 1
                    if added is not None:
                        added.append((s_term, p_term, o_term))
            finally:
                # Size, the counters and the commit cover exactly the
                # triples that made it into the indexes — also when
                # the iterable raises mid-batch (e.g. an invalid
                # predicate).  Per-triple mutation itself is atomic:
                # every raising operation in the loop precedes that
                # triple's first index insert.
                if count:
                    if defer_counts:
                        self._recount()
                        touched = p_counts
                    self._size += count
                    self._commit("add_all", touched, added)
        return count

    def _recount(self) -> None:
        """Rebuild the per-position counters from the indexes in one
        C-level pass."""
        s_counts, p_counts, o_counts = (self._s_counts, self._p_counts,
                                        self._o_counts)
        for s, by_predicate in self._spo.items():
            s_counts[s] = sum(map(len, by_predicate.values()))
        if self.indexing == "full":
            for p, by_object in self._pos.items():
                p_counts[p] = sum(map(len, by_object.values()))
            for o, by_subject in self._osp.items():
                o_counts[o] = sum(map(len, by_subject.values()))
            return
        for by_predicate in self._spo.values():
            for p, objects in by_predicate.items():
                p_counts[p] = p_counts.get(p, 0) + len(objects)
                for o in objects:
                    o_counts[o] = o_counts.get(o, 0) + 1

    def remove(self, subject: Any, predicate: Any = None,
               obj: Any = None) -> bool:
        """Remove a triple; returns False when it was absent.  A batch of
        one through :meth:`remove_all`."""
        if not (isinstance(subject, Triple) and predicate is None):
            subject = _as_triple(subject, predicate, obj)
        return self.remove_all((subject,)) == 1

    def _remove_ids_locked(self, s: int, p: int, o: int) -> bool:
        try:
            objects = self._spo[s][p]
            objects.remove(o)
        except KeyError:
            return False
        if not objects:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        if self.indexing == "full":
            subjects = self._pos[p][o]
            subjects.discard(s)
            if not subjects:
                del self._pos[p][o]
                if not self._pos[p]:
                    del self._pos[p]
            predicates = self._osp[o][s]
            predicates.discard(p)
            if not predicates:
                del self._osp[o][s]
                if not self._osp[o]:
                    del self._osp[o]
        for counts, key in ((self._s_counts, s), (self._p_counts, p),
                            (self._o_counts, o)):
            remaining = counts[key] - 1
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]
        self._size -= 1
        return True

    def _remove(self, doomed: Iterable[tuple[int, int, int]]) -> int:
        """The one removal core: drop each id triple of *doomed* still
        present and commit them as one ``remove_all`` record.  Caller
        holds the write side."""
        removed = [key for key in doomed if self._remove_ids_locked(*key)]
        if removed:
            self._commit("remove_all", {p for _s, p, _o in removed},
                         self._logged(removed))
        return len(removed)

    def remove_pattern(self, subject: TriplePatternArg = None,
                       predicate: TriplePatternArg = None,
                       obj: TriplePatternArg = None) -> int:
        """Remove every triple matching a pattern; returns the count.

        One write-lock acquisition and one commit for the whole batch,
        whose record holds the concrete triples removed, not the
        pattern: an exact replay must not depend on re-evaluating the
        match against a possibly different dictionary.
        """
        ids = self._encode_pattern(subject, predicate, obj)
        if ids is None:
            return 0
        with self.rwlock.write_locked():
            return self._remove(list(self._match_ids(*ids)))

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove a batch of concrete triples; returns the count removed.

        One write-lock acquisition and one commit — the batch analogue
        of :meth:`remove`, and the replay target of every ``remove_all``
        record.
        """
        encoded = []
        for triple in triples:
            if not isinstance(triple, Triple):
                triple = _as_triple(*triple)
            ids = self._encode_pattern(*triple)
            if ids is not None:
                encoded.append(ids)
        with self.rwlock.write_locked():
            return self._remove(encoded)

    def clear(self) -> None:
        with self.rwlock.write_locked():
            self._spo.clear()
            self._pos.clear()
            self._osp.clear()
            self._s_counts.clear()
            self._p_counts.clear()
            self._o_counts.clear()
            self._size = 0
            self.generation += 1
            self._stamps.clear()
            self._move_floor()
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "clear", {}, generation=self.generation)

    def restore_generation(self, generation: int) -> None:
        """Advance the mutation stamp to at least *generation*.

        Recovery calls this after replaying the WAL so the restored
        store's counter is monotonic with the pre-crash process —
        generation-keyed caches can never observe a (store, generation)
        pair that describes older data than a pair they already served.
        """
        with self.rwlock.write_locked():
            self.generation = max(self.generation, generation)
            self._move_floor()

    def pin_generation(self, generation: int) -> None:
        """Set the mutation stamp to exactly *generation*.

        Counterpart of :meth:`restore_generation` for replay paths that
        must end byte-identical to the primary (recovery's exact
        restore, read replicas tailing the WAL): replayed batches bump
        the counter through the normal mutation paths, and the pin
        collapses any overshoot back to the recorded value.
        """
        with self.rwlock.write_locked():
            self.generation = generation
            self._move_floor()

    # -- lookup ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        ids = self._encode_pattern(*triple)
        if ids is None:
            return False
        s, p, o = ids
        return o in self._spo.get(s, {}).get(p, ())

    def _match_ids(self, s: int | None, p: int | None,
                   o: int | None) -> Iterator[tuple[int, int, int]]:
        if s is not None:
            by_predicate = self._spo.get(s)
            if by_predicate is None:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj_id in objects:
                    yield (s, p, obj_id)
                return
            for p_id, objects in by_predicate.items():
                if o is not None:
                    if o in objects:
                        yield (s, p_id, o)
                else:
                    for obj_id in objects:
                        yield (s, p_id, obj_id)
            return

        if self.indexing == "full" and o is not None:
            by_subject = self._osp.get(o)
            if by_subject is None:
                return
            for s_id, predicates in by_subject.items():
                if p is not None:
                    if p in predicates:
                        yield (s_id, p, o)
                else:
                    for p_id in predicates:
                        yield (s_id, p_id, o)
            return

        if self.indexing == "full" and p is not None:
            by_object = self._pos.get(p)
            if by_object is None:
                return
            for o_id, subjects in by_object.items():
                if o is not None and o_id != o:
                    continue
                for s_id in subjects:
                    yield (s_id, p, o_id)
            return

        # Fallback: full scan (also the "spo"-only ablation path).
        for s_id, by_predicate in self._spo.items():
            for p_id, objects in by_predicate.items():
                if p is not None and p_id != p:
                    continue
                for o_id in objects:
                    if o is not None and o_id != o:
                        continue
                    yield (s_id, p_id, o_id)

    def count(self, subject: TriplePatternArg = None,
              predicate: TriplePatternArg = None,
              obj: TriplePatternArg = None) -> int:
        """Exact pattern cardinality — O(1) via :attr:`stats` wherever
        the indexes cover the pattern shape."""
        with self.rwlock.read_locked():
            return self.stats.count(subject, predicate, obj)

    # -- set-style composition -------------------------------------------------------

    def _adopt_locked(self, other: "TripleStore") -> None:
        """Deep-copy *other*'s id-keyed structures into this (empty)
        store; the caller holds other's read side.  Nested dict/set
        copies run at C speed — no triple is re-interned or re-hashed."""
        self._spo = {s: {p: set(objects)
                         for p, objects in by_predicate.items()}
                     for s, by_predicate in other._spo.items()}
        if self.indexing == "full":
            self._pos = {p: {o: set(subjects)
                             for o, subjects in by_object.items()}
                         for p, by_object in other._pos.items()}
            self._osp = {o: {s: set(predicates)
                             for s, predicates in by_subject.items()}
                         for o, by_subject in other._osp.items()}
        self._s_counts = dict(other._s_counts)
        self._p_counts = dict(other._p_counts)
        self._o_counts = dict(other._o_counts)
        self._size = other._size

    def copy(self) -> "TripleStore":
        """A new independent store sharing this store's dictionary."""
        clone = TripleStore(self.indexing, dictionary=self.dictionary)
        with self.rwlock.read_locked():
            clone._adopt_locked(self)
        return clone

    def union(self, other: "TripleStore") -> "TripleStore":
        """A new store holding both graphs."""
        merged = self.copy()
        merged.update(other)
        return merged

    def update(self, other: "TripleStore") -> int:
        """Bulk-merge *other* into this store: one write-lock
        acquisition and, when anything was added, one commit (one
        ``add_all`` record).

        An empty store sharing *other*'s dictionary and indexing adopts
        its index structures wholesale, re-interning no term; any other
        merge is a snapshot of *other* through the insertion core.
        """
        if other.dictionary is self.dictionary \
                and other.indexing == self.indexing:
            # Write side first: ``store.update(store)`` then piggybacks
            # the read acquisition instead of attempting an upgrade.
            with self.rwlock.write_locked(), other.rwlock.read_locked():
                if not self._size and other._size:
                    self._adopt_locked(other)
                    self._commit("add_all", self._p_counts, self._logged(
                        self._match_ids(None, None, None)))
                    return self._size
        return self._insert(list(other.triples()))


class TripleView(_PatternReader):
    """A read-only subset of one :class:`TripleStore`: its visible id-triples.

    The view holds no index of its own — only the set of ``(s, p, o)``
    id tuples it shows (memory O(visible)).  A pattern is answered by
    enumerating candidates from the base store's indexes and keeping
    those that pass one hash probe into the visible set, or, when no
    subject is bound and the visible set is smaller than the base's
    match count, by scanning the visible set itself.  It shares the
    base's ``dictionary``, ``rwlock`` and (global, upper-bound)
    ``stats``, and has its own ``store_id`` and predicate stamps: one
    moves exactly when a triple of its predicate enters or leaves the
    visible *set* — so caches keyed by a view's stamps are untouched by
    writes to any other view, and by writes to other predicates of
    this one.  It has no ``generation``: :meth:`stamp` with no
    predicates is the whole set's.

    Visibility is counted: a triple shown for two reasons stays
    visible until it was hidden twice.  :meth:`show` and :meth:`hide`
    expect the caller to hold the shared lock's write side.
    """

    def __init__(self, base: TripleStore) -> None:
        self._base = base
        self.dictionary = base.dictionary
        self.stats = base.stats
        self.rwlock = base.rwlock
        self.store_id = next(_STORE_IDS)
        self._visible: dict[tuple[int, int, int], int] = {}
        self._init_stamps()

    def show(self, key: tuple[int, int, int]) -> None:
        """Count one more reason the base's id-triple *key* is visible."""
        count = self._visible.get(key, 0)
        self._visible[key] = count + 1
        if not count:
            self._stamps[key[1]] = self._latest = next(_STAMPS)

    def hide(self, key: tuple[int, int, int]) -> None:
        """Drop one reason; the triple leaves with its last one."""
        count = self._visible[key] - 1
        if count:
            self._visible[key] = count
        else:
            del self._visible[key]
            self._stamps[key[1]] = self._latest = next(_STAMPS)

    def __len__(self) -> int:
        return len(self._visible)

    def __contains__(self, triple: Triple) -> bool:
        return self._encode_pattern(*triple) in self._visible

    def _match_ids(self, s: int | None, p: int | None,
                   o: int | None) -> Iterator[tuple[int, int, int]]:
        visible = self._visible
        if s is None and len(visible) < self.stats.count_ids(None, p, o):
            for key in visible:
                if (p is None or key[1] == p) and (o is None or key[2] == o):
                    yield key
            return
        for key in self._base._match_ids(s, p, o):
            if key in visible:
                yield key

    def count(self, subject: TriplePatternArg = None,
              predicate: TriplePatternArg = None,
              obj: TriplePatternArg = None) -> int:
        """Exact pattern cardinality within the view (a filtered scan)."""
        ids = self._encode_pattern(subject, predicate, obj)
        return 0 if ids is None else sum(1 for _ in self.id_triples(*ids))
