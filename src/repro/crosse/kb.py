"""Per-user knowledge bases with statement provenance (Fig. 4).

Every RDF statement in CroSSE is annotated with its *source*: the user
who inserted it and the users who have accepted it as theirs (the
``userStatement`` / ``userBelief`` edges of the Fig. 4 schema).  A
user's *effective* knowledge base — the context her SESQL queries run in
(Section III-A) — is the union of her own statements and those she has
accepted from peers.

That context is a view, not a copy: every live statement's triple sits
once in one platform-wide id-encoded :class:`~repro.rdf.TripleStore`
(kept while at least one statement asserts it), and each user has one
stable :class:`~repro.rdf.TripleView` holding only the id-triples
visible to her, maintained in O(1) by insert / accept / reject /
retract.  The invalidation rule follows, per predicate: the view's
stamp of a predicate moves exactly when a triple of that predicate
enters or leaves *her* visible set, and her extractions are cached
under the stamps of the predicates they read.  So her engine and its
extraction cache survive every write — her own included — a write on
``dangerLevel`` evicts none of her ``isA`` or ``inCountry``
extractions, and another user's activity evicts nothing of hers.  Registries, shared store and
views are guarded by the shared store's one ``RWLock``.

``to_rdf_graph`` exports the whole book-keeping as reified RDF exactly
in the Fig. 4 vocabulary (``smg:Statement``, ``rdf:subject/predicate/
object``, ``userStatement``, ``userBelief``, ``stmReference`` with
``refTitle``/``refAuthor``/``refLink``), so the metadata store itself is
queryable with SPARQL.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from ..rdf.namespace import RDF, SMG
from ..rdf.store import Triple, TripleStore, TripleView
from ..rdf.terms import Literal, Term, term_from_python
from .errors import StatementError


@dataclass
class Reference:
    """Bibliographic/file backing for a statement (Fig. 4 smg:Reference)."""

    title: str = ""
    author: str = ""
    link: str = ""


@dataclass
class StatementRecord:
    """One crowd statement plus its provenance."""

    statement_id: int
    triple: Triple
    author: str
    public: bool = True
    #: Who accepted it, kept sorted by accept / reject: the one order
    #: every listing and the snapshot read, so none sorts it.
    accepted_by: list[str] = field(default_factory=list)
    reference: Reference | None = None
    #: The triple's ids in the platform dictionary — what the shared
    #: store and the views hold (one tuple object for all of them).
    key: tuple[int, int, int] = field(default=(), repr=False)


class KnowledgeBaseStore:
    """All statements on the platform, with per-user effective views.

    There is deliberately **no** consistency checking across users
    (Section III-A: "there is no centralized control on the correctness
    and/or consistency of the crowdsourced knowledge").

    Thread safety: readers of the registries take the read side of
    :attr:`rwlock` (the shared store's), every mutator its write side
    once per logical mutation — journal record included, so the WAL
    orders statements as the registries saw them.
    """

    def __init__(self) -> None:
        self._statements: dict[int, StatementRecord] = {}
        #: Every live statement's triple, once, for the whole platform.
        self.store = TripleStore()
        self.dictionary = self.store.dictionary
        self.rwlock = self.store.rwlock
        #: id-triple → ids of the statements asserting it: the shared
        #: store keeps a triple while this set is non-empty.
        self._support: dict[tuple[int, int, int], set[int]] = {}
        self._views: dict[str, TripleView] = {}
        #: Per-instance statement-id counter (not a module global): a
        #: recovered store must hand out exactly the ids the pre-crash
        #: process did, independent of any other store in the process.
        self._next_statement_id = 0
        #: Durability hook (duck-typed), set by an attached
        #: :class:`repro.durability.DurabilityManager`.
        self.durability_journal = None

    def _key(self, triple: Triple) -> tuple[int, int, int]:
        return tuple(map(self.dictionary.intern, triple))

    def _admit(self, record: StatementRecord) -> None:
        """Register *record*, publish its triple and show it to its
        author and acceptors.  Caller holds the write side."""
        key = record.key
        self._statements[record.statement_id] = record
        supporters = self._support.get(key)
        if supporters is None:
            self._support[key] = {record.statement_id}
            self.store.add(record.triple)
        else:
            supporters.add(record.statement_id)
        for username in (record.author, *record.accepted_by):
            self._view(username).show(key)

    # -- insertion ------------------------------------------------------------

    def insert(self, author: str, subject, predicate, obj,
               public: bool = True,
               reference: Reference | None = None) -> StatementRecord:
        triple = Triple(term_from_python(subject), predicate,
                        term_from_python(obj))
        key = self._key(triple)
        with self.rwlock.write_locked():
            statement_id = self._next_statement_id
            self._next_statement_id += 1
            record = StatementRecord(statement_id, triple, author,
                                     public, reference=reference, key=key)
            self._admit(record)
            if self.durability_journal is not None:
                ref = record.reference
                self.durability_journal.log(
                    "stmt_insert",
                    {"id": statement_id, "author": author,
                     "triple": list(triple), "public": public,
                     "reference": ([ref.title, ref.author, ref.link]
                                   if ref is not None else None)})
        return record

    def retract(self, author: str, statement_id: int) -> None:
        """Remove one's own statement — also from the effective context
        of every user who had accepted it."""
        with self.rwlock.write_locked():
            record = self._record(statement_id)
            if record.author != author:
                raise StatementError(
                    f"statement {statement_id} belongs to "
                    f"{record.author!r}, not {author!r}")
            del self._statements[statement_id]
            supporters = self._support[record.key]
            supporters.remove(statement_id)
            if not supporters:
                del self._support[record.key]
                self.store.remove(record.triple)
            for username in (author, *record.accepted_by):
                self._views[username].hide(record.key)
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "stmt_retract", {"id": statement_id, "author": author})

    # -- acceptance (the crowdsourced scenario) ------------------------------------

    def accept(self, username: str, statement_id: int) -> StatementRecord:
        """Import a peer's public statement into one's own context."""
        with self.rwlock.write_locked():
            record = self._record(statement_id)
            if record.author == username:
                raise StatementError("cannot accept one's own statement")
            if not record.public:
                raise StatementError(
                    f"statement {statement_id} is not public")
            acceptors = record.accepted_by
            at = bisect_left(acceptors, username)
            if at == len(acceptors) or acceptors[at] != username:
                acceptors.insert(at, username)
                self._view(username).show(record.key)
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "stmt_accept",
                    {"id": statement_id, "username": username})
        return record

    def reject(self, username: str, statement_id: int) -> None:
        with self.rwlock.write_locked():
            record = self._record(statement_id)
            acceptors = record.accepted_by
            at = bisect_left(acceptors, username)
            if at < len(acceptors) and acceptors[at] == username:
                del acceptors[at]
                self._views[username].hide(record.key)
            if self.durability_journal is not None:
                self.durability_journal.log(
                    "stmt_reject",
                    {"id": statement_id, "username": username})

    # -- crash recovery -------------------------------------------------------

    def restore_statement(self, statement_id: int, triple: Triple,
                          author: str, public: bool,
                          accepted_by: Iterable[str] = (),
                          reference: Reference | None = None) -> None:
        """Re-insert a statement with its exact pre-crash identity.

        Used by snapshot load and WAL replay; idempotent on id so a
        snapshot/WAL overlap never duplicates provenance.
        """
        key = self._key(triple)
        with self.rwlock.write_locked():
            if statement_id in self._statements:
                return
            self._admit(StatementRecord(statement_id, triple, author,
                                        public, sorted(set(accepted_by)),
                                        reference, key))
            self._next_statement_id = max(self._next_statement_id,
                                          statement_id + 1)

    # -- lookup --------------------------------------------------------------------

    def _record(self, statement_id: int) -> StatementRecord:
        try:
            return self._statements[statement_id]
        except KeyError:
            raise StatementError(
                f"no statement with id {statement_id}") from None

    def get(self, statement_id: int) -> StatementRecord:
        with self.rwlock.read_locked():
            return self._record(statement_id)

    def public_statements(self, exclude_author: str | None = None,
                          predicate: Term | None = None,
                          author: str | None = None,
                          limit: int | None = None
                          ) -> list[StatementRecord]:
        """Annotations visible to other registered users (Section III-A),
        in the platform's one order (statement registration), optionally
        only *predicate*'s or *author*'s.  The walk stops at *limit*
        matches, so a page costs what it lists, not the store."""
        records = []
        if limit is not None and limit <= 0:
            return records
        with self.rwlock.read_locked():
            for record in self._statements.values():
                if record.public and record.author != exclude_author \
                        and (predicate is None
                             or record.triple.predicate == predicate) \
                        and (author is None or record.author == author):
                    records.append(record)
                    if len(records) == limit:
                        break
        return records

    def __len__(self) -> int:
        return len(self._statements)

    # -- effective context -------------------------------------------------------------

    def effective_kb(self, username: str) -> TripleView:
        """Own statements + accepted statements, as a read-only view.

        This is the personal knowledge base "that will constitute the
        context in which a user's query will be evaluated": one stable
        object per user, O(1) to obtain, whose stamp of a predicate
        moves when (and only when) that predicate's part of it does.
        """
        return self._view(username)

    def _view(self, username: str) -> TripleView:
        # What the mutators call: ``effective_kb`` is the queries' entry
        # point, and is counted (and traced) as such.
        view = self._views.get(username)
        if view is None:
            # setdefault is atomic: racing first calls agree on one view.
            view = self._views.setdefault(username, TripleView(self.store))
        return view

    # -- Fig. 4 reified export ------------------------------------------------------------

    def to_rdf_graph(self) -> TripleStore:
        """Export statements + provenance in the Fig. 4 RDF schema."""
        graph = TripleStore(dictionary=self.dictionary)
        with self.rwlock.read_locked():
            for record in self._statements.values():
                node = SMG[f"statement_{record.statement_id}"]
                graph.add(node, RDF.type, SMG.Statement)
                graph.add(node, RDF.subject, record.triple.subject)
                graph.add(node, RDF.predicate, record.triple.predicate)
                graph.add(node, RDF.object, record.triple.object)
                author = SMG[f"user_{record.author}"]
                graph.add(author, RDF.type, SMG.User)
                graph.add(author, SMG.userStatement, node)
                for username in record.accepted_by:
                    believer = SMG[f"user_{username}"]
                    graph.add(believer, RDF.type, SMG.User)
                    graph.add(believer, SMG.userBelief, node)
                if record.reference is not None:
                    ref_node = SMG[f"reference_{record.statement_id}"]
                    graph.add(node, SMG.stmReference, ref_node)
                    graph.add(ref_node, RDF.type, SMG.Reference)
                    if record.reference.title:
                        graph.add(ref_node, SMG.refTitle,
                                  Literal(record.reference.title))
                    if record.reference.author:
                        graph.add(ref_node, SMG.refAuthor,
                                  Literal(record.reference.author))
                    if record.reference.link:
                        graph.add(ref_node, SMG.refLink,
                                  Literal(record.reference.link))
        return graph
