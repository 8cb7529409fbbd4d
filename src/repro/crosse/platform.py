"""The CroSSE platform facade (Figs. 1-2).

One object wires the Main Platform (relational databank), the Semantic
Platform (per-user knowledge bases + tagging), the SESQL engine, context
tracking, recommendations and previews.  Every SESQL query a user poses
is evaluated in the context of her *effective* knowledge base (own +
accepted statements), and automatically feeds her activity profile.
"""

from __future__ import annotations

import threading

from ..api.options import QueryOptions
from ..api.session import PlatformSession, Session
from ..core.engine import SESQLResult
from ..core.mapping import ResourceMapping
from ..core.stored_queries import StoredQueryRegistry
from ..relational.engine import Database
from .context import ContextTracker
from .kb import KnowledgeBaseStore, Reference, StatementRecord
from .preview import Document, preview as build_preview
from .ranking import rank_documents
from .recommend import PeerRecommender
from .tagging import SemanticTaggingModule
from .users import User, UserRegistry


class CrossePlatform:
    """The social knowledge platform around a databank."""

    def __init__(self, databank: Database,
                 mapping: ResourceMapping | None = None,
                 durability=None, telemetry=None) -> None:
        self.databank = databank
        self.mapping = mapping or ResourceMapping()
        #: Durability hook (duck-typed) for platform-level records
        #: (stored queries, documents); set by an attached manager.
        self.durability_journal = None
        #: The attached :class:`repro.durability.DurabilityManager`
        #: (None = durability off, the default).
        self.durability = None
        #: The :class:`repro.telemetry.Telemetry` bundle (None = off,
        #: the default).  Enabled *before* durability so recovery and
        #: the WAL are metered from the first write.
        self.telemetry = None
        self.users = UserRegistry()
        self.statements = KnowledgeBaseStore()
        self.tagging = SemanticTaggingModule(
            databank, self.statements, self.mapping)
        self.context = ContextTracker()
        self.recommender = PeerRecommender(self.context)
        self.stored_queries = StoredQueryRegistry()
        self._user_queries: dict[str, StoredQueryRegistry] = {}
        self.documents: dict[str, Document] = {}
        #: The shared default session, made on first use under the lock
        #: (two clients' first queries must not each get their own).
        self._session: PlatformSession | None = None
        self._session_lock = threading.Lock()
        if telemetry is not None:
            self.enable_telemetry(telemetry)
        if durability is not None:
            self.enable_durability(durability)

    # -- telemetry -----------------------------------------------------------

    def enable_telemetry(self, spec=True):
        """Switch on metrics + tracing + the slow-query log.

        *spec* is anything :func:`repro.telemetry.create_telemetry`
        accepts (``True``, :class:`~repro.telemetry.TelemetryOptions`,
        or a shared :class:`~repro.telemetry.Telemetry` bundle).  The
        bundle is pushed through the databank, an already-attached
        durability manager starts metering its WAL and snapshots, and a
        per-user session picks it up the next time it is obtained
        through ``as_user`` (which compares bundles by identity; the
        engine is kept).  Returns the bundle.
        """
        from ..telemetry import create_telemetry
        telemetry = create_telemetry(spec)
        self.telemetry = telemetry
        attach = getattr(self.databank, "attach_telemetry", None)
        if attach is not None:
            attach(telemetry)
        if self.durability is not None:
            self.durability.attach_telemetry(telemetry)
        return telemetry

    # -- durability ----------------------------------------------------------

    def enable_durability(self, options):
        """Attach a WAL + snapshot manager and recover prior state.

        *options* is a :class:`repro.durability.DurabilityOptions` (or
        an already-constructed manager).  The databank and every piece
        of platform state (users, statements, context, stored queries,
        documents) become durable; recovery runs immediately, so a
        platform constructed over an existing durability directory
        comes back with its pre-crash state.
        """
        from ..durability import DurabilityManager
        if self.durability is not None:
            raise RuntimeError("durability is already enabled")
        manager = (options if isinstance(options, DurabilityManager)
                   else DurabilityManager(options))
        manager.attach_database(self.databank)
        manager.attach_platform(self)
        if self.telemetry is not None:
            # Before recover(): the recovery WAL writer is metered too.
            manager.attach_telemetry(self.telemetry)
        manager.recover()
        self.durability = manager
        return manager

    # -- users ---------------------------------------------------------------

    def register_user(self, username: str, display_name: str = "",
                      affiliation: str = "",
                      interests: list[str] | None = None) -> User:
        user = self.users.register(username, display_name, affiliation,
                                   interests)
        if interests:
            self.context.record_concepts(username, interests,
                                         event="declare")
        return user

    # -- stored SPARQL queries ---------------------------------------------------

    def register_stored_query(self, name: str, sparql: str,
                              username: str | None = None,
                              description: str = "") -> None:
        """Register a stored query globally or for one user.

        Engines read the registries live, so sessions and prepared
        queries already handed out resolve the name from their next
        execution on; a personal registration shadows a global one of
        the same name for that user only.
        """
        if username is None:
            self.stored_queries.register(name, sparql, description)
        else:
            self.users.get(username)
            self._registry_for(username).register(name, sparql, description)
        if self.durability_journal is not None:
            self.durability_journal.log(
                "stored_query", {"name": name, "sparql": sparql,
                                 "username": username,
                                 "description": description})

    def _registry_for(self, username: str) -> StoredQueryRegistry:
        """The user's own registry level (made empty on first use);
        its misses fall through to the platform-wide registry."""
        return self._user_queries.setdefault(
            username, StoredQueryRegistry(parent=self.stored_queries))

    # -- querying (contextualised) --------------------------------------------------

    def connect(self, options: QueryOptions | None = None) -> PlatformSession:
        """The platform's session factory (``.as_user(name)``).

        With no *options* the shared default session is returned; with
        options a new, independent session is created.  Either way it
        owns one plan cache and caches one engine per user across
        calls.  Nothing the platform does later invalidates either: an
        engine reads the user's live context view and live stored-query
        registry.
        """
        if options is not None:
            return PlatformSession(self, options)
        with self._session_lock:
            if self._session is None or self._session.closed:
                self._session = PlatformSession(self)
            return self._session

    def session_for(self, username: str) -> Session:
        """Shorthand for ``connect().as_user(username)``."""
        return self.connect().as_user(username)

    def run_sesql(self, username: str, sesql: str,
                  include_original: bool = False) -> SESQLResult:
        """Run a SESQL query in the user's personal context.

        Delegates to the cached per-user session of the shared default
        platform session, so repeated calls reuse one engine and the
        caches; context feeding is unchanged.
        """
        return self.session_for(username).execute(
            sesql, include_original=include_original)

    def _feed_context(self, username: str, outcome: SESQLResult) -> None:
        concepts = []
        for enrichment in outcome.enriched.enrichments:
            concepts.append(getattr(enrichment, "prop", None))
            concepts.append(getattr(enrichment, "concept", None))
        self.context.record_concepts(
            username, [concept for concept in concepts if concept],
            event="query")

    # -- annotation (all three scenarios) -----------------------------------------------

    def annotate_concept(self, username: str, table: str, column: str,
                         value: str, prop, obj,
                         reference: Reference | None = None
                         ) -> StatementRecord:
        self.users.get(username)
        record = self.tagging.annotate_concept(
            username, table, column, value, prop, obj, reference)
        self.context.record_concepts(username, [value], event="annotate")
        return record

    def annotate_free(self, username: str, subject, prop, obj,
                      reference: Reference | None = None
                      ) -> StatementRecord:
        self.users.get(username)
        return self.tagging.annotate_free(
            username, subject, prop, obj, reference)

    def explore_annotations(self, username: str, **filters):
        self.users.get(username)
        return self.tagging.explore_annotations(username, **filters)

    def accept_statement(self, username: str,
                         statement_id: int) -> StatementRecord:
        self.users.get(username)
        return self.statements.accept(username, statement_id)

    def retract_statement(self, username: str, statement_id: int) -> None:
        """Withdraw one's own statement platform-wide.

        The statement leaves the author's context *and* the effective
        KB of every user who had accepted it.
        """
        self.users.get(username)
        self.statements.retract(username, statement_id)

    def reject_statement(self, username: str, statement_id: int) -> None:
        """Drop a previously accepted peer statement from one's context."""
        self.users.get(username)
        self.statements.reject(username, statement_id)

    def effective_kb(self, username: str):
        return self.statements.effective_kb(username)

    # -- exploration / recommendation services -----------------------------------------

    def record_exploration(self, username: str, resource: str,
                           concepts: list[str] | None = None) -> None:
        self.context.record_resource(username, resource)
        if concepts:
            self.context.record_concepts(username, concepts,
                                         event="explore")

    def recommend_peers(self, username: str, count: int | None = 5):
        self.users.get(username)
        return self.recommender.recommend_peers(username, count)

    def recommend_resources(self, username: str, count: int = 5):
        self.users.get(username)
        return self.recommender.recommend_resources(username, count)

    # -- documents & previews --------------------------------------------------------------

    def add_document(self, doc_id: str, title: str, text: str,
                     tags: list[str] | None = None) -> Document:
        document = Document(doc_id, title, text, list(tags or []))
        self.documents[doc_id] = document
        if self.durability_journal is not None:
            self.durability_journal.log(
                "document", {"doc_id": doc_id, "title": title,
                             "text": text, "tags": document.tags})
        return document

    def search_documents(self, username: str,
                         keyword: str) -> list[tuple[Document, float]]:
        """Keyword search with context-aware ranking."""
        profile = self.context.profile(username)
        matches = [document for document in self.documents.values()
                   if keyword.lower() in document.text.lower()
                   or keyword.lower() in document.title.lower()]
        return rank_documents(profile, matches)

    def preview_document(self, username: str, doc_id: str) -> dict:
        profile = self.context.profile(username)
        return build_preview(profile, self.documents[doc_id])
