"""The Semantic Query Module (SQM) of Fig. 6.

The SQM receives the enrichment syntax tree and constructs the SPARQL
queries that extract the relevant knowledge from the user's ontology.
Property arguments are resolved against the stored-query registry first
(Example 4.5's ``dangerQuery``); otherwise the module synthesises the
plain property-extraction pattern ``SELECT ?s ?o WHERE { ?s <prop> ?o }``.

An optional extraction *cache* (:class:`repro.api.ExtractionCache`)
memoizes extraction results: one entry per extraction, valid while the
predicates its SPARQL reads are unchanged in the knowledge base.  Those
are the IRIs of its property or property path, or the predicates of a
stored query's triple patterns; the entry keeps their ids and the KB's
:meth:`~repro.rdf.TripleStore.stamp` of them, which moves exactly when
one of their triples enters or leaves (or the KB is cleared or its
generation restored).  So an annotation on ``dangerLevel`` leaves the
``isA`` and ``inCountry`` extractions of the same user cached, and an
entry whose predicates moved is replaced, its SQL side with it.  A
stored query with a variable predicate or a zero-length path reads the
whole KB: its stamp moves with every write.  Each synthesized text is
parsed once per process.  Within one statement the engine additionally
dedupes identical logical extractions across tagged conditions and
stages (see :meth:`repro.core.SESQLEngine.extraction_for`);
:meth:`SemanticQueryModule.sparql_execution_count` counts the queries
that actually reached the KB.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

from ..rdf.store import TripleStore
from ..rdf.terms import IRI, Literal, Term
from ..sparql.ast import SelectQuery, group_predicates
from ..sparql.evaluator import Evaluator, SparqlResults
from ..sparql.parser import parse_sparql
from .errors import StoredQueryError
from .mapping import ResourceMapping
from .stored_queries import StoredQueryRegistry
from .tempdb import SqlExtraction


@dataclass
class Extraction:
    """Knowledge extracted from the KB for one enrichment clause."""

    sparql: str
    pairs: list[tuple[Term, Term]] = field(default_factory=list)
    values: list[Term] = field(default_factory=list)
    subjects: set[Term] = field(default_factory=set)
    #: The predicates it read (ids, or IRIs the KB had not interned;
    #: ``None``: the whole KB) and the KB's stamp of them when it was
    #: extracted (``None``: not memoized).
    reads: tuple[int | IRI, ...] | None = field(default=None,
                                                compare=False)
    stamp: int | None = field(default=None, compare=False)
    _sql: SqlExtraction | None = field(default=None, init=False,
                                       compare=False, repr=False)

    def sql(self, mapping: ResourceMapping) -> SqlExtraction:
        """Its SQL side, converted with *mapping* on first use."""
        side = self._sql
        if side is None:
            with _SQL_LOCK:
                if self._sql is None:
                    self._sql = SqlExtraction(self, mapping)
                side = self._sql
        return side


_SQL_LOCK = threading.Lock()

#: Each synthesized text's parsed query.  A text names no user or KB,
#: so every module shares them; cleared when full.
_PARSED: dict[str, SelectQuery] = {}
_PARSED_SIZE = 512


class SemanticQueryModule:
    """Builds and executes SPARQL extraction queries."""

    def __init__(self, mapping: ResourceMapping,
                 stored_queries: StoredQueryRegistry | None = None,
                 cache=None) -> None:
        self.mapping = mapping
        self.stored_queries = stored_queries or StoredQueryRegistry()
        #: Optional get/put memo for extraction results (see module doc).
        self.cache = cache
        #: SPARQL queries actually *executed* on a KB (cache hits and
        #: per-statement dedupe do not increment it) — the counter
        #: behind the "deduped extractions execute once" guarantee.
        #: Read it via :meth:`sparql_execution_count`.
        self._sparql_executions = 0
        #: Telemetry hook (duck-typed): when attached, SPARQL
        #: executions and extraction-cache hits/misses are also folded
        #: into the shared metrics registry.
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        if telemetry is None:
            return
        metrics = telemetry.metrics
        self._tm_sparql_total = metrics.counter(
            "repro_sparql_executions_total",
            "SPARQL extraction queries that actually reached a KB")
        self._tm_sparql_seconds = metrics.histogram(
            "repro_sparql_seconds",
            "Wall time of SPARQL extraction execution")
        cache_family = metrics.counter(
            "repro_extraction_cache_total",
            "Extraction-cache lookups by outcome",
            labels=("result",))
        self._tm_cache_hit = cache_family.labels("hit")
        self._tm_cache_miss = cache_family.labels("miss")

    def sparql_execution_count(self) -> int:
        """SPARQL queries this module has actually run against a KB."""
        return self._sparql_executions

    # -- memoization hook -----------------------------------------------------

    def _memoized(self, kind: str, kb: TripleStore, args: tuple,
                  compute) -> Extraction:
        cache = self.cache
        stamp_of = getattr(kb, "stamp", None)
        if cache is None or stamp_of is None:
            return compute()
        stored = self.stored_queries.get(args[0])
        # Stamps are per store, so the key names the store by its
        # process-unique identity: two users' context views must not
        # share entries.
        key = (kind, kb.store_id, args,
               stored.text if stored is not None else None)
        extraction = cache.get(key, stamp_of)
        tel = self.telemetry
        if extraction is None:
            if tel is not None:
                self._tm_cache_miss.inc()
            # Resolved on a miss (a hit reuses the entry's ids), and the
            # stamp read before evaluating: a write racing the
            # evaluation leaves a stale stamp behind, never a stale entry.
            reads = self._predicate_ids(kb, args[0], stored)
            stamp = stamp_of(reads)
            extraction = compute()
            extraction.reads, extraction.stamp = reads, stamp
            cache.put(key, extraction)
        elif tel is not None:
            self._tm_cache_hit.inc()
        return extraction

    def _predicate_ids(self, kb: TripleStore, prop: str,
                       stored) -> tuple[int | IRI, ...] | None:
        """The predicates an extraction of *prop* reads, each by its id
        in *kb* (by its IRI while *kb* has not interned it), or ``None``
        for the whole KB: a stored query that may read any predicate."""
        if stored is None:
            iris = [token for token in self._path_tokens(prop)
                    if isinstance(token, IRI)]
        else:
            iris = group_predicates(stored.query.where)
            if iris is None:
                return None
        lookup = kb.dictionary.lookup
        return tuple(iri if (found := lookup(iri)) is None else found
                     for iri in iris)

    # -- helpers ------------------------------------------------------------

    _PATH_DELIMITERS = re.compile(r"([\^/|])")

    def _path_tokens(self, prop: str) -> list[str | IRI]:
        """A property argument as its path operators and IRIs.

        Extension over the paper: the property argument may be a SPARQL
        property path over names, e.g. ``^isA`` (inverse: "the things
        classified as X") or ``inCountry/inContinent`` (composition).
        Plain names keep the paper's exact semantics.
        """
        return [token if token in ("^", "/", "|")
                else self.mapping.property_to_iri(token)
                for token in self._PATH_DELIMITERS.split(prop) if token]

    def _property_path_n3(self, prop: str) -> str:
        """Render a property argument as a SPARQL predicate or path."""
        return "".join(token if isinstance(token, str) else token.n3()
                       for token in self._path_tokens(prop))

    def _evaluate(self, kb: TripleStore, query, text: str) -> SparqlResults:
        self._sparql_executions += 1
        tel = self.telemetry
        if tel is None:
            return Evaluator(kb).select(query)
        started = time.perf_counter()
        with tel.span("sparql.execute", sparql=text):
            results = Evaluator(kb).select(query)
        self._tm_sparql_total.inc()
        self._tm_sparql_seconds.observe(time.perf_counter() - started)
        return results

    def _run(self, kb: TripleStore, text: str) -> SparqlResults:
        query = _PARSED.get(text)
        if query is None:
            if len(_PARSED) >= _PARSED_SIZE:
                _PARSED.clear()
            query = _PARSED[text] = parse_sparql(text)
        return self._evaluate(kb, query, text)

    def _run_stored(self, kb: TripleStore, name: str) -> SparqlResults:
        stored = self.stored_queries.get(name)
        return self._evaluate(kb, stored.query, stored.text)

    # -- extraction forms -----------------------------------------------------

    def pairs_for(self, kb: TripleStore, prop: str) -> Extraction:
        """(subject, object) pairs for schema extension/replacement and
        REPLACEVARIABLE."""
        return self._memoized("pairs", kb, (prop,),
                              lambda: self._pairs_for(kb, prop))

    def _pairs_for(self, kb: TripleStore, prop: str) -> Extraction:
        stored = self.stored_queries.get(prop)
        if stored is not None:
            results = self._run_stored(kb, prop)
            if len(results.variables) < 2:
                raise StoredQueryError(
                    f"stored query {prop!r} must bind two variables to be "
                    "used as a pair extraction")
            text = stored.text
        else:
            prop_n3 = self._property_path_n3(prop)
            text = f"SELECT ?s ?o WHERE {{ ?s {prop_n3} ?o }}"
            results = self._run(kb, text)
        pairs = [(row[0], row[1]) for row in results.tuples()
                 if row[0] is not None and row[1] is not None]
        return Extraction(sparql=text, pairs=pairs)

    def values_for(self, kb: TripleStore, prop: str,
                   constant: str) -> Extraction:
        """Replacement values for REPLACECONSTANT's constant."""
        return self._memoized("values", kb, (prop, constant),
                              lambda: self._values_for(kb, prop, constant))

    def _values_for(self, kb: TripleStore, prop: str,
                    constant: str) -> Extraction:
        stored = self.stored_queries.get(prop)
        if stored is not None:
            results = self._run_stored(kb, prop)
            text = stored.text
            if len(results.variables) > 1:
                constant_term = self.mapping.concept_to_term(constant)
                values = [row[1] for row in results.tuples()
                          if row[0] == constant_term and row[1] is not None]
                return Extraction(sparql=text, values=values)
        else:
            constant_term = self.mapping.concept_to_term(constant)
            prop_n3 = self._property_path_n3(prop)
            text = (f"SELECT ?o WHERE {{ {constant_term.n3()} "
                    f"{prop_n3} ?o }}")
            results = self._run(kb, text)
        values = [row[0] for row in results.tuples() if row[0] is not None]
        return Extraction(sparql=text, values=values)

    def subjects_for(self, kb: TripleStore, prop: str,
                     concept: str) -> Extraction:
        """Subjects related to *concept* via *prop* (boolean enrichments).

        The concept argument is matched both as an IRI in the default
        namespace and as a plain literal, since user KBs state e.g.
        ``smg:Mercury smg:isA smg:HazardousWaste`` (IRI objects) as well
        as ``smg:Mercury smg:dangerLevel "high"`` (literal objects).
        """
        return self._memoized("subjects", kb, (prop, concept),
                              lambda: self._subjects_for(kb, prop, concept))

    def _subjects_for(self, kb: TripleStore, prop: str,
                      concept: str) -> Extraction:
        concept_term = self.mapping.concept_to_term(concept)
        concept_literal = Literal(concept)
        stored = self.stored_queries.get(prop)
        if stored is not None:
            results = self._run_stored(kb, prop)
            text = stored.text
            if len(results.variables) > 1:
                subjects = {row[0] for row in results.tuples()
                            if row[1] in (concept_term, concept_literal)
                            and row[0] is not None}
                return Extraction(sparql=text, subjects=subjects)
        else:
            prop_n3 = self._property_path_n3(prop)
            text = (f"SELECT ?s WHERE {{ "
                    f"{{ ?s {prop_n3} {concept_term.n3()} }} UNION "
                    f"{{ ?s {prop_n3} {concept_literal.n3()} }} }}")
            results = self._run(kb, text)
        subjects = {row[0] for row in results.tuples()
                    if row[0] is not None}
        return Extraction(sparql=text, subjects=subjects)
