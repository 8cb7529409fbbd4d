"""A user's context view ≡ the materialised copy it replaced.

``KnowledgeBaseStore`` keeps every statement's triple once in one shared
store and gives each user a :class:`~repro.rdf.TripleView` of the
id-triples visible to her.  The builder it replaced — a fresh
``TripleStore`` per user, ``add_all`` of own + accepted statements —
lives on here as the oracle: random histories of insert / accept /
reject / retract / snapshot-restore must leave every user's view
indistinguishable from her copy, through the pattern protocol, both
SPARQL evaluators, the SQM's extraction cache and the SESQL engine.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExtractionCache
from repro.core import SESQLEngine, StoredQueryRegistry
from repro.core.mapping import ResourceMapping
from repro.core.sqm import SemanticQueryModule
from repro.crosse import CrossePlatform, StatementError
from repro.crosse.kb import KnowledgeBaseStore
from repro.durability import DurabilityOptions
from repro.durability.snapshot import restore_platform, serialize_platform
from repro.rdf import SMG, Literal, Triple, TripleStore
from repro.relational import Database
from repro.smartground import (DANGER_QUERY_SPARQL, WORKLOAD,
                               SmartGroundConfig, city_planner_kb,
                               generate_databank, researcher_kb)
from repro.sparql import NaiveEvaluator, parse_sparql
from repro.sparql.evaluator import Evaluator

USERS = ["ada", "bo", "cy", "di", "ed"]

#: A small vocabulary, so authors repeat each other's triples and the
#: extraction shapes below have something to find (``inCountry`` then
#: ``inContinent`` for the sequence path, ``isA`` for the inverse).
POOL = [Triple(SMG[s], SMG[p], o) for s, p, o in [
    ("Mercury", "isA", SMG.HazardousWaste),
    ("Lead", "isA", SMG.HazardousWaste),
    ("Iron", "isA", SMG.Material),
    ("Mercury", "dangerLevel", Literal("high")),
    ("Lead", "dangerLevel", Literal("high")),
    ("Lead", "dangerLevel", Literal("low")),
    ("Torino", "inCountry", SMG.Italy),
    ("Lyon", "inCountry", SMG.France),
    ("Italy", "inContinent", SMG.Europe),
    ("Mercury", "oreAssemblage", SMG.Cinnabar),
]]


def materialise(kb: KnowledgeBaseStore, username: str) -> TripleStore:
    """The old ``effective_kb``: own + accepted, bulk-loaded into a
    store of the user's own (``statements_of`` / ``accepted_by`` walked
    the registry the same way)."""
    records = list(kb._statements.values())
    store = TripleStore(dictionary=kb.dictionary)
    store.add_all(record.triple for record in itertools.chain(
        (r for r in records if r.author == username),
        (r for r in records if username in r.accepted_by)))
    return store


# -- histories ----------------------------------------------------------------

def steps(n_users: int):
    user = st.integers(0, n_users - 1)
    pick = st.integers(0, 10 ** 6)
    return st.lists(st.one_of(
        st.tuples(st.just("insert"), user, st.integers(0, len(POOL) - 1),
                  st.booleans()),
        st.tuples(st.just("accept"), user, pick),
        st.tuples(st.just("accept"), user, pick),
        st.tuples(st.just("reject"), user, pick),
        st.tuples(st.just("retract"), pick),
        st.tuples(st.just("restore"))), max_size=18)


histories = st.integers(3, 5).flatmap(
    lambda n_users: st.tuples(st.just(USERS[:n_users]), steps(n_users)))


def fresh_platform(users, databank=None) -> CrossePlatform:
    platform = CrossePlatform(Database() if databank is None else databank)
    platform.register_stored_query("dangerQuery", DANGER_QUERY_SPARQL)
    for username in users:
        platform.register_user(username)
    return platform


def apply(platform: CrossePlatform, users, step, pool=POOL) -> CrossePlatform:
    """Run one step; a refused one (accepting one's own or a private
    statement) must leave everything as it was.  Returns the platform
    the history continues on (a new one after a restore)."""
    kind = step[0]
    live = sorted(platform.statements._statements)
    if kind == "insert":
        _kind, user, index, public = step
        platform.statements.insert(users[user], *pool[index % len(pool)],
                                   public=public)
    elif kind == "restore":
        restored = CrossePlatform(platform.databank)
        restore_platform(restored, serialize_platform(platform, seq=0))
        return restored
    elif live:
        statement_id = live[step[-1] % len(live)]
        record = platform.statements.get(statement_id)
        try:
            if kind == "accept":
                platform.accept_statement(users[step[1]], statement_id)
            elif kind == "reject":
                platform.reject_statement(users[step[1]], statement_id)
            else:
                platform.retract_statement(record.author, statement_id)
        except StatementError:
            assert kind == "accept" and (
                record.author == users[step[1]] or not record.public)
    return platform


@pytest.fixture
def kb() -> KnowledgeBaseStore:
    return KnowledgeBaseStore()


# -- what must agree ----------------------------------------------------------

QUERIES = [parse_sparql(text) for text in (
    # The SQM's three synthesised shapes ...
    f"SELECT ?s ?o WHERE {{ ?s {SMG.dangerLevel.n3()} ?o }}",
    f"SELECT ?o WHERE {{ {SMG.Lead.n3()} {SMG.dangerLevel.n3()} ?o }}",
    f"SELECT ?s WHERE {{ {{ ?s {SMG.isA.n3()} {SMG.HazardousWaste.n3()} }} "
    f"UNION {{ ?s {SMG.isA.n3()} \"HazardousWaste\" }} }}",
    # ... over property-path arguments (``^isA``, ``a/b``) ...
    f"SELECT ?s ?o WHERE {{ ?s ^{SMG.isA.n3()} ?o }}",
    f"SELECT ?s ?o WHERE {{ ?s {SMG.inCountry.n3()}/"
    f"{SMG.inContinent.n3()} ?o }}",
    # ... a stored query, a variable predicate and a two-pattern join.
    DANGER_QUERY_SPARQL,
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    f"SELECT ?x ?l WHERE {{ ?x {SMG.isA.n3()} ?c . "
    f"?x {SMG.dangerLevel.n3()} ?l }}",
)]


def multiset(results) -> Counter:
    return Counter(results.tuples())


def assert_same_graph(view, copy, probe: Triple) -> None:
    found = set(view.triples())
    assert found == set(copy.triples()) == set(view)
    assert len(view) == len(copy) == len(found)
    for triple in POOL:
        assert (triple in view) == (triple in copy)
    for mask in itertools.product((True, False), repeat=3):
        pattern = [term if keep else None
                   for term, keep in zip(probe, mask)]
        assert set(view.triples(*pattern)) == set(copy.triples(*pattern))
        assert view.count(*pattern) == copy.count(*pattern)
    p = view.dictionary.intern(probe.predicate)
    assert set(view.id_triples(None, p)) == set(copy.id_triples(None, p))


def assert_same_answers(view, copy) -> None:
    for query in QUERIES:
        expected = multiset(Evaluator(copy).select(query))
        assert multiset(Evaluator(view).select(query)) == expected
        assert multiset(NaiveEvaluator(view).select(query)) == expected


@given(history=histories)
@settings(max_examples=60, deadline=None)
def test_view_equals_materialised_copy(history):
    users, script = history
    platform = fresh_platform(users)
    cache = ExtractionCache(256)
    sqm = SemanticQueryModule(ResourceMapping(), cache=cache)
    seen: dict[str, tuple] = {}
    for step in script:
        before = platform
        platform = apply(platform, users, step)
        kb = platform.statements
        probe = POOL[step[2] % len(POOL)] if step[0] == "insert" else POOL[3]
        for username in users:
            view, copy = kb.effective_kb(username), materialise(kb, username)
            assert view is platform.effective_kb(username)
            assert_same_graph(view, copy, probe)
            assert_same_answers(view, copy)
            # Her stamp moves iff her visible set did (a restore hands
            # out new views: nothing to compare with) ...
            visible = frozenset(view.id_triples())
            danger = frozenset(view.triples(None, SMG.dangerLevel, None))
            hits = cache.hits
            extraction = sqm.pairs_for(view, "dangerLevel")
            if username in seen and platform is before:
                same_set = seen[username][0] == visible
                assert same_set == (seen[username][1] == view.stamp())
                # ... and her dangerLevel extraction is recomputed iff
                # her dangerLevel triples moved: no write of anyone
                # else's, nor of hers to another predicate, evicts it.
                assert cache.hits == hits + (seen[username][2] == danger)
            seen[username] = (visible, view.stamp(), danger)
            assert set(extraction.pairs) == {
                (triple.subject, triple.object)
                for triple in copy.triples(None, SMG.dangerLevel, None)}
        # The shared store holds exactly the triples some live
        # statement asserts, each supported by those statements' ids.
        asserted: dict[Triple, set[int]] = {}
        for record in kb._statements.values():
            asserted.setdefault(record.triple, set()).add(
                record.statement_id)
        assert set(kb.store.triples()) == set(asserted)
        terms = kb.dictionary.terms
        assert {Triple(*(terms[i] for i in key)): ids
                for key, ids in kb._support.items()} == asserted


def test_scanning_the_visible_set_and_probing_the_shared_index_agree(kb):
    """Both enumeration sides, every pattern shape: ``ada`` sees one
    or two triples of a larger shared store (her set is scanned), ``bo``
    sees all of it (the shared index is probed)."""
    ids = [kb.insert("bo", *triple).statement_id for triple in POOL]
    kb.insert("ada", *POOL[2])                   # Iron isA Material
    for accepted in ([], [5], [0, 8]):
        for index in accepted:
            kb.accept("ada", ids[index])
        for username in ("ada", "bo"):
            view, copy = kb.effective_kb(username), materialise(kb, username)
            for probe in POOL:
                assert_same_graph(view, copy, probe)
            assert_same_answers(view, copy)


# -- two statements, one triple -------------------------------------------------

TRIPLE = POOL[0]


def test_own_and_accepted_triple_outlives_either_support(kb):
    own = kb.insert("ada", *TRIPLE)
    peer = kb.insert("bo", *TRIPLE)
    kb.accept("ada", peer.statement_id)
    view = kb.effective_kb("ada")
    stamp = view.stamp()
    for leave, stay in ((lambda: kb.reject("ada", peer.statement_id),
                         lambda: kb.retract("ada", own.statement_id)),
                        (lambda: kb.retract("bo", peer.statement_id),
                         lambda: kb.retract("ada", own.statement_id)),
                        (lambda: kb.retract("ada", own.statement_id),
                         lambda: kb.reject("ada", peer.statement_id))):
        leave()
        assert TRIPLE in view and view.stamp() == stamp
        assert TRIPLE in kb.store
        stay()
        assert TRIPLE not in view and view.stamp() > stamp
        # Back to the start for the next order.
        own = kb.insert("ada", *TRIPLE)
        if peer.statement_id not in kb._statements:
            peer = kb.insert("bo", *TRIPLE)
        kb.accept("ada", peer.statement_id)
        stamp = view.stamp()


def view_stamps(view) -> list[int]:
    """The stamps of ``isA`` and ``dangerLevel`` in *view*."""
    return [view.stamp((view.dictionary.lookup(predicate),))
            for predicate in (SMG.isA, SMG.dangerLevel)]


def test_a_view_moves_only_the_stamp_of_what_came_or_went(kb):
    own = kb.insert("ada", *TRIPLE)              # Mercury isA ...
    danger = kb.insert("bo", *POOL[3])           # Mercury dangerLevel high
    view = kb.effective_kb("ada")
    is_a, level = view_stamps(view)
    # A counted show or hide that leaves the triple visible moves
    # nothing, and neither does any write outside her view.
    peer = kb.insert("bo", *TRIPLE)
    kb.accept("ada", peer.statement_id)
    kb.insert("cy", *POOL[4])
    kb.reject("ada", peer.statement_id)
    assert view_stamps(view) == [is_a, level]
    # Her accept of a dangerLevel triple moves that stamp alone ...
    kb.accept("ada", danger.statement_id)
    moved = view_stamps(view)
    assert moved[0] == is_a and moved[1] > level
    # ... and her retract of an isA triple that one alone.
    kb.retract("ada", own.statement_id)
    assert view_stamps(view)[1] == moved[1]
    assert view_stamps(view)[0] > is_a
    assert view.stamp() == max(view_stamps(view))


def test_triple_accepted_from_two_peers_leaves_with_the_last(kb):
    first = kb.insert("bo", *TRIPLE)
    second = kb.insert("cy", *TRIPLE)
    kb.accept("ada", first.statement_id)
    kb.accept("ada", second.statement_id)
    view = kb.effective_kb("ada")
    assert len(view) == 1 and len(kb.store) == 1
    kb.reject("ada", first.statement_id)
    assert TRIPLE in view
    kb.retract("cy", second.statement_id)
    assert TRIPLE not in view
    # bo still asserts it: the platform keeps the triple until he does not.
    assert TRIPLE in kb.store and TRIPLE in kb.effective_kb("bo")
    kb.retract("bo", first.statement_id)
    assert TRIPLE not in kb.store and len(kb.store) == 0
    assert kb._support == {}


def test_accept_twice_and_reject_unaccepted_are_no_ops(kb):
    record = kb.insert("bo", *TRIPLE)
    view = kb.effective_kb("ada")
    kb.reject("ada", record.statement_id)        # never accepted
    assert view.stamp() == 0 and len(view) == 0
    kb.accept("ada", record.statement_id)
    stamp = view.stamp()
    kb.accept("ada", record.statement_id)        # idempotent: no recount
    assert view.stamp() == stamp and len(view) == 1
    kb.reject("ada", record.statement_id)
    assert TRIPLE not in view                    # one reject undoes both
    stamp = view.stamp()
    kb.reject("ada", record.statement_id)
    assert view.stamp() == stamp


def test_restore_statement_is_idempotent_on_id(kb):
    view = kb.effective_kb("ada")
    stamps = []
    for _overlap in range(2):                    # snapshot, then the WAL tail
        kb.restore_statement(7, TRIPLE, "bo", True, ["ada"])
        stamps.append(view.stamp())
    assert len(view) == 1 and stamps[0] == stamps[1] > 0
    assert kb._support == {kb.get(7).key: {7}}
    assert kb.insert("cy", *POOL[1]).statement_id == 8
    kb.reject("ada", 7)
    assert len(view) == 0 and TRIPLE in kb.effective_kb("bo")


# -- the engine over a view -------------------------------------------------------

@pytest.fixture(scope="module")
def databank() -> Database:
    return generate_databank(SmartGroundConfig(n_landfills=25, seed=42))


PERSONAS = sorted(set(researcher_kb().triples())
                  | set(city_planner_kb().triples()), key=Triple.n3)


@given(script=st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 2),
              st.integers(0, len(PERSONAS) - 1), st.just(True)),
    st.tuples(st.just("accept"), st.integers(0, 2),
              st.integers(0, 10 ** 6)),
    st.tuples(st.just("reject"), st.integers(0, 2),
              st.integers(0, 10 ** 6)),
    st.tuples(st.just("retract"), st.integers(0, 10 ** 6))),
    min_size=20, max_size=120))
@settings(max_examples=5, deadline=None)
def test_sesql_workload_equal_over_view_and_copy(databank, script):
    users = USERS[:3]
    platform = fresh_platform(users, databank)
    for step in script:
        apply(platform, users, step, PERSONAS)
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", DANGER_QUERY_SPARQL)
    for username in users:
        session = platform.session_for(username)
        reference = SESQLEngine(
            databank, materialise(platform.statements, username),
            stored_queries=registry)
        for query in WORKLOAD:
            got, expected = (session.execute(query.sesql),
                             reference.execute(query.sesql))
            assert got.columns == expected.columns, query.name
            assert sorted(got.rows, key=repr) \
                == sorted(expected.rows, key=repr), query.name


def test_contexts_survive_a_durable_restart(tmp_path):
    """Snapshot + WAL tail: the recovered platform serves the contexts
    the crashed one did (the records are statements, as they were)."""
    options = DurabilityOptions(directory=str(tmp_path), fsync="never")
    platform = CrossePlatform(Database(), durability=options)
    for username in USERS[:3]:
        platform.register_user(username)
    first = platform.annotate_free("ada", *POOL[0])
    second = platform.annotate_free("bo", *POOL[0])
    platform.accept_statement("cy", first.statement_id)
    platform.durability.snapshot()
    platform.accept_statement("cy", second.statement_id)     # the WAL tail
    platform.annotate_free("cy", *POOL[3])
    platform.retract_statement("ada", first.statement_id)
    expected = {username: set(platform.effective_kb(username).triples())
                for username in USERS[:3]}
    platform.durability.close()

    recovered = CrossePlatform(Database(), durability=options)
    try:
        kb = recovered.statements
        for username in USERS[:3]:
            view = recovered.effective_kb(username)
            assert set(view.triples()) == expected[username]
            assert set(materialise(kb, username).triples()) \
                == expected[username]
        assert POOL[0] in recovered.effective_kb("cy")       # via bo's
        recovered.retract_statement("bo", second.statement_id)
        assert POOL[0] not in recovered.effective_kb("cy")
        assert POOL[0] not in kb.store
    finally:
        recovered.durability.close()
