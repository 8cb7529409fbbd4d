"""CroSSE platform: provenance, tagging scenarios, context, recommenders."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.crosse import (AnnotationError, CrossePlatform, Document,
                          KnowledgeBaseStore, Reference, StatementError,
                          UnknownUserError, extract_snippet,
                          highlight_concepts, rank_result)
from repro.crosse.context import ContextProfile, ContextTracker
from repro.crosse.recommend import PeerRecommender
from repro.rdf import SMG, Literal
from repro.relational import Database, ResultSet
from repro.smartground import SmartGroundConfig, generate_databank
from repro.workloads import peer_network, seeded_tracker


@pytest.fixture
def platform():
    databank = generate_databank(SmartGroundConfig(n_landfills=15, seed=9))
    p = CrossePlatform(databank)
    p.register_user("giulia", affiliation="UniTo",
                    interests=["Mercury", "pollution"])
    p.register_user("marco", affiliation="Comune di Torino",
                    interests=["urban", "Zinc"])
    p.register_user("eva", interests=["Mercury"])
    return p


# -- knowledge base store / Fig. 4 ------------------------------------------


def test_statement_provenance_tracked():
    store = KnowledgeBaseStore()
    record = store.insert("giulia", SMG.Mercury, SMG.dangerLevel, "high")
    assert record.author == "giulia"
    assert record.accepted_by == []
    store.accept("marco", record.statement_id)
    assert "marco" in record.accepted_by


def test_effective_kb_is_own_plus_accepted():
    store = KnowledgeBaseStore()
    own = store.insert("giulia", SMG.Mercury, SMG.isA, SMG.HazardousWaste)
    peer = store.insert("marco", SMG.Zinc, SMG.isA, SMG.HazardousWaste)
    assert len(store.effective_kb("giulia")) == 1
    store.accept("giulia", peer.statement_id)
    assert len(store.effective_kb("giulia")) == 2
    # Acceptance does not leak into the author's own context twice.
    assert len(store.effective_kb("marco")) == 1
    assert own.statement_id != peer.statement_id


def test_cannot_accept_own_or_private_statement():
    store = KnowledgeBaseStore()
    own = store.insert("giulia", SMG.a, SMG.p, "x")
    with pytest.raises(StatementError):
        store.accept("giulia", own.statement_id)
    private = store.insert("marco", SMG.b, SMG.p, "y", public=False)
    with pytest.raises(StatementError):
        store.accept("giulia", private.statement_id)


def test_retract_requires_author():
    store = KnowledgeBaseStore()
    record = store.insert("giulia", SMG.a, SMG.p, "x")
    with pytest.raises(StatementError):
        store.retract("marco", record.statement_id)
    store.retract("giulia", record.statement_id)
    assert len(store) == 0


def test_conflicting_statements_allowed():
    """Section III-A: no centralized consistency control."""
    store = KnowledgeBaseStore()
    store.insert("giulia", SMG.Mercury, SMG.dangerLevel, "high")
    store.insert("marco", SMG.Mercury, SMG.dangerLevel, "low")
    assert len(store) == 2


def test_fig4_rdf_export():
    store = KnowledgeBaseStore()
    record = store.insert(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high",
        reference=Reference(title="WHO report", link="http://who.int/x"))
    store.accept("marco", record.statement_id)
    graph = store.to_rdf_graph()
    from repro.rdf import RDF
    assert graph.count(None, RDF.type, SMG.Statement) == 1
    assert graph.count(None, SMG.userStatement, None) == 1
    assert graph.count(None, SMG.userBelief, None) == 1
    assert graph.count(None, SMG.stmReference, None) == 1
    assert graph.count(None, SMG.refTitle, None) == 1


# -- tagging scenarios ----------------------------------------------------------


def test_integrated_annotation_validates_subject(platform):
    with pytest.raises(AnnotationError):
        platform.annotate_concept(
            "giulia", "elem_contained", "elem_name", "Unobtainium",
            SMG.dangerLevel, "high")


def test_integrated_annotation_on_real_value(platform):
    value = platform.databank.query(
        "SELECT elem_name FROM elem_contained LIMIT 1").scalar()
    record = platform.annotate_concept(
        "giulia", "elem_contained", "elem_name", value,
        SMG.dangerLevel, "high")
    assert record.triple.subject == SMG[value]


@pytest.mark.parametrize("kind", [None, "hash", "sorted"])
def test_integrated_annotation_needs_the_exact_value(kind):
    # The value must hold for SQL ``=``, whatever the index: 2**53 + 1
    # is no float (a key compared as one would match 2**53), ``TRUE``
    # is not ``1`` and ``NULL`` equals nothing — but ``1.0`` is ``1``.
    databank = Database()
    databank.execute_script(f"""
        CREATE TABLE t (k INTEGER);
        INSERT INTO t VALUES ({2 ** 53});
        INSERT INTO t VALUES (1);
        INSERT INTO t VALUES (NULL);
    """)
    if kind is not None:
        databank.execute(f"CREATE INDEX tk ON t (k) USING {kind}")
    for literal in ("TRUE", "NULL"):
        assert databank.query(f"SELECT 1 FROM t WHERE k = {literal}"
                              ).rows == []
    tagging = CrossePlatform(databank).tagging
    for value in (2 ** 53 + 1, True, None):
        with pytest.raises(AnnotationError):
            tagging.annotate_concept("giulia", "t", "k", value,
                                     SMG.dangerLevel, "high")
    for value in (2 ** 53, 1.0):
        record = tagging.annotate_concept("giulia", "t", "k", value,
                                          SMG.dangerLevel, "high")
        assert record.triple.subject == Literal(value)


def test_independent_annotation_is_free(platform):
    record = platform.annotate_free(
        "giulia", SMG.AnythingAtAll, SMG.note, "personal hypothesis")
    assert record.public


def test_exploration_note_is_private_and_in_the_authors_context(platform):
    # Section III-A, annotation kind (ii): a note on the exploration.
    record = platform.tagging.annotate_note(
        "giulia", SMG.Mercury, "check the 2014 survey again")
    assert not record.public
    assert record.triple.predicate == SMG.note
    assert record.statement_id not in {
        r.statement_id for r in platform.explore_annotations("marco")}
    assert record.triple in set(platform.effective_kb("giulia").triples())


def test_crowdsourced_explore_and_import(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.isA, SMG.HazardousWaste)
    visible = platform.explore_annotations("marco")
    assert record.statement_id in {r.statement_id for r in visible}
    platform.accept_statement("marco", record.statement_id)
    assert len(platform.effective_kb("marco")) == 1


def test_queries_run_in_personal_context(platform):
    platform.annotate_free("giulia", SMG.Mercury, SMG.dangerLevel, "high")
    sesql = """SELECT DISTINCT elem_name FROM elem_contained
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"""
    giulia_result = platform.run_sesql("giulia", sesql)
    marco_result = platform.run_sesql("marco", sesql)
    giulia_levels = {row[1] for row in giulia_result.rows}
    marco_levels = {row[1] for row in marco_result.rows}
    assert "high" in giulia_levels
    assert marco_levels == {None}   # marco has no such knowledge


def test_unknown_user_rejected(platform):
    with pytest.raises(UnknownUserError):
        platform.run_sesql("nobody", "SELECT 1")


def test_per_user_stored_queries(platform):
    platform.register_stored_query(
        "myDanger", "SELECT ?e WHERE { ?e ?p ?o }", username="giulia")
    assert "myDanger" in platform._registry_for("giulia")
    assert "myDanger" not in platform._registry_for("marco")


def test_personal_stored_query_shadows_the_global_one(platform):
    """A user's registry is her own level over the live platform-wide
    one: her name wins for her only, and re-registering a name changes
    the very next answer (the extraction key carries the query text)."""
    def sparql(prop):
        return ("SELECT ?s ?o WHERE "
                f"{{ ?s <http://smartground.eu/ns#{prop}> ?o }}")

    def levels(user):
        rows = platform.run_sesql(user, """
            SELECT DISTINCT elem_name FROM elem_contained
            ENRICH SCHEMAEXTENSION(elem_name, myLevel)""").rows
        return {row[1] for row in rows} - {None}

    for user, danger, risk in (("giulia", "high", "R1"),
                               ("marco", "low", "R2")):
        platform.annotate_free(user, SMG.Mercury, SMG.dangerLevel, danger)
        platform.annotate_free(user, SMG.Mercury, SMG.riskClass, risk)
    platform.register_stored_query("myLevel", sparql("dangerLevel"))
    assert (levels("giulia"), levels("marco")) == ({"high"}, {"low"})
    platform.register_stored_query("myLevel", sparql("riskClass"),
                                   username="giulia")
    assert (levels("giulia"), levels("marco")) == ({"R1"}, {"low"})
    platform.register_stored_query("myLevel", sparql("riskClass"))
    assert levels("marco") == {"R2"}            # no stale extraction
    assert platform._registry_for("giulia").names() == ["myLevel"]
    assert platform._registry_for("marco").names() == []   # own level
    assert platform._registry_for("marco").get("myLevel") \
        is platform.stored_queries.get("myLevel")


# -- context, recommendation, preview ----------------------------------------------


def test_context_profile_weights_and_events():
    profile = ContextProfile("u")
    profile.record("Mercury", "query")
    profile.record("Mercury", "annotate")
    profile.record("Zinc", "explore")
    assert profile.weight("mercury") == 4.0   # case-insensitive
    assert profile.top_concepts(1)[0][0] == "mercury"
    profile.decay(0.5)
    assert profile.weight("Mercury") == 2.0


def test_peer_recommendation_orders_by_similarity(platform):
    # eva shares giulia's Mercury focus; marco does not.
    peers = platform.recommend_peers("giulia")
    usernames = [name for name, _score in peers]
    assert usernames[0] == "eva"


def test_resource_recommendation_from_peers(platform):
    platform.record_exploration("eva", "lf0003", ["Mercury"])
    platform.record_exploration("giulia", "lf0001", ["Mercury"])
    recommended = platform.recommend_resources("giulia")
    assert recommended and recommended[0][0] == "lf0003"


def _full_walk_resources(tracker, recommender, username, count=5):
    """Resource recommendation as first written: the user's own
    resources by a scan of the whole access map, then every resource
    walked, each one's users copied and summed against the ranking."""
    mine = {resource for resource in tracker.all_resources()
            if username in tracker.users_of(resource)}
    peer_similarity = dict(recommender.recommend_peers(username, count=50))
    scored = {}
    for resource in tracker.all_resources():
        if resource in mine:
            continue
        score = 0.0
        for peer, accesses in tracker.users_of(resource).items():
            score += peer_similarity.get(peer, 0.0) * accesses
        if score > 0.0:
            scored[resource] = score
    return sorted(scored.items(), key=lambda item: (-item[1], item[0]))[
        :count]


def test_resource_recommendation_is_the_full_walk():
    """Walking only the resources the ranked peers used ranks what the
    full walk ranks, to the last bit of every score — also over a
    tracker whose accesses a snapshot restored."""
    tracker = seeded_tracker(500)
    restored = ContextTracker()
    for profile in tracker.profiles():
        restored.profile(profile.username).restore(
            dict(profile.weights), list(profile.history))
    for resource in tracker.all_resources():
        restored.restore_accesses(resource, tracker.users_of(resource))
    for each in (tracker, restored):
        recommender = PeerRecommender(each)
        for index in range(0, 500, 3):
            username = f"user{index:04d}"
            assert each.resources_of(username) == sorted(
                resource for resource in each.all_resources()
                if username in each.users_of(resource))
            assert recommender.recommend_resources(username, count=20) \
                == _full_walk_resources(each, recommender, username, 20)


def test_peer_network_graph(platform):
    graph = peer_network(platform.context)
    assert "giulia" in graph
    assert "eva" in graph["giulia"] and "giulia" in graph["eva"]


def _brute_force_peers(tracker, username):
    """Peer ranking as first written: a cosine against every profiled
    user, both norms summed afresh each time."""
    def cosine(left, right):
        if not left.weights or not right.weights:
            return 0.0
        shared = set(left.weights) & set(right.weights)
        dot = sum(left.weights[c] * right.weights[c] for c in shared)
        norm_left = sum(w * w for w in left.weights.values()) ** 0.5
        norm_right = sum(w * w for w in right.weights.values()) ** 0.5
        if norm_left == 0.0 or norm_right == 0.0:
            return 0.0
        return dot / (norm_left * norm_right)

    me = tracker.profile(username)
    scored = [(profile.username, cosine(me, profile))
              for profile in tracker.profiles()
              if profile.username != username]
    scored = [item for item in scored if item[1] > 0.0]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


CONCEPTS = st.sampled_from(["Mercury", "mercury", "Lead", "Zinc", "urban",
                            "Arsenic", "pollution"])


class PeerRankingModel(RuleBasedStateMachine):
    """Profiles move by every path that moves them — the platform's
    record / annotate, ``ContextProfile.record`` and ``decay`` called
    directly, new users — beside statement writes that move none; after
    each step every user's ranking (indexed, memoised) must be the brute
    force's: same users, same order, the same floats to the last bit."""

    @initialize()
    def setup(self):
        self.platform = CrossePlatform(generate_databank(
            SmartGroundConfig(n_landfills=6, seed=3)))
        self.elements = [row[0] for row in self.platform.databank.query(
            "SELECT DISTINCT elem_name FROM elem_contained "
            "ORDER BY elem_name LIMIT 4").rows]
        self.users = []
        self.statements = []
        for _ in range(3):
            self.new_user(interests=["Mercury"])

    def _user(self, data):
        return data.draw(st.sampled_from(self.users))

    @rule(interests=st.lists(CONCEPTS, max_size=3))
    def new_user(self, interests):
        username = f"u{len(self.users)}"
        self.platform.register_user(username, interests=interests)
        self.users.append(username)

    @rule(data=st.data(), concepts=st.lists(CONCEPTS, max_size=3),
          event=st.sampled_from(["query", "explore", "annotate"]))
    def record(self, data, concepts, event):
        self.platform.context.record_concepts(self._user(data), concepts,
                                              event)

    @rule(data=st.data(), concept=CONCEPTS)
    def record_directly(self, data, concept):
        self.platform.context.profile(self._user(data)).record(concept)

    @rule(data=st.data(), factor=st.sampled_from([0.5, 0.25, 1e-7, 2.0]))
    def decay(self, data, factor):
        self.platform.context.profile(self._user(data)).decay(factor)

    @rule(data=st.data())
    def annotate(self, data):
        record = self.platform.annotate_concept(
            self._user(data), "elem_contained", "elem_name",
            data.draw(st.sampled_from(self.elements)), SMG.dangerLevel,
            "high")
        self.statements.append(record)

    @precondition(lambda self: self.statements)
    @rule(data=st.data())
    def accept(self, data):
        record = data.draw(st.sampled_from(self.statements))
        username = self._user(data)
        if username != record.author:
            self.platform.accept_statement(username, record.statement_id)

    @precondition(lambda self: self.statements)
    @rule(data=st.data())
    def retract(self, data):
        record = data.draw(st.sampled_from(self.statements))
        self.statements.remove(record)
        self.platform.retract_statement(record.author, record.statement_id)

    @invariant()
    def rankings_are_the_brute_force(self):
        for username in getattr(self, "users", ()):
            assert self.platform.recommend_peers(username, count=None) \
                == _brute_force_peers(self.platform.context, username)


PeerRankingModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
test_peer_ranking_is_the_brute_force = PeerRankingModel.TestCase


def test_peer_ranking_scores_only_users_sharing_a_concept(platform,
                                                         monkeypatch):
    """marco shares no concept with giulia: his profile is never scored
    for her, and a repeat ranking is served from the memo."""
    scored = []
    cosine = ContextProfile.cosine_similarity

    def counted(self, other):
        scored.append(other.username)
        return cosine(self, other)
    monkeypatch.setattr(ContextProfile, "cosine_similarity", counted)
    assert [name for name, _ in platform.recommend_peers("giulia")] \
        == ["eva"]
    assert scored == ["eva"]
    platform.recommend_peers("giulia")
    assert scored == ["eva"]


def test_every_module_imports_without_networkx():
    """The library needs nothing beyond the standard library: with
    ``networkx`` unimportable, every module under ``repro`` imports."""
    code = (
        "import sys, importlib, pkgutil\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(module.name)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_rank_result_prefers_context_concepts():
    profile = ContextProfile("u")
    profile.record("Mercury", "declare")
    result = ResultSet(["elem"], [("Iron",), ("Mercury",), ("Zinc",)])
    ranked = rank_result(profile, result)
    assert ranked.rows[0] == ("Mercury",)


def test_snippet_centres_on_context():
    profile = ContextProfile("u")
    profile.record("Asbestos", "declare")
    document = Document(
        "d", "t", "A long irrelevant preamble about procedures. " * 6
        + "Findings: Asbestos fibres detected in sector B. "
        + "Appendix follows. " * 6)
    snippet = extract_snippet(profile, document, window_words=10)
    assert "Asbestos" in snippet
    assert snippet.startswith("...")


def test_highlighting_wraps_strong_concepts():
    profile = ContextProfile("u")
    profile.record("Mercury", "declare")
    text = highlight_concepts(profile, "mercury levels rising")
    assert text == "**mercury** levels rising"


def test_document_search_is_context_ranked(platform):
    platform.add_document("d1", "Mercury in mining waste",
                          "Mercury Mercury pollution study", ["Mercury"])
    platform.add_document("d2", "General waste report",
                          "Administrative mercury mention once")
    ranked = platform.search_documents("giulia", "mercury")
    assert ranked[0][0].doc_id == "d1"


# -- retract / reject invalidation (one stable view per user) ----------------


def test_effective_kb_is_one_stable_view_whose_stamp_moves(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high")
    view = platform.effective_kb("giulia")
    marco = platform.effective_kb("marco")
    stamp, marco_stamp = view.stamp(), marco.stamp()
    assert len(view) == 1
    platform.annotate_free("giulia", SMG.Lead, SMG.dangerLevel, "high")
    # Identity is stable across writes; the stamp and len follow.
    assert platform.effective_kb("giulia") is view
    assert view.stamp() > stamp and len(view) == 2
    # Another user's write moves nothing of marco's.
    assert marco.stamp() == marco_stamp and len(marco) == 0
    # Every view reads the platform-wide store through its dictionary.
    assert view.dictionary is platform.statements.dictionary
    stamp = view.stamp()
    platform.statements.reject("giulia", record.statement_id)  # no-op
    assert view.stamp() == stamp and len(view) == 2


def test_retracted_statement_stops_influencing_queries(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high")
    sesql = """SELECT DISTINCT elem_name FROM elem_contained
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"""
    before = platform.run_sesql("giulia", sesql)
    assert "high" in {row[1] for row in before.rows}
    platform.retract_statement("giulia", record.statement_id)
    after = platform.run_sesql("giulia", sesql)
    assert {row[1] for row in after.rows} == {None}
    assert len(platform.effective_kb("giulia")) == 0


def test_retract_reaches_acceptors_contexts(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.isA, SMG.HazardousWaste)
    platform.accept_statement("marco", record.statement_id)
    assert len(platform.effective_kb("marco")) == 1
    platform.retract_statement("giulia", record.statement_id)
    assert len(platform.effective_kb("marco")) == 0


def test_rejected_statement_stops_influencing_queries(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high")
    platform.accept_statement("marco", record.statement_id)
    sesql = """SELECT DISTINCT elem_name FROM elem_contained
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"""
    accepted = platform.run_sesql("marco", sesql)
    assert "high" in {row[1] for row in accepted.rows}
    platform.reject_statement("marco", record.statement_id)
    rejected = platform.run_sesql("marco", sesql)
    assert {row[1] for row in rejected.rows} == {None}
    # The author's own context is untouched by a peer's rejection.
    assert "high" in {row[1]
                      for row in platform.run_sesql("giulia", sesql).rows}


def test_platform_retract_requires_author(platform):
    record = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, "high")
    with pytest.raises(StatementError):
        platform.retract_statement("marco", record.statement_id)
    with pytest.raises(UnknownUserError):
        platform.retract_statement("nobody", record.statement_id)
