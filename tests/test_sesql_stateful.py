"""A stateful model of SESQL querying over a plain databank.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.relational.Database` queried by three users whose
sessions share one plan cache, as the users of a platform session share
it: two users of a :class:`~repro.crosse.CrossePlatform`, each in her
own context (own ∪ accepted statements), and one over a plain
:class:`~repro.rdf.TripleStore`.  Rows are inserted and deleted, indexes
created and dropped, statistics collected; the platform's users
annotate, accept, reject and retract statements, and triples are added
to and removed from the plain store.  A template drawn from
:data:`TEMPLATES` is then prepared by a drawn user and run with drawn
values — bound, or inlined into the text, where they are lifted into the
template of the statement's shape; executed, streamed, partly streamed
and closed, or explained — with the WHERE rewrite keeping the original
condition or not.  The templates cover REPLACECONSTANT in its ``IN`` and
``EXISTS`` forms (over a text and an integer column, where an extraction
mixing IRIs and numbers must keep each value's type), over a property
path and over a stored query with a variable predicate,
REPLACEVARIABLE, and a WHERE enrichment beside a SELECT one.  Every
write touches one predicate, so an extraction cached over another must
be served and one over it replaced.

The oracle is a bare :class:`~repro.core.SESQLEngine` with no extraction
cache, over a fresh database holding the model's rows and a fresh
``TripleStore`` holding the user's triples as the model keeps them, with
the values written into the text.

What must hold:

* every answer is the oracle's (rows compared as multisets); a partly
  streamed answer is part of it, and closing it leaves no read lock;
* every extraction the users' caches serve is the oracle's, after
  every step;
* no table under the reserved ``__sesql_`` prefix is ever in the
  databank's catalog: an extraction is bound to the run that reads it;
* at teardown, once the templates are collected, no kept tree is left.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.api import QueryOptions, Session
from repro.core import SESQLEngine
from repro.core.sqm import SemanticQueryModule
from repro.crosse import CrossePlatform, StatementError
from repro.rdf import SMG, Literal, TripleStore
from repro.relational import Database
from repro.relational.render import render_literal

NAMES = st.sampled_from(["Mercury", "Iron", "Lead", "Hazard", None])
KS = st.sampled_from([0, 1, 2, 3, None])
AMOUNTS = st.one_of(st.none(), st.sampled_from([0.5, 2.0, 7.5]))

#: What a KB may hold: REPLACECONSTANT's replacement values (IRIs and
#: numbers mixed), REPLACEVARIABLE's pairs, and the second step of the
#: ``covers/sameAs`` path, which the variable-predicate stored query
#: also reads from ``Hazard``.
TRIPLES = ([(SMG.Hazard, SMG.covers, value) for value in (
    SMG.Mercury, SMG.Iron, SMG.Lead, Literal(1), Literal(2))]
    + [(SMG[name], SMG.level, Literal(level))
       for name in ("Mercury", "Iron", "Lead")
       for level in ("high", "low")]
    + [(SMG[name], SMG.sameAs, SMG[other]) for name, other in (
        ("Mercury", "Lead"), ("Iron", "Mercury"), ("Hazard", "Lead"))])

#: The platform's users, and the stored query every user may name.
PLATFORM_USERS = ("ada", "bo")
ANY_LINK = "SELECT ?s ?o WHERE { ?s ?p ?o }"

#: The SQM calls the templates make, as (method, arguments).
EXTRACTIONS = (("values_for", ("covers", "Hazard")),
               ("values_for", ("covers/sameAs", "Hazard")),
               ("values_for", ("anyLink", "Hazard")),
               ("pairs_for", ("level",)))

#: (SESQL with ``?``, a strategy per ``?``).
TEMPLATES = (
    ("SELECT k, name FROM t WHERE ${name = Hazard:c1} AND amount > ? "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers)",
     (st.sampled_from([0, 1.0, 5.0]),)),
    ("SELECT name, amount FROM t WHERE ${k = Hazard:c1} "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers)", ()),
    ("SELECT k, name FROM t WHERE ${name = Hazard AND amount > ? :c1} "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers)",
     (st.sampled_from([0, 1.0, 5.0]),)),
    ("SELECT k, name FROM t WHERE ${name = ? :c1} AND k >= ? "
     "ENRICH REPLACEVARIABLE(c1, name, level)",
     (st.sampled_from(["high", "Iron", "Lead"]), st.integers(0, 1))),
    ("SELECT name, COUNT(*) AS n FROM t WHERE ${name = Hazard:c1} "
     "GROUP BY name "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers) "
     "SCHEMAEXTENSION(name, level)", ()),
    # Ranges read the table's sorted path, which INSERT merges into and
    # DELETE drops; an IN beside a range takes the narrower.
    ("SELECT k, name, amount FROM t WHERE ? < amount "
     "AND ${k = Hazard:c1} ENRICH REPLACECONSTANT(c1, Hazard, covers)",
     (st.sampled_from([0, 1.0, 5.0, 7.5]),)),
    ("SELECT k, name FROM t WHERE ${name = Hazard:c1} AND k <= ? "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers)", (st.integers(0, 3),)),
    # A property path reads both its predicates ...
    ("SELECT k, name FROM t WHERE ${name = Hazard:c1} AND k >= ? "
     "ENRICH REPLACECONSTANT(c1, Hazard, covers/sameAs)",
     (st.integers(0, 1),)),
    # ... and a stored query with a variable predicate every predicate.
    ("SELECT k, name FROM t WHERE ${name = Hazard:c1} "
     "ENRICH REPLACECONSTANT(c1, Hazard, anyLink)", ()),
)


def canonical(rows) -> list[tuple]:
    """*rows* as a sorted list, NULLs first: a multiset to compare."""
    return sorted((tuple(row) for row in rows), key=lambda row: [
        (value is not None, str(type(value)), value
         if value is not None else 0) for value in row])


def inlined(text: str, values: tuple) -> str:
    """*text* with each ``?`` replaced by its value's literal."""
    parts = text.split("?")
    return parts[0] + "".join(render_literal(value) + part
                              for value, part in zip(values, parts[1:]))


def sesql_tables(database: Database) -> list[str]:
    return [name for name in database.table_names()
            if name.lower().startswith("__sesql_")]


class SesqlModel(RuleBasedStateMachine):

    @initialize(data=st.data())
    def set_up(self, data):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k INTEGER, name TEXT, amount REAL)")
        self.rows: list[tuple] = []
        for _row in range(data.draw(st.integers(0, 8))):
            self._insert(data.draw(KS), data.draw(NAMES),
                         data.draw(AMOUNTS))
        self.kb = TripleStore()
        for triple in data.draw(st.lists(st.sampled_from(TRIPLES),
                                         unique=True)):
            self.kb.add(*triple)
        self.platform = CrossePlatform(self.db)
        self.platform.register_stored_query("anyLink", ANY_LINK)
        for username in PLATFORM_USERS:
            self.platform.register_user(username)
        #: statement id → [author, triple, acceptors], as the model
        #: keeps them.
        self.statements: dict[int, list] = {}
        self.indexes: set[str] = set()
        self.shared = self.platform.connect(QueryOptions())
        self.users = [self.shared.as_user(username)
                      for username in PLATFORM_USERS]
        self.users.append(Session(
            SESQLEngine(self.db, self.kb,
                        stored_queries=self.platform.stored_queries),
            plan_cache=self.shared.plan_cache))

    def _triples_of(self, user: int) -> set[tuple]:
        """The user's KB as the model keeps it."""
        if user == len(PLATFORM_USERS):
            return set(self.kb.triples())
        username = PLATFORM_USERS[user]
        return {triple for author, triple, acceptors
                in self.statements.values()
                if author == username or username in acceptors}

    def _insert(self, k, name, amount) -> None:
        values = ", ".join(map(render_literal, (k, name, amount)))
        self.db.execute(f"INSERT INTO t VALUES ({values})")
        self.rows.append((k, name, amount))

    def _expected(self, user: int, text: str, values: tuple,
                  include: bool) -> list:
        fresh = Database()
        fresh.execute("CREATE TABLE t (k INTEGER, name TEXT, amount REAL)")
        for row in self.rows:
            fresh.execute("INSERT INTO t VALUES ("
                          + ", ".join(map(render_literal, row)) + ")")
        kb = TripleStore()
        kb.add_all(self._triples_of(user))
        oracle = SESQLEngine(fresh, kb, include_original=include,
                             stored_queries=self.platform.stored_queries)
        return canonical(oracle.execute(inlined(text, values)).rows)

    # -- rules: the databank and the KB ------------------------------------

    @rule(k=KS, name=NAMES, amount=AMOUNTS)
    def insert(self, k, name, amount):
        self._insert(k, name, amount)

    @rule(k=st.integers(0, 3))
    def delete(self, k):
        self.db.execute(f"DELETE FROM t WHERE k = {k}")
        self.rows = [row for row in self.rows if row[0] != k]

    @rule(column=st.sampled_from(["k", "name"]),
          kind=st.sampled_from(["hash", "sorted"]))
    def create_index(self, column, kind):
        if column in self.indexes:
            return
        self.db.execute(f"CREATE INDEX ix_{column} ON t ({column}) "
                        f"USING {kind}")
        self.indexes.add(column)

    @rule(column=st.sampled_from(["k", "name"]))
    def drop_index(self, column):
        if column in self.indexes:
            self.db.execute(f"DROP INDEX ix_{column}")
            self.indexes.discard(column)

    @rule()
    def analyze(self):
        self.db.execute("ANALYZE")

    @rule(triple=st.sampled_from(TRIPLES))
    def add_triple(self, triple):
        self.kb.add(*triple)

    @rule(triple=st.sampled_from(TRIPLES))
    def remove_triple(self, triple):
        self.kb.remove(*triple)

    # -- rules: the platform's statements ----------------------------------

    def _pick(self, pick: int) -> int | None:
        live = sorted(self.statements)
        return live[pick % len(live)] if live else None

    @rule(user=st.integers(0, 1), triple=st.sampled_from(TRIPLES))
    def annotate(self, user, triple):
        username = PLATFORM_USERS[user]
        record = self.platform.annotate_free(username, *triple)
        self.statements[record.statement_id] = [username, triple, set()]

    @rule(user=st.integers(0, 1), pick=st.integers(0, 10 ** 6))
    def accept(self, user, pick):
        statement_id = self._pick(pick)
        if statement_id is None:
            return
        username = PLATFORM_USERS[user]
        author, _triple, acceptors = self.statements[statement_id]
        if author == username:
            with pytest.raises(StatementError):
                self.platform.accept_statement(username, statement_id)
            return
        self.platform.accept_statement(username, statement_id)
        acceptors.add(username)

    @rule(user=st.integers(0, 1), pick=st.integers(0, 10 ** 6))
    def reject(self, user, pick):
        statement_id = self._pick(pick)
        if statement_id is not None:
            username = PLATFORM_USERS[user]
            self.platform.reject_statement(username, statement_id)
            self.statements[statement_id][2].discard(username)

    @rule(pick=st.integers(0, 10 ** 6))
    def retract(self, pick):
        statement_id = self._pick(pick)
        if statement_id is not None:
            author = self.statements.pop(statement_id)[0]
            self.platform.retract_statement(author, statement_id)

    # -- rules: queries ----------------------------------------------------

    @rule(data=st.data(), user=st.integers(0, len(PLATFORM_USERS)),
          include=st.booleans(),
          drain=st.sampled_from(["execute", "stream", "partly",
                                 "explain"]),
          inline=st.booleans())
    def run(self, data, user, include, drain, inline):
        text, strategies = data.draw(st.sampled_from(TEMPLATES))
        values = tuple(data.draw(strategy) for strategy in strategies)
        # Inlined, the statement runs its shape's template: its values
        # are the literals lifted out of the text.
        prepared = self.users[user].prepare(
            inlined(text, values) if inline else text)
        params = () if inline else values
        if drain == "explain":
            # An explain reads the session's include_original (off).
            plan = prepared.explain(params, analyze=True)
            assert [stage.name for stage in plan.stages
                    if stage.name == "rewrite"] == ["rewrite"]
            if "SCHEMAEXTENSION" not in text:
                assert plan.db_plan.root.actual_rows \
                    == len(self._expected(user, text, values, False))
            return
        expected = self._expected(user, text, values, include)
        if drain == "execute":
            rows = prepared.execute(params, include_original=include).rows
            assert canonical(rows) == expected
        elif drain == "stream":
            cursor = prepared.stream(params, include_original=include,
                                     page_size=data.draw(
                                         st.integers(1, 3)))
            assert canonical(cursor) == expected
        else:
            cursor = prepared.stream(params, include_original=include,
                                     page_size=1)
            taken = cursor.fetchmany(data.draw(st.integers(0, 3)))
            cursor.close()
            rest = list(expected)
            for row in canonical(taken):
                assert row in rest
                rest.remove(row)
        assert self.db.rwlock.active_readers == 0

    # -- invariants and teardown -------------------------------------------

    @invariant()
    def extractions_are_fresh(self):
        """Every extraction a user's cache serves is what a module with
        no cache extracts from her triples: checked after each step, so
        a write that should have replaced an entry is caught at once."""
        if not hasattr(self, "db"):
            return
        for user, session in enumerate(self.users):
            engine = session.engine
            kb = TripleStore()
            kb.add_all(self._triples_of(user))
            bare = SemanticQueryModule(engine.mapping,
                                       self.platform.stored_queries)
            for method, args in EXTRACTIONS:
                got = getattr(engine.sqm, method)(engine.knowledge_base,
                                                  *args)
                expected = getattr(bare, method)(kb, *args)
                assert Counter(got.values) == Counter(expected.values)
                assert Counter(got.pairs) == Counter(expected.pairs)

    @invariant()
    def no_extraction_is_a_table(self):
        if hasattr(self, "db"):
            assert sesql_tables(self.db) == []

    def teardown(self):
        if not hasattr(self, "db"):
            return
        for user in self.users:
            user.close()
        self.shared.close()
        del self.users
        gc.collect()
        assert self.db._templates == {}
        assert self.db.rwlock.active_readers == 0


SesqlModel.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
test_sesql_querying_matches_a_bare_engine = SesqlModel.TestCase


def test_a_write_to_one_predicate_keeps_anothers_extraction():
    """An annotation on ``level`` leaves ada's ``covers`` extraction
    served from the cache (no SPARQL runs); one on ``covers`` does not."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, name TEXT, amount REAL)")
    db.execute("INSERT INTO t VALUES (1, 'Mercury', 1.0), (2, 'Lead', 2.0)")
    platform = CrossePlatform(db)
    platform.register_user("ada")
    platform.annotate_free("ada", SMG.Hazard, SMG.covers, SMG.Mercury)
    session = platform.session_for("ada")
    text = ("SELECT k FROM t WHERE ${name = Hazard:c1} "
            "ENRICH REPLACECONSTANT(c1, Hazard, covers)")
    sqm = session.engine.sqm
    assert session.execute(text).rows == [(1,)]
    runs = sqm.sparql_execution_count()
    platform.annotate_free("ada", SMG.Lead, SMG.level, Literal("high"))
    result = session.execute(text)
    assert result.rows == [(1,)] and result.cache_hits == 1
    assert sqm.sparql_execution_count() == runs
    platform.annotate_free("ada", SMG.Hazard, SMG.covers, SMG.Lead)
    assert sorted(session.execute(text).rows) == [(1,), (2,)]
    assert sqm.sparql_execution_count() == runs + 1
