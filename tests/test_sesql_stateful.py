"""A stateful model of SESQL querying over a plain databank.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.relational.Database` and one knowledge base, queried by
two users whose sessions share one plan cache, as the users of a
platform session share it.  Rows are inserted and deleted, indexes
created and dropped, statistics collected, and triples added to and
removed from the KB (each move of its generation is a new extraction);
a template drawn from :data:`TEMPLATES` is then prepared by a drawn user
and run with drawn values — executed, streamed, partly streamed and
closed, or explained — with the WHERE rewrite keeping the original
condition or not.  The templates cover REPLACECONSTANT in its ``IN`` and
``EXISTS`` forms (over a text and an integer column, where an extraction
mixing IRIs and numbers must keep each value's type), REPLACEVARIABLE,
and a WHERE enrichment beside a SELECT one.

The oracle is a bare :class:`~repro.core.SESQLEngine` with no extraction
cache, over a fresh database holding the model's rows, with the values
written into the text.

What must hold:

* every answer is the oracle's (rows compared as multisets); a partly
  streamed answer is part of it, and closing it leaves no read lock;
* no table under the reserved ``__sesql_`` prefix is ever in the
  databank's catalog: an extraction is bound to the run that reads it;
* at teardown, once the templates are collected, no kept tree is left.
"""

from __future__ import annotations

import gc

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.api import PlanCache, Session
from repro.core import SESQLEngine
from repro.rdf import SMG, Literal, TripleStore
from repro.relational import Database
from repro.relational.render import render_literal

NAMES = st.sampled_from(["Mercury", "Iron", "Lead", "Hazard", None])
KS = st.sampled_from([0, 1, 2, 3, None])
AMOUNTS = st.one_of(st.none(), st.sampled_from([0.5, 2.0, 7.5]))

#: What the KB may hold: REPLACECONSTANT's replacement values (IRIs and
#: numbers mixed) and REPLACEVARIABLE's pairs.
TRIPLES = ([(SMG.Hazard, SMG.covers, value) for value in (
    SMG.Mercury, SMG.Iron, SMG.Lead, Literal(1), Literal(2))]
    + [(SMG[name], SMG.level, Literal(level))
       for name in ("Mercury", "Iron", "Lead")
       for level in ("high", "low")])

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
        self.indexes: set[str] = set()
        self.plan_cache = PlanCache(16)
        self.users = [Session(SESQLEngine(self.db, self.kb),
                              plan_cache=self.plan_cache)
                      for _user in range(2)]

    def _insert(self, k, name, amount) -> None:
        values = ", ".join(map(render_literal, (k, name, amount)))
        self.db.execute(f"INSERT INTO t VALUES ({values})")
        self.rows.append((k, name, amount))

    def _expected(self, text: str, values: tuple, include: bool) -> list:
        fresh = Database()
        fresh.execute("CREATE TABLE t (k INTEGER, name TEXT, amount REAL)")
        for row in self.rows:
            fresh.execute("INSERT INTO t VALUES ("
                          + ", ".join(map(render_literal, row)) + ")")
        oracle = SESQLEngine(fresh, self.kb, include_original=include)
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

    # -- rules: queries ----------------------------------------------------

    @rule(data=st.data(), user=st.integers(0, 1), include=st.booleans(),
          drain=st.sampled_from(["execute", "stream", "partly",
                                 "explain"]))
    def run(self, data, user, include, drain):
        text, strategies = data.draw(st.sampled_from(TEMPLATES))
        values = tuple(data.draw(strategy) for strategy in strategies)
        prepared = self.users[user].prepare(text)
        if drain == "explain":
            # An explain reads the session's include_original (off).
            plan = prepared.explain(values, analyze=True)
            assert [stage.name for stage in plan.stages
                    if stage.name == "rewrite"] == ["rewrite"]
            if "SCHEMAEXTENSION" not in text:
                assert plan.db_plan.root.actual_rows \
                    == len(self._expected(text, values, False))
            return
        expected = self._expected(text, values, include)
        if drain == "execute":
            rows = prepared.execute(values, include_original=include).rows
            assert canonical(rows) == expected
        elif drain == "stream":
            cursor = prepared.stream(values, include_original=include,
                                     page_size=data.draw(
                                         st.integers(1, 3)))
            assert canonical(cursor) == expected
        else:
            cursor = prepared.stream(values, include_original=include,
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
    def no_extraction_is_a_table(self):
        if hasattr(self, "db"):
            assert sesql_tables(self.db) == []

    def teardown(self):
        if not hasattr(self, "db"):
            return
        for user in self.users:
            user.close()
        self.plan_cache.clear()
        del self.users
        gc.collect()
        assert self.db._templates == {}
        assert self.db.rwlock.active_readers == 0


SesqlModel.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None)
test_sesql_querying_matches_a_bare_engine = SesqlModel.TestCase
