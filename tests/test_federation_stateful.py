"""A stateful model of mediated querying, checked against stdlib sqlite3.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives two or three
sources behind one mediator: rows are inserted — most often, a few at a
time, and some right before a refresh — updated, deleted and truncated
at a source, a source table is dropped and created again (its ``n``
column REAL or INTEGER), the views ``v`` and ``w`` are redefined over
any of the sources as ``union_all`` or ``union``, held views are
refreshed (a refreshed ``union_all`` view grows by what its sources
appended, when that is all they did, at its next full ship), and a
template drawn from :data:`TEMPLATES` is prepared once and run with
drawn values — executed, partly streamed and closed, or explained — on a
:class:`~repro.federation.MediatedDatabank` and, its values written into
the text, on a :class:`~repro.federation.MediatorSession`.  Each view is
defined under its name and with its fragments' names randomly re-cased,
so a redefinition may spell the view otherwise; a re-cased run executes
a template with its view and column names randomly re-cased, parsed
afresh, on both consumers.

The model is stdlib sqlite3 holding the same source rows, each view
written as the ``UNION ALL`` / ``UNION`` of its fragments.  A session
holds a view it shipped in full (no filter pushed into it) until it is
refreshed, so the model snapshots the view's rows when the report shows
such a ship, and answers from the snapshot until the refresh.

What must hold:

* every answer, re-cased or not, is the model's (rows compared as
  multisets); a partly
  streamed answer is part of it;
* a prepared statement's local tree is built on its first run and again
  only when the type signature of the views it reads differs from the
  run before; every other run re-drives it;
* no stream leaves a read lock behind once closed;
* at teardown, once the prepared statements are collected, no ship
  template and no kept tree is left, and no view is a catalog table.
"""

from __future__ import annotations

import gc
import random
import sqlite3

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.federation import FederationOptions, Mediator
from repro.relational import Database
from repro.relational.operators import ViewScan
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from test_sql_stateful import recased

VIEWS = ("v", "w")
COLUMNS = ("k", "n", "s", "origin")
KS = st.one_of(st.none(), st.integers(0, 3))
TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b"]))

#: (SQL with ``?``, a strategy per ``?``).
TEMPLATES = (
    ("SELECT k, n, s, origin FROM v WHERE k = ?", (st.integers(0, 3),)),
    ("SELECT k, s, origin FROM v WHERE n > ? AND origin <> ?",
     (st.sampled_from([0, 0.5, 1.5]), st.sampled_from(["s0", "s1"]))),
    ("SELECT origin, COUNT(*), SUM(k) FROM v WHERE s = ? GROUP BY origin",
     (st.sampled_from(["a", "b"]),)),
    ("SELECT v.k, w.s FROM v JOIN w ON v.k = w.k WHERE v.origin = ?",
     (st.sampled_from(["s0", "s1", "s2"]),)),
    ("SELECT COUNT(*) FROM v WHERE k IN (SELECT k FROM w WHERE n > ?)",
     (st.sampled_from([0, 1.0]),)),
    ("SELECT DISTINCT s, origin FROM w WHERE k >= ?", (st.integers(0, 3),)),
    ("SELECT * FROM w", ()),
    ("SELECT k, n, origin FROM v WHERE s = ?",
     (st.sampled_from(["a", "b", "c"]),)),
    ("SELECT k, s, origin FROM w WHERE n = ? AND k >= ?",
     (st.sampled_from([0, 1, 2, 0.5, 1.5, 2.0]), st.integers(0, 3))),
    # A held view answers an IN through its lookup; a source's range
    # reads the sorted path its INSERT merges into.
    ("SELECT k, n, origin FROM v WHERE ? < n "
     "AND k IN (SELECT k FROM w WHERE s = ?)",
     (st.sampled_from([0, 0.5, 1.5]), st.sampled_from(["a", "b"]))),
    ("SELECT k, s FROM w WHERE ? >= k", (st.integers(0, 3),)),
)


def canonical(rows) -> list[tuple]:
    """*rows* as a sorted list, NULLs first: a multiset to compare."""
    return sorted((tuple(row) for row in rows), key=lambda row: [
        (value is not None, value if value is not None else 0)
        for value in row])


def inlined(sql: str, values: tuple) -> str:
    """*sql* with each ``?`` replaced by its value's literal."""
    parts = sql.split("?")
    return parts[0] + "".join(render_literal(value) + part
                              for value, part in zip(values, parts[1:]))


def tree_signature(plan) -> tuple:
    """The views the tree that ran reads, with their column types."""
    return tuple(sorted((node.name, node.signature)
                        for node in plan.walk()
                        if isinstance(node, ViewScan)))


class MediatedModel(RuleBasedStateMachine):

    @initialize(count=st.integers(2, 3), data=st.data())
    def set_up(self, count, data):
        self.model = sqlite3.connect(":memory:")
        self.rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        self.mediator = Mediator(FederationOptions(max_workers=1))
        self.sources: list[Database] = []
        self.reals: list[bool] = []
        for index in range(count):
            source = Database(f"s{index}")
            self.sources.append(source)
            self.reals.append(True)
            self.mediator.register_source(f"s{index}", source)
            self._create(index)
            for _row in range(data.draw(st.integers(0, 3))):
                self._insert(index, data.draw(KS),
                             data.draw(self._numbers(index)),
                             data.draw(TEXTS))
        self.definitions: dict[str, tuple[str, list[int], list[bool]]] = {}
        for view in VIEWS:
            self._define(view, "union_all", list(range(count)),
                         [False] * count)
        self.bank = self.mediator.as_databank()
        self.session = self.mediator.connect()
        #: Per consumer: the views it holds, as (columns, rows) shipped.
        self.held: dict[str, dict[str, list[tuple]]] = {
            "bank": {}, "session": {}}
        #: Prepared statements by text, and each one's last signature.
        self.templates: dict[str, object] = {}
        self.signatures: dict[str, tuple] = {}

    # -- the sources and the model's copy of them --------------------------

    def _numbers(self, index: int):
        return st.one_of(st.none(), st.sampled_from(
            [0.5, 1.5, 2.0] if self.reals[index] else [0, 1, 2]))

    def _create(self, index: int) -> None:
        kind = "REAL" if self.reals[index] else "INTEGER"
        ddl = f"(k INTEGER, n {kind}, s TEXT)"
        self.sources[index].execute(f"CREATE TABLE t {ddl}")
        self.model.execute(f"CREATE TABLE src{index} {ddl}")

    def _insert(self, index: int, k, n, s) -> None:
        values = ", ".join(map(render_literal, (k, n, s)))
        self.sources[index].execute(f"INSERT INTO t VALUES ({values})")
        self.model.execute(f"INSERT INTO src{index} VALUES (?, ?, ?)",
                           (k, n, s))

    def _define(self, view: str, reconciliation: str, chosen: list[int],
                stars: list[bool]) -> None:
        self.mediator.define_view(recased(view, self.rng), [
            (f"s{index}", recased(
                f"SELECT *, 's{index}' AS origin FROM t" if star
                else f"SELECT k, n, s, 's{index}' AS origin FROM t",
                self.rng))
            for index, star in zip(chosen, stars)], reconciliation)
        self.definitions[view] = (reconciliation, chosen, stars)

    def _union(self, view: str) -> str:
        reconciliation, chosen, _stars = self.definitions[view]
        # A ``union`` view holds each row once, even over one fragment,
        # where sqlite's UNION has nothing to merge.
        select, glue = (("SELECT", " UNION ALL ")
                        if reconciliation == "union_all"
                        else ("SELECT DISTINCT", " UNION "))
        return glue.join(f"{select} k, n, s, 's{index}' AS origin "
                         f"FROM src{index}" for index in chosen)

    def _expected(self, sql: str, values: tuple, consumer: str) -> list:
        held = self.held[consumer]
        for view in VIEWS:
            for kind, in self.model.execute(
                    "SELECT type FROM sqlite_master WHERE name = ?", (view,)):
                self.model.execute(f"DROP {kind} {view}")
            if view in held:
                self.model.execute(
                    f"CREATE TABLE {view} ({', '.join(COLUMNS)})")
                self.model.executemany(
                    f"INSERT INTO {view} VALUES (?, ?, ?, ?)", held[view])
            else:
                self.model.execute(
                    f"CREATE VIEW {view} AS {self._union(view)}")
        return self.model.execute(sql, values).fetchall()

    def _note_ship(self, consumer: str, report) -> None:
        """A view shipped in full is held from now on, as it was."""
        held = self.held[consumer]
        for view in report.view_rows:
            if view.lower() not in held \
                    and view not in report.pushed_filters:
                held[view.lower()] = self.model.execute(
                    self._union(view.lower())).fetchall()

    # -- rules: sources and views -----------------------------------------

    def _after_write(self, data) -> None:
        """Half the writes are followed by a refresh of both consumers:
        each held view is retired, and its next full ship grows it or
        assembles it afresh."""
        if data.draw(st.booleans()):
            for consumer in self.held:
                self.refresh(consumer)

    @rule(data=st.data())
    def insert(self, data):
        index = data.draw(st.integers(0, len(self.sources) - 1))
        self._insert(index, data.draw(KS), data.draw(self._numbers(index)),
                     data.draw(TEXTS))
        self._after_write(data)

    @rule(data=st.data(), count=st.integers(1, 4))
    def append(self, data, count):
        """Appends outweigh every other write: a held view grows by
        them."""
        index = data.draw(st.integers(0, len(self.sources) - 1))
        for _row in range(count):
            self._insert(index, data.draw(KS),
                         data.draw(self._numbers(index)), data.draw(TEXTS))
        self._after_write(data)

    @rule(data=st.data(), k=st.integers(0, 3), s=TEXTS)
    def update(self, data, k, s):
        index = data.draw(st.integers(0, len(self.sources) - 1))
        self.sources[index].execute(
            f"UPDATE t SET s = {render_literal(s)} WHERE k = {k}")
        self.model.execute(f"UPDATE src{index} SET s = ? WHERE k = ?",
                           (s, k))
        self._after_write(data)

    @rule(data=st.data())
    def truncate(self, data):
        index = data.draw(st.integers(0, len(self.sources) - 1))
        source = self.sources[index]
        with source.rwlock.write_locked():
            source.table("t").truncate()
        self.model.execute(f"DELETE FROM src{index}")
        self._after_write(data)

    @rule(data=st.data(), k=st.integers(0, 3))
    def delete(self, data, k):
        index = data.draw(st.integers(0, len(self.sources) - 1))
        self.sources[index].execute(f"DELETE FROM t WHERE k = {k}")
        self.model.execute(f"DELETE FROM src{index} WHERE k = ?", (k,))
        self._after_write(data)

    @rule(data=st.data(), real=st.booleans())
    def drop_and_create(self, data, real):
        index = data.draw(st.integers(0, len(self.sources) - 1))
        self.sources[index].execute("DROP TABLE t")
        self.model.execute(f"DROP TABLE src{index}")
        self.reals[index] = real
        self._create(index)

    @rule(data=st.data(), view=st.sampled_from(VIEWS),
          reconciliation=st.sampled_from(["union_all", "union"]))
    def define_view(self, data, view, reconciliation):
        chosen = data.draw(st.lists(
            st.integers(0, len(self.sources) - 1), min_size=1, max_size=3,
            unique=True))
        stars = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        self._define(view, reconciliation, chosen, stars)

    @rule(consumer=st.sampled_from(["bank", "session"]))
    def refresh(self, consumer):
        (self.bank if consumer == "bank" else self.session).refresh()
        self.held[consumer].clear()

    # -- rules: queries --------------------------------------------------

    def _draw(self, data) -> tuple[str, tuple]:
        sql, strategies = data.draw(st.sampled_from(TEMPLATES))
        return sql, tuple(data.draw(strategy) for strategy in strategies)

    def _note_tree(self, sql: str, plan, built_before: int) -> None:
        """A build exactly when the template first runs or the views it
        reads change their type signature."""
        signature = tree_signature(plan)
        rebuilt = self.bank.tree_stats()["built"] - built_before
        expected = self.signatures.get(sql) != signature
        assert rebuilt == expected, (sql, signature, rebuilt)
        self.signatures[sql] = signature

    def _execute(self, consumer: str, sql: str, values: tuple) -> None:
        """Execute *sql* with *values* on *consumer*: the model's
        answer."""
        if consumer == "session":
            result, report = self.session.execute(inlined(sql, values))
            self._note_ship("session", report)
            assert canonical(result.rows) \
                == canonical(self._expected(sql, values, "session"))
            return
        built = self.bank.tree_stats()["built"]
        result = self.bank.execute_ast(self._statement(sql), values)
        self._note_ship("bank", self.bank.last_report)
        assert canonical(result.rows) \
            == canonical(self._expected(sql, values, "bank"))
        self._note_tree(sql, result.plan, built)

    def _statement(self, sql: str):
        """*sql* prepared, once per text."""
        statement = self.templates.get(sql)
        if statement is None:
            statement = self.templates[sql] = SqlParser(
                sql, first_param=0).parse_statement()
        return statement

    @rule(data=st.data(), consumer=st.sampled_from(["bank", "session"]),
          view=st.sampled_from(VIEWS),
          write=st.sampled_from(["append", "append", "update", "delete",
                                 "truncate"]))
    def write_between_full_ships(self, data, consumer, view, write):
        """Ship *view* in full, write at a source, refresh, ship it in
        full again: the second ship grows the retired view, holds it
        again or assembles it afresh, and answers as the model does."""
        sql = f"SELECT * FROM {view}"
        self._execute(consumer, sql, ())
        if write == "append":
            self.append(data, data.draw(st.integers(1, 4)))
        elif write == "update":
            self.update(data, data.draw(st.integers(0, 3)), data.draw(TEXTS))
        elif write == "delete":
            self.delete(data, data.draw(st.integers(0, 3)))
        else:
            self.truncate(data)
        self.refresh(consumer)
        self._execute(consumer, sql, ())

    @rule(data=st.data(), drain=st.sampled_from(["execute", "stream",
                                                 "explain"]))
    def run_on_the_databank(self, data, drain):
        sql, values = self._draw(data)
        statement = self._statement(sql)
        built = self.bank.tree_stats()["built"]
        if drain == "execute":
            self._execute("bank", sql, values)
        elif drain == "stream":
            cursor = self.bank.stream_ast(statement, values)
            self._note_ship("bank", self.bank.last_report)
            self._note_tree(sql, cursor.plan, built)
            self._partly(cursor, self._expected(sql, values, "bank"),
                         data, self.bank)
        else:
            planned = self.bank.explain(statement, analyze=True,
                                        params=values)
            self._note_ship("bank", self.bank.last_report)
            assert planned.root.actual_rows \
                == len(self._expected(sql, values, "bank"))

    @rule(data=st.data(), drain=st.sampled_from(["execute", "stream",
                                                 "explain"]))
    def run_on_a_session(self, data, drain):
        sql, values = self._draw(data)
        text = inlined(sql, values)
        if drain == "execute":
            self._execute("session", sql, values)
        elif drain == "stream":
            cursor, report = self.session.stream(text)
            self._note_ship("session", report)
            self._partly(cursor, self._expected(sql, values, "session"),
                         data, self.session._scratch)
        else:
            plan = self.session.explain(text)
            assert plan.db_plan is not None
            assert plan.stages[-1].name == "sql"

    @rule(data=st.data(), consumer=st.sampled_from(["bank", "session"]))
    def run_recased(self, data, consumer):
        """A template with its view and column names re-cased, parsed
        afresh: the model's answer."""
        sql, values = self._draw(data)
        text = inlined(recased(sql, self.rng), values)
        if consumer == "session":
            result, report = self.session.execute(text)
        else:
            result = self.bank.query(text)
            report = self.bank.last_report
        self._note_ship(consumer, report)
        assert canonical(result.rows) \
            == canonical(self._expected(sql, values, consumer)), text

    def _partly(self, cursor, expected: list, data, database) -> None:
        """Draw some of *cursor*'s rows, close it: they are part of the
        answer, and the read lock is released."""
        taken = cursor.fetchmany(data.draw(st.integers(0, 3)))
        cursor.close()
        assert database.rwlock.active_readers == 0
        rest = canonical(expected)
        for row in canonical(taken):
            assert row in rest
            rest.remove(row)

    # -- invariants and teardown -----------------------------------------

    @invariant()
    def no_view_is_a_table(self):
        if not hasattr(self, "bank"):
            return
        for view in VIEWS:
            assert not self.bank.catalog.has_table(view)
            assert not self.session._scratch.catalog.has_table(view)

    def teardown(self):
        if not hasattr(self, "bank"):
            return
        self.templates.clear()
        gc.collect()
        assert self.bank.session._ship_templates == {}
        assert self.session._ship_templates == {}
        assert self.bank._templates == {}
        for database in (self.bank, self.session._scratch, *self.sources):
            assert database.rwlock.active_readers == 0
        self.model.close()


MediatedModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)
test_mediated_querying_matches_sqlite = MediatedModel.TestCase
