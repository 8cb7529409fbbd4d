"""A stateful model of plain SQL over one table, checked against sqlite3.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.relational.Database` holding ``t (id, i INTEGER, r REAL,
s TEXT, b BOOLEAN)`` and a key table ``u``: rows are inserted one at a
time and many at once (also by a multi-row ``INSERT ... VALUES`` whose
rows count the table), updated (the column a read probes, or another),
deleted a few at a time or past the compaction threshold (more than
``COMPACT_MIN_DELETED`` dead slots and over a quarter of the table),
truncated; hash, ``USING sorted`` and ``UNIQUE`` indexes are created and
dropped, and the table is dropped and created again.  The engine runs
every write with its identifiers (table, column and index names)
randomly re-cased — an index is dropped in another case than it was
created in — while the model runs it as written.  Between writes a
template drawn from :data:`READS` — ``=``, ``IN (list)``, ``IN
(subquery)``, ranges, either way round, and ``u JOIN t`` on the
column — is prepared once and run with drawn values through its kept
operator tree; a re-cased read runs each template once more with its
identifiers (table, column and alias names) randomly re-cased, parsed
afresh.  The values hold integers beyond 2**53 in the INTEGER
and the REAL column, ``-0.0`` and ``0.0``, NaN, NULL, TRUE / FALSE and
strings.

The model is stdlib sqlite3 holding the same rows.  A NaN is NULL on
both sides: the engine stores the NaN a write's ``CAST('nan' AS REAL)``
makes, and binds a read's NaN key, as NULL; sqlite stores and binds a
bound NaN as NULL.

What must hold: every read, re-cased or not, is the model's answer (as a
multiset) and,
row for row, the answer of the same template over a forced scan (no
access path); a column's lookup is read, by a scan or an index join,
kept up by the writes between runs, and dropped by compaction, truncate
and DROP TABLE.  The join is an index join wherever the column's
lookup is built and ``t`` holds a row and :data:`PROBED_ROWS_PER_MEMBER`
rows per row of ``u``, declared index or not, and a hash join wherever
the lookup is not built and ``u`` holds a row.
"""

from __future__ import annotations

import math
import random
import sqlite3

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.relational import Database
from repro.relational.lexer import tokenize
from repro.relational.parser import SqlParser
from repro.relational.render import render_literal
from test_access_paths import forced_scan

NAN = float("nan")
BIG = 2 ** 53

#: Per column of ``t``: what a write stores there.
POOLS = {
    "i": [None, 0, 1, -1, 5, BIG, BIG + 1],
    "r": [None, 0.0, -0.0, 1.0, 2.5, float(BIG), BIG + 1, NAN],
    "s": [None, "", "a", "b", "1", "ab"],
    "b": [None, True, False],
}
#: Per column of ``t``: what a read's key is (of the column's family:
#: sqlite holds ``1 = TRUE``, the engine does not).
KEYS = {
    "i": [None, 0, 1, 5, 1.0, BIG, BIG + 1, float(BIG)],
    "r": [None, 0, 0.0, -0.0, 1, 2.5, BIG, BIG + 1, float(BIG), NAN],
    "s": [None, "", "a", "b", "1"],
    "b": [None, True, False],
}
KEYS["id"] = [0, 1, 3, 7, 20]
COLUMNS = ("id", "i", "r", "s", "b")
#: The column of ``u`` an ``IN (subquery)`` over a column of ``t`` reads.
MEMBERS = {"id": "x", "i": "x", "r": "y", "s": "z", "b": "w"}
DDL = "(id INTEGER, i INTEGER, r REAL, s TEXT, b BOOLEAN)"

#: Template -> (its SQL over ``t`` with ``{c}`` the column, how many
#: keys it binds).
READS = {
    "=": ("SELECT id FROM t WHERE {c} = ?", 1),
    "= swapped": ("SELECT id, s FROM t WHERE ? = {c}", 1),
    "IN list": ("SELECT id FROM t WHERE {c} IN (?, ?, ?)", 3),
    "IN subquery": ("SELECT id FROM t WHERE {c} IN (SELECT {m} FROM u)",
                    0),
    "IN subquery, range": ("SELECT id FROM t WHERE {c} IN "
                           "(SELECT {m} FROM u) AND id >= ?", 1),
    "<": ("SELECT id FROM t WHERE {c} < ?", 1),
    "<=": ("SELECT id, i FROM t WHERE {c} <= ?", 1),
    ">": ("SELECT id FROM t WHERE ? < {c}", 1),
    ">=": ("SELECT id FROM t WHERE {c} >= ?", 1),
    "= and range": ("SELECT id FROM t WHERE {c} = ? AND id > ?", 2),
    "join": ("SELECT t.id, u.{m} FROM u JOIN t ON t.{c} = u.{m}", 0),
}
#: Templates only a re-cased read runs: aliased names to re-case.
ALIASED = {
    "=": "SELECT a.id FROM t AS a WHERE a.{c} = ?",
    "join": "SELECT a.id, b.{m} FROM u AS b JOIN t a ON a.{c} = b.{m}",
}
#: From this many rows of ``t`` per row of ``u``, the cost model joins
#: ``t`` by its column's lookup once that is built.  With no statistics,
#: each row of ``u`` costs the index join its scan, a probe and a fetch
#: (0.3 + 1.6 + 1.1, ``planner/cost.py``) and each row of ``t`` costs
#: nothing; the hash join from ``t`` scans and hashes each row of ``u``
#: and scans and probes each row of ``t`` (0.55 each), so the index
#: join is cheaper above 4.5 rows of ``t`` per row of ``u``, for every
#: ``u`` the machine draws (at most 5 rows) once ``t`` has 30.  Building
#: the lookup costs as much a row of ``t`` (0.15 + 0.4: each row its
#: own key) as the hash join does, so unbuilt it hashes, unless ``u`` is
#: empty (a tie).
PROBED_ROWS_PER_MEMBER = 6


def literal(value) -> str:
    """*value* as SQL text; NaN has no literal, so it is a CAST."""
    if isinstance(value, float) and math.isnan(value):
        return "CAST('nan' AS REAL)"
    return render_literal(value)


def parsed(sql: str):
    return SqlParser(sql, first_param=0).parse_statement()


def recased(sql: str, rng: random.Random) -> str:
    """*sql* with each letter of every unquoted identifier in a random
    case; keywords, string literals and quoted identifiers as written."""
    parts, at = [], 0
    for token in tokenize(sql):
        if token.type == "IDENT" and sql[token.position] != '"':
            parts.append(sql[at:token.position])
            parts.extend(rng.choice((char.lower(), char.upper()))
                         for char in token.value)
            at = token.position + len(token.value)
    return "".join(parts) + sql[at:]


class PlainSqlModel(RuleBasedStateMachine):

    @initialize(data=st.data())
    def set_up(self, data):
        self.db = Database()
        self.model = sqlite3.connect(":memory:")
        self.db.execute(f"CREATE TABLE t {DDL}")
        self.model.execute(f"CREATE TABLE t {DDL}")
        ddl = "(x INTEGER, y REAL, z TEXT, w BOOLEAN)"
        self.db.execute(f"CREATE TABLE u {ddl}")
        self.model.execute(f"CREATE TABLE u {ddl}")
        self.rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        self.next_id = 0
        self.indexes: list[str] = []
        #: (template, column) -> (its statement, its forced-scan twin).
        self.statements: dict[tuple[str, str], tuple] = {}
        self._members(data)
        self._insert(data, 140)

    # -- writes ---------------------------------------------------------

    def _rows(self, data, count: int) -> list[tuple]:
        """*count* new rows, their values drawn from one seed."""
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        first, self.next_id = self.next_id, self.next_id + count
        return [(row_id, *(rng.choice(POOLS[column])
                           for column in COLUMNS[1:]))
                for row_id in range(first, self.next_id)]

    def _insert(self, data, count: int) -> None:
        rows = self._rows(data, count)
        if rows:
            self._write("INSERT INTO t VALUES " + ", ".join(
                "(" + ", ".join(map(literal, row)) + ")" for row in rows))
        self.model.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)

    def _members(self, data) -> None:
        """``u``'s rows afresh: each column's keys."""
        rows = data.draw(st.lists(st.tuples(*(
            st.sampled_from(POOLS[column])
            for column in ("i", "r", "s", "b"))), max_size=5))
        self._write("DELETE FROM u")
        self.model.execute("DELETE FROM u")
        for row in rows:
            self._write(
                f"INSERT INTO u VALUES ({', '.join(map(literal, row))})")
            self.model.execute("INSERT INTO u VALUES (?, ?, ?, ?)", row)

    def _write(self, sql: str):
        """Run *sql* on the engine, its identifiers re-cased."""
        return self.db.execute(recased(sql, self.rng))

    def _where(self, data) -> tuple[str, str, tuple]:
        """A write's WHERE: the engine's text, sqlite's, its values."""
        column = data.draw(st.sampled_from(["id", "i", "s", "b"]))
        if column == "id":
            modulus = data.draw(st.integers(1, 4))
            residue = data.draw(st.integers(0, modulus - 1))
            text = f"id % {modulus} = {residue}"
            return text, text, ()
        key = data.draw(st.sampled_from(POOLS[column][1:]))
        return f"{column} = {literal(key)}", f"{column} = ?", (key,)

    @rule(data=st.data())
    def insert_one(self, data):
        self._insert(data, 1)

    @rule(data=st.data(), count=st.integers(2, 120))
    def insert_many(self, data, count):
        self._insert(data, count)

    @rule(count=st.integers(1, 3))
    def insert_counting(self, count):
        """A multi-row INSERT ... VALUES whose rows read the table: each
        row sees the table as it was before the statement."""
        first, self.next_id = self.next_id, self.next_id + count
        sql = "INSERT INTO t (id, i) VALUES " + ", ".join(
            f"({row_id}, (SELECT COUNT(*) FROM t))"
            for row_id in range(first, self.next_id))
        self._write(sql)
        self.model.execute(sql)
        read = f"SELECT id, i FROM t WHERE id >= {first}"
        assert sorted(self.db.query(read).rows) \
            == sorted(self.model.execute(read).fetchall())

    @rule(data=st.data(), column=st.sampled_from(COLUMNS[1:]))
    def update(self, data, column):
        """An UPDATE between two reads of the value it writes, and of
        the join on its column: the rows it moves into and out of a
        bucket are read back."""
        value = data.draw(st.sampled_from(POOLS[column]))
        where, model_where, values = self._where(data)
        self._check("=", column, (value,))
        self._check("join", column, ())
        self._write(f"UPDATE t SET {column} = {literal(value)} "
                    f"WHERE {where}")
        self.model.execute(f"UPDATE t SET {column} = ? WHERE {model_where}",
                           (value, *values))
        self._check("=", column, (value,))
        self._check("join", column, ())

    @rule(data=st.data())
    def delete(self, data):
        """A DELETE between two reads of each column and of the join on
        it: what a compaction renumbers is read back."""
        where, model_where, values = self._where(data)
        keys = {column: data.draw(st.sampled_from(KEYS[column]))
                for column in COLUMNS}
        for column, key in keys.items():
            self._check("=", column, (key,))
            self._check("join", column, ())
        table = self.db.table("t")
        dead = table._deleted_count
        deleted = self._write(f"DELETE FROM t WHERE {where}")
        self.model.execute(f"DELETE FROM t WHERE {model_where}", values)
        if table._deleted_count != dead + deleted:
            event("compacted")
        for column, key in keys.items():
            self._check("=", column, (key,))
            self._check("join", column, ())

    @rule()
    def truncate(self):
        with self.db.rwlock.write_locked():
            self.db.table("t").truncate()
        self.model.execute("DELETE FROM t")

    @rule(data=st.data())
    def refill_members(self, data):
        self._members(data)

    @rule(column=st.sampled_from(COLUMNS),
          kind=st.sampled_from(["hash", "sorted", "unique"]))
    def create_index(self, column, kind):
        if kind == "unique":
            column = "id"   # the one column whose values never repeat
        name = f"{kind}_{column}"
        if name in self.indexes:
            return
        self._write(
            f"CREATE {'UNIQUE ' * (kind == 'unique')}INDEX {name} "
            f"ON t ({column}){' USING sorted' * (kind == 'sorted')}")
        self.indexes.append(name)
        self._check("join", column, ())

    @rule(data=st.data())
    def drop_index(self, data):
        if self.indexes:
            name = data.draw(st.sampled_from(self.indexes))
            self._write(f"DROP INDEX {name}")
            self.indexes.remove(name)

    @rule(data=st.data())
    def drop_and_create(self, data):
        for sql in ("DROP TABLE t", f"CREATE TABLE t {DDL}"):
            self._write(sql)
            self.model.execute(sql)
        self.indexes.clear()
        self._insert(data, data.draw(st.integers(0, 40)))

    # -- reads ----------------------------------------------------------

    def _expected(self, template: str, column: str, values: tuple) -> list:
        sql = READS[template][0].format(c=column, m=MEMBERS[column])
        return self.model.execute(sql, values).fetchall()

    def _values(self, data, template: str, column: str) -> tuple:
        """Drawn keys for one run of *template* over *column*."""
        keys = st.sampled_from(KEYS[column])
        values = tuple(data.draw(keys) for _ in range(READS[template][1]))
        if template.endswith("range"):
            values = values[:-1] + (data.draw(st.sampled_from(KEYS["id"])),)
        return values

    @rule(data=st.data(), template=st.sampled_from(sorted(READS)))
    def read(self, data, template):
        """*template* over each column in turn, with drawn keys."""
        for column in COLUMNS:
            self._check(template, column, self._values(data, template,
                                                       column))

    @rule(data=st.data(), template=st.sampled_from(sorted(READS)))
    def read_recased(self, data, template):
        """*template* over each column in turn, as written and then with
        its identifiers re-cased (and, where it has one, its aliased
        form re-cased): every answer is the model's."""
        for column in COLUMNS:
            values = self._values(data, template, column)
            self._check(template, column, values)
            expected = sorted(self._expected(template, column, values))
            for sql in (READS[template][0], ALIASED.get(template)):
                if sql is not None:
                    text = recased(sql.format(c=column, m=MEMBERS[column]),
                                   self.rng)
                    assert sorted(self.db.execute_ast(
                        parsed(text), values).rows) == expected, text

    def _check(self, template: str, column: str, values: tuple) -> None:
        sql = READS[template][0]
        pair = self.statements.get((template, column))
        if pair is None:
            text = sql.format(c=column, m=MEMBERS[column])
            pair = self.statements[template, column] = (parsed(text),
                                                         parsed(text))
        result = self.db.execute_ast(pair[0], values)
        with forced_scan():
            scanned = self.db.execute_ast(pair[1], values).rows
        assert result.rows == scanned
        assert sorted(result.rows) == sorted(
            self._expected(template, column, values))
        detail = next(node.detail for node in result.plan.walk()
                      if node.kind == "scan" and node.label == "t")
        event(detail.split(" ")[0] or "scan")
        if template == "join":
            self._check_join_strategy(column)

    def _check_join_strategy(self, column: str) -> None:
        text = READS["join"][0].format(c=column, m=MEMBERS[column])
        probed = ("index-join", "to t") in {
            (node.kind, node.label)
            for node in self.db.explain(text).root.walk()}
        table, members = self.db.table("t"), len(self.db.table("u"))
        if not table.paths.built(COLUMNS.index(column)):
            assert not probed or not members
        elif len(table) >= max(PROBED_ROWS_PER_MEMBER * members, 1):
            assert probed
        event("join: " + ("index-join to t" if probed else "other"))

    @invariant()
    def no_reader_is_left(self):
        if hasattr(self, "db"):
            assert self.db.rwlock.active_readers == 0

    def teardown(self):
        if hasattr(self, "model"):
            self.model.close()


PlainSqlModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
test_plain_sql_matches_sqlite = PlainSqlModel.TestCase
