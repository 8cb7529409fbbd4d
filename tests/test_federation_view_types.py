"""A view bound per run keeps the value types a stored view had.

A mediated view is no table: each run binds its shipped columns into
the statement's tree, typed as the column loader types a table — each
column the narrowest type of its values, a column of mixed types
coerced to it, an object the storage model does not know stored as its
``str``.  :data:`EXPECTED` is what the same statements answered when
every view was first loaded into a table and scanned, value types
included: fragments that ship ``int`` beside ``float``, ``bool`` beside
``int``, only NULLs, no rows, RDF terms and other objects, reconciled
as ``union_all`` and as ``union`` (whose ``1`` and ``1.0`` are one row:
the one kept decides the column's type).

And a kept tree is rebuilt exactly when a view it reads changes its
type signature, and re-driven otherwise.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.federation import FederationOptions, Mediator
from repro.rdf import IRI, Literal
from repro.relational import Database, ResultSet
from repro.relational.parser import SqlParser

COLUMNS = ["a", "b", "c"]

#: Per view: its reconciliation and each fragment's answer, as columns.
VIEWS = {
    # a: int beside float; b: bool beside int; c: only NULLs.
    "mixed": ("union_all", [[[1, None, 3], [True, False, None], [None] * 3],
                            [[2.5, 4.0], [2, None], [None, None]]]),
    # a: terms and a Decimal beside int and str; b: only bools; c: floats.
    "objects": ("union_all", [
        [[IRI("http://example.org/x"), 5, "t"], [True, None, False],
         [0.5, None, 1.0]],
        [[Decimal("1.5"), Literal("7")], [False, True], [2.0, 3.5]]]),
    # a: 1 and 1.0 are one row, the int kept; b: 2 and 2.0 likewise.
    "deduped": ("union", [[[1, 2, None], [2, 3, 3], ["x", "y", "y"]],
                          [[1.0, None], [2.0, 3], ["x", "y"]]]),
    # no rows at all: every column TEXT.
    "empty": ("union_all", [[[], [], []], [[], [], []]]),
}

STATEMENTS = [
    "SELECT * FROM {view}",
    "SELECT a, b, c FROM {view} WHERE b IS NOT NULL",
    "SELECT COUNT(*), MAX(a), MIN(c) FROM {view}",
    "SELECT c, a FROM {view} ORDER BY a DESC",
]


class Fixed(Database):
    """Answers every fragment with the columns it was handed, whatever
    it is asked (the mediator re-applies any filter locally)."""

    def __init__(self, name: str, cols: list[list]) -> None:
        super().__init__(name)
        self.execute("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)")
        self.cols = cols

    def query(self, target, params=None):
        return ResultSet(COLUMNS, cols=[list(column) for column in self.cols])


def mediator() -> Mediator:
    built = Mediator(FederationOptions(max_workers=1))
    for view, (reconciliation, answers) in VIEWS.items():
        fragments = []
        for index, cols in enumerate(answers):
            name = f"{view}{index}"
            built.register_source(name, Fixed(name, cols))
            fragments.append((name, "SELECT a, b, c FROM t"))
        built.define_view(view, fragments, reconciliation)
    return built


def typed(rows) -> list[list]:
    """Each value with its type's name: ``1`` and ``1.0`` differ."""
    return [[(type(value).__name__, value) for value in row] for row in rows]


def answers() -> dict[str, list]:
    """Every statement over every view, through a databank (each view
    shipped afresh, then held) and through a session."""
    found = {}
    bank = mediator().as_databank()
    session = bank.mediator.connect()
    for view in VIEWS:
        for statement in STATEMENTS:
            sql = statement.format(view=view)
            found[sql] = typed(bank.query(sql).rows)
            assert typed(bank.query(sql).rows) == found[sql]
            assert typed(session.query(sql).rows) == found[sql]
    return found


#: What the statements answered when every view was stored as a table.
EXPECTED = {
    "SELECT * FROM mixed": [
        [("float", 1.0), ("int", 1), ("NoneType", None)],
        [("NoneType", None), ("int", 0), ("NoneType", None)],
        [("float", 3.0), ("NoneType", None), ("NoneType", None)],
        [("float", 2.5), ("int", 2), ("NoneType", None)],
        [("float", 4.0), ("NoneType", None), ("NoneType", None)]],
    "SELECT a, b, c FROM mixed WHERE b IS NOT NULL": [
        [("float", 1.0), ("int", 1), ("NoneType", None)],
        [("NoneType", None), ("int", 0), ("NoneType", None)],
        [("float", 2.5), ("int", 2), ("NoneType", None)]],
    "SELECT COUNT(*), MAX(a), MIN(c) FROM mixed": [
        [("int", 5), ("float", 4.0), ("NoneType", None)]],
    "SELECT c, a FROM mixed ORDER BY a DESC": [
        [("NoneType", None), ("NoneType", None)],
        [("NoneType", None), ("float", 4.0)],
        [("NoneType", None), ("float", 3.0)],
        [("NoneType", None), ("float", 2.5)],
        [("NoneType", None), ("float", 1.0)]],
    "SELECT * FROM objects": [
        [("str", "http://example.org/x"), ("bool", True), ("float", 0.5)],
        [("str", "5"), ("NoneType", None), ("NoneType", None)],
        [("str", "t"), ("bool", False), ("float", 1.0)],
        [("str", "1.5"), ("bool", False), ("float", 2.0)],
        [("str", "7"), ("bool", True), ("float", 3.5)]],
    "SELECT a, b, c FROM objects WHERE b IS NOT NULL": [
        [("str", "http://example.org/x"), ("bool", True), ("float", 0.5)],
        [("str", "t"), ("bool", False), ("float", 1.0)],
        [("str", "1.5"), ("bool", False), ("float", 2.0)],
        [("str", "7"), ("bool", True), ("float", 3.5)]],
    "SELECT COUNT(*), MAX(a), MIN(c) FROM objects": [
        [("int", 5), ("str", "t"), ("float", 0.5)]],
    "SELECT c, a FROM objects ORDER BY a DESC": [
        [("float", 1.0), ("str", "t")],
        [("float", 0.5), ("str", "http://example.org/x")],
        [("float", 3.5), ("str", "7")],
        [("NoneType", None), ("str", "5")],
        [("float", 2.0), ("str", "1.5")]],
    "SELECT * FROM deduped": [
        [("int", 1), ("int", 2), ("str", "x")],
        [("int", 2), ("int", 3), ("str", "y")],
        [("NoneType", None), ("int", 3), ("str", "y")]],
    "SELECT a, b, c FROM deduped WHERE b IS NOT NULL": [
        [("int", 1), ("int", 2), ("str", "x")],
        [("int", 2), ("int", 3), ("str", "y")],
        [("NoneType", None), ("int", 3), ("str", "y")]],
    "SELECT COUNT(*), MAX(a), MIN(c) FROM deduped": [
        [("int", 3), ("int", 2), ("str", "x")]],
    "SELECT c, a FROM deduped ORDER BY a DESC": [
        [("str", "y"), ("NoneType", None)],
        [("str", "y"), ("int", 2)],
        [("str", "x"), ("int", 1)]],
    "SELECT * FROM empty": [],
    "SELECT a, b, c FROM empty WHERE b IS NOT NULL": [],
    "SELECT COUNT(*), MAX(a), MIN(c) FROM empty": [
        [("int", 0), ("NoneType", None), ("NoneType", None)]],
    "SELECT c, a FROM empty ORDER BY a DESC": [],
}


def test_bound_views_answer_with_the_stored_views_value_types():
    assert answers() == EXPECTED


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_a_prepared_statement_answers_as_the_ad_hoc_one(view):
    bank = mediator().as_databank()
    statement = SqlParser(f"SELECT a, b, c FROM {view} WHERE b IS NOT NULL "
                          f"OR a = ?", first_param=0).parse_statement()
    for _run in range(2):
        assert typed(bank.execute_ast(statement, (None,)).rows) == EXPECTED[
            f"SELECT a, b, c FROM {view} WHERE b IS NOT NULL"]
    cursor = bank.stream_ast(statement, (None,))
    assert typed(cursor.fetchall()) == EXPECTED[
        f"SELECT a, b, c FROM {view} WHERE b IS NOT NULL"]


def test_a_kept_tree_is_rebuilt_when_a_view_changes_its_types():
    source = Fixed("s", [[1, 2], [True, False], ["x", "y"]])
    built = Mediator(FederationOptions(max_workers=1))
    built.register_source("s", source)
    built.define_view("v", [("s", "SELECT a, b, c FROM t")])
    bank = built.as_databank()
    statement = SqlParser("SELECT a, b FROM v WHERE a > ?",
                          first_param=0).parse_statement()

    def run(answer: list[list] | None = None) -> tuple[list, dict]:
        if answer is not None:
            source.cols = answer
            source.bump_generation()
            bank.refresh()
        rows = typed(bank.execute_ast(statement, (1,)).rows)
        return rows, bank.tree_stats()

    assert run() == ([[("int", 2), ("bool", False)]],
                     {"built": 1, "reused": 0})
    # Held, the same view: re-driven.
    assert run()[1] == {"built": 1, "reused": 1}
    # Shipped again with the same types: still re-driven.
    assert run([[3, 0], [True, True], ["x", "y"]]) \
        == ([[("int", 3), ("bool", True)]], {"built": 1, "reused": 2})
    # a is REAL now: rebuilt, and kept from here on.
    assert run([[1, 2.5], [True, False], ["x", "y"]]) \
        == ([[("float", 2.5), ("bool", False)]], {"built": 2, "reused": 2})
    assert run()[1] == {"built": 2, "reused": 3}
    # No rows: every column TEXT, another signature.
    assert run([[], [], []]) == ([], {"built": 3, "reused": 3})
    # Back to INTEGER / BOOLEAN: rebuilt once more.
    assert run([[5], [None], ["z"]]) \
        == ([[("int", 5), ("NoneType", None)]], {"built": 4, "reused": 3})
