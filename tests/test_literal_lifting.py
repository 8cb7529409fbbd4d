"""An inlined statement runs its shape's template (forced parameterisation).

``Session.prepare`` reads a text it does not hold as its *shape* — its
SQL literals lifted into ``?`` slots — and keeps the parsed template,
its analysis report and, through the databank, its operator tree under
that shape.  What must hold:

* the shape keeps what the statement reads by value: ``NULL`` /
  ``TRUE``, LIMIT / OFFSET, ordinals, LIKE patterns, condition tags and
  the ENRICH clause; ``1``, ``1.0`` and ``'1'`` are three shapes, and a
  text with a ``?`` is not lifted;
* callers see their own text: ``base_sql``, the plan's statement and
  parse stage, the report's statement, the trace root and slow-query
  entry, ``PreparedQuery.text`` and ``parameter_count`` are what a
  session that lifts nothing answers;
* errors are the caller's, byte for byte, and a failed miss caches
  nothing;
* a shape hit counts as one plan-cache hit and the text probe before it
  as nothing;
* inline ≡ prepared twin ≡ a session that lifts nothing (a plan cache
  of size 0), through ``execute``, a paged ``stream``,
  ``explain(analyze=True)`` and REST v1, over drawn literals;
* a shape's shared report is what ``analyze_enriched`` says of each
  caller's text, over the example query pack and the e2e benchmark's
  templates.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import analyze_enriched
from repro.analysis.__main__ import split_statements
from repro.api import QueryOptions
from repro.core.parser import lift_literals
from repro.core.sqp import parse_sesql
from repro.crosse import CrossePlatform
from repro.federation import CrosseRestService
from repro.rdf import Namespace
from repro.relational import Database
from repro.smartground import SmartGroundConfig, generate_databank
from repro.telemetry import TelemetryOptions

SMG = Namespace("http://smartground.eu/ns#")
ROOT = Path(__file__).resolve().parents[1]

ROWS = [
    (1, 2, 0.5, "Mercury"),
    (2, 2 ** 53 + 1, -0.0, "it's"),
    (3, -3, 2.5, "1"),
    (4, None, None, "alpha"),
    (5, 1, 1.0, None),
    (6, 0, 1e300, "a%b"),
    (7, 2 ** 63, -2.5, "Iron"),
]


def build_platform() -> CrossePlatform:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, x INTEGER, f REAL, s TEXT)")
    db.insert_rows("t", [dict(zip(("k", "x", "f", "s"), row))
                         for row in ROWS])
    platform = CrossePlatform(db)
    platform.register_user("ada")
    platform.register_user("bo")
    for name, level in (("Mercury", "high"), ("Iron", "low"),
                        ("alpha", "high")):
        platform.annotate_free("ada", SMG[name], SMG.dangerLevel, level)
    return platform


@pytest.fixture(scope="module")
def world():
    """The platform, its REST service and a session that lifts — and
    keeps every shape it has seen across examples."""
    platform = build_platform()
    service = CrosseRestService(platform, pool_capacity=1)
    yield SimpleNamespace(
        platform=platform, service=service,
        lifting=platform.connect(QueryOptions()).as_user("ada"))
    service.close()


def oracle(world):
    """A session that lifts nothing: its plan cache keeps nothing."""
    return world.platform.connect(
        QueryOptions(plan_cache_size=0)).as_user("ada")


# -- the lifter ------------------------------------------------------------------


def test_shape_keys_each_literal_by_type():
    shapes = {lift_literals(f"SELECT k FROM t WHERE x = {literal}").shape
              for literal in ("1", "1.0", "'1'")}
    assert len(shapes) == 3
    assert lift_literals("SELECT k FROM t WHERE x = 1").shape \
        == lift_literals("SELECT k FROM t WHERE x = 9007199254740993").shape


@pytest.mark.parametrize("text", [
    "SELECT k FROM t WHERE x IS NULL AND f = TRUE",
    "SELECT k FROM t ORDER BY 1 LIMIT 2 OFFSET 1",
    "SELECT x, COUNT(*) FROM t GROUP BY 1, 2",
    "SELECT x + 1, COUNT(*) FROM t GROUP BY x + 1",
    "SELECT x, COUNT(*) FROM t WHERE x IN "
    "(SELECT y FROM u GROUP BY y, (y + 'a'))",
    "SELECT k FROM t WHERE s LIKE 'a%'",
    "SELECT CAST(x AS 5) FROM t",
    "SELECT k FROM t WHERE ${x = 'high' : c} "
    "ENRICH REPLACEVARIABLE(c, s, dangerLevel)",
    "SELECT s FROM t ENRICH BOOLSCHEMAEXTENSION(s, isA, 'x')",
])
def test_what_the_statement_reads_by_value_stays_in_the_shape(text):
    assert lift_literals(text) is None


@pytest.mark.parametrize("text", [
    "SELECT k FROM t WHERE x = ?  AND f = 1",
    "SELECT k FROM t WHERE s = 'abc",
    "SELECT k FROM t WHERE x = 1 AND${x = 'a' : c} ENRICH "
    "REPLACEVARIABLE(c, s, dangerLevel)",
    "SELECT k FROM t WHERE ${x = 'a' : c}AND x = 1 ENRICH "
    "REPLACEVARIABLE(c, s, dangerLevel)",
    "SELECT k FROM t WHERE x = 1 AND ${x = 'a' : c ENRICH "
    "REPLACEVARIABLE(c, s, dangerLevel)",
])
def test_a_text_with_a_slot_or_that_cannot_split_is_not_lifted(text):
    assert lift_literals(text) is None


def test_a_grouped_blocks_matched_terms_keep_their_literals(world):
    """A grouped block's select list, HAVING and ORDER BY name its group
    keys by meaning, so their literals stay in the shape — two ``x + 1``
    stay one term — while its WHERE's are lifted; the statement answers
    as a session that lifts nothing does, through the session and REST
    v1."""
    text = "SELECT x + 1, x + 1, COUNT(*) FROM t GROUP BY 1"
    assert lift_literals(text) is None
    lifted = lift_literals(
        "SELECT x + 1, COUNT(*) FROM t WHERE k > 2 GROUP BY 1 "
        "HAVING COUNT(*) > 0 ORDER BY 1, x + 1")
    assert lifted.values == (2,)
    assert lift_literals("SELECT (SELECT y + 1 FROM u GROUP BY y), 5 "
                         "FROM t").values == (5,)
    for inline in (text, "SELECT x + 1, x + 1, COUNT(*) FROM t "
                         "WHERE k > 1 GROUP BY 1 HAVING COUNT(*) > 0 "
                         "ORDER BY x + 1"):
        expected = outcome(executed(oracle(world), inline), True)
        assert len(expected[1]) > 1   # rows, not an error
        assert outcome(executed(world.lifting, inline), True) == expected
        assert outcome(rest(world.service, inline), True) == expected


def test_lifted_values_and_the_cleaned_sql_are_the_sqps():
    text = ("SELECT k, 'it''s' AS q FROM t /* c */ WHERE "
            "${s = 'Mercury' : c1} AND x IN (1, -2.5, 1e400) "
            "ORDER BY 1, x + 3 LIMIT 4 "
            "ENRICH REPLACEVARIABLE(c1, s, dangerLevel)")
    lifted = lift_literals(text)
    assert lifted.values == ("it's", 1, 2.5, float("inf"), 3)
    assert lifted.sql_text == parse_sesql(text).sql_text
    slotted = parse_sesql(lifted.slotted())
    assert slotted.parameter_count == 5
    assert slotted.enrichments == parse_sesql(text).enrichments


# -- what callers see --------------------------------------------------------------


def telemetry_session(size: int):
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER, s TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    return repro.connect(db, telemetry=TelemetryOptions(
        slow_query_threshold_s=0.0), plan_cache_size=size)


def seen(session, text: str) -> dict:
    prepared = session.prepare(text)
    result = session.execute(text)
    root = session.last_trace()
    plan = session.explain(text, analyze=True)
    slow = session.telemetry.slow_queries.entries()[0]
    return {
        "base_sql": result.base_sql,
        "rows": result.rows,
        "plan": (plan.statement, plan.base_sql, plan.stages[0].name,
                 plan.stages[0].queries, plan.rewritten_sql,
                 [stage.name for stage in plan.stages]),
        "report": prepared.diagnostics.to_dict(),
        "trace": root.attrs["statement"],
        "slow": slow.statement,
        "prepared": (prepared.text, prepared.parameter_count),
    }


def test_a_lifted_statement_shows_its_own_text():
    lifting, reference = telemetry_session(128), telemetry_session(0)
    seen(lifting, "SELECT s FROM t WHERE x = 3 ORDER BY 1")
    text = "SELECT s FROM t WHERE x = 2 ORDER BY 1"
    assert seen(lifting, text) == seen(reference, text)
    assert seen(lifting, text)["base_sql"] == text
    assert lifting.prepare(text).from_cache
    assert len(lifting.plan_cache) == 1
    with pytest.raises(repro.core.ParameterError):
        lifting.prepare(text).bind([2])


# -- errors -----------------------------------------------------------------------


def failure(session, text: str):
    with pytest.raises(Exception) as caught:
        session.prepare(text)
    error = caught.value
    return type(error), str(error), getattr(error, "position", None)


@pytest.mark.parametrize("text", [
    "SELECT k FROM t WHERE s = 'abc",
    "SELECT k FROM t WHERE s = 'a' AND AND",
])
def test_errors_are_the_callers_and_cache_nothing(world, text):
    session = world.platform.connect(QueryOptions()).as_user("bo")
    assert failure(session, text) == failure(oracle(world), text)
    assert len(session.plan_cache) == 0
    expected = {"report": {
        "statement": text, "error_count": 1, "warning_count": 0,
        "diagnostics": [{"code": "E-SYNTAX", "severity": "error",
                         "message": failure(oracle(world), text)[1],
                         "expression": None, "hint": None}]}}
    response = world.service.request("POST", "/api/v1/analyze",
                                     {"username": "bo", "query": text})
    assert response.status == 200 and response.payload == expected


# -- plan-cache accounting ----------------------------------------------------------


def test_a_shape_hit_is_one_hit_and_the_text_probe_no_miss(world):
    session = world.platform.connect(QueryOptions()).as_user("bo")
    before = session.stats()["operator_trees"]
    for literal in (1, 2, 3):
        session.execute(f"SELECT k FROM t WHERE x > {literal} ORDER BY k")
    stats = session.stats()
    plans, trees = stats["plan_cache"], stats["operator_trees"]
    assert (plans["misses"], plans["hits"], plans["size"]) == (1, 2, 1)
    assert {key: trees[key] - before[key] for key in trees} \
        == {"built": 1, "reused": 2}
    session.execute("SELECT k FROM t ORDER BY k")
    session.execute("SELECT k FROM t ORDER BY k")
    stats = session.stats()["plan_cache"]
    assert (stats["misses"], stats["hits"], stats["size"]) == (2, 3, 2)


# -- inline ≡ prepared twin ≡ no lift -------------------------------------------------

#: (inline text, value) of a literal of each family.
INTS = st.sampled_from([0, 1, 2, -3, 7, 2 ** 53 + 1, -(2 ** 53) - 3,
                        2 ** 63, 2 ** 70]).map(lambda n: (str(n), n))
FLOATS = st.sampled_from([("-0.0", -0.0), ("0.0", 0.0), ("1e400", 1e400),
                          ("0.5", 0.5), ("1.0", 1.0), ("2.5e0", 2.5),
                          ("1e-300", 1e-300)])
STRINGS = st.sampled_from([("'it''s'", "it's"), ("'1'", "1"),
                           ("'Mercury'", "Mercury"), ("'a%'", "a%"),
                           ("''", "")])
WORDS = st.sampled_from([("NULL", None), ("TRUE", True), ("FALSE", False)])
VALUES = st.one_of(INTS, FLOATS, STRINGS, WORDS)
NUMBERS = st.one_of(INTS, FLOATS)

#: Statement shapes: text with ``{}`` where each drawn literal goes, the
#: strategies of its literals, and whether its order is defined.
SHAPES = [
    ("SELECT k, x, s FROM t WHERE x = {} ORDER BY k", [VALUES], True),
    ("SELECT k, f FROM t WHERE f > {} OR s = {} ORDER BY 1",
     [NUMBERS, STRINGS], True),
    ("SELECT k FROM t WHERE s LIKE 'a%' OR k >= {}", [INTS], False),
    ("SELECT k, {} AS v FROM t ORDER BY k LIMIT 3 OFFSET 1", [VALUES], True),
    ("SELECT x + {}, COUNT(*) FROM t GROUP BY x + {} ORDER BY 1",
     [INTS, INTS], True),
    ("SELECT k FROM t ORDER BY x + {}, k", [NUMBERS], True),
    ("SELECT k FROM t WHERE x IN ({}, {}) OR f IN ({}, {}, {}) ORDER BY k",
     [VALUES] * 5, True),
    ("SELECT k, s FROM t WHERE ${{s = {} : c1}} AND k > {} ORDER BY k "
     "ENRICH REPLACEVARIABLE(c1, s, dangerLevel)", [STRINGS, INTS], True),
    ("SELECT s, k FROM t WHERE f >= {} OR x = {} ORDER BY k "
     "ENRICH SCHEMAEXTENSION(s, dangerLevel)", [NUMBERS, VALUES], True),
]


@st.composite
def statements(draw):
    text, families, ordered = draw(st.sampled_from(SHAPES))
    literals = [draw(family) for family in families]
    inline = text.format(*(sql for sql, _value in literals))
    twin = text.format(*("?" for _ in literals))
    return inline, twin, [value for _sql, value in literals], ordered


def typed(rows, ordered: bool) -> list:
    rows = [tuple((type(value).__name__, value) for value in row)
            for row in rows]
    return rows if ordered else sorted(rows, key=repr)


def outcome(run, ordered: bool):
    """What *run* answered, or how it failed."""
    try:
        return run(ordered)
    except Exception as error:  # the same failure is the same answer
        return type(error).__name__, str(error)


def executed(session, text, params=None):
    def run(ordered):
        result = session.execute(text, params)
        return result.columns, typed(result.rows, ordered)
    return run


def paged(session, text, params=None):
    def run(ordered):
        with session.stream(text, params, page_size=2) as cursor:
            rows = []
            while page := cursor.fetchmany(2):
                rows += page
            return list(cursor.columns), typed(rows, ordered)
    return run


def explained(session, text, params=None, *, texts: bool = True):
    """The plan's texts (the twin's show its ``?`` bound, not as
    written) and the rows its tree produced."""
    def run(_ordered):
        plan = session.explain(text, params, analyze=True)
        rows = plan.db_plan.root.actual_rows
        if not texts:
            return rows
        return (plan.statement, plan.base_sql, plan.rewritten_sql,
                plan.stages[0].queries, rows)
    return run


def rest(service, text, params=None):
    def run(ordered):
        body = {"username": "ada", "query": text, "limit": 100}
        if params:
            body["params"] = params
        response = service.request("POST", "/api/v1/query", body)
        payload = response.payload
        if response.status != 200:
            return response.status, payload["error"]["message"]
        return payload["columns"], typed(map(tuple, payload["rows"]),
                                         ordered)
    return run


@settings(max_examples=150, deadline=None)
@given(statements())
def test_inline_runs_as_its_prepared_twin_and_as_no_lift(world, statement):
    inline, twin, params, ordered = statement
    lifting, reference = world.lifting, oracle(world)
    for surface in (executed, paged):
        expected = outcome(surface(reference, inline), ordered)
        assert outcome(surface(lifting, inline), ordered) == expected
        assert outcome(surface(lifting, twin, params), ordered) == expected
    expected = outcome(explained(reference, inline), ordered)
    assert outcome(explained(lifting, inline), ordered) == expected
    rows = outcome(explained(lifting, twin, params, texts=False), ordered)
    assert rows == (expected[-1] if len(expected) == 5 else expected)
    expected = outcome(rest(world.service, inline), ordered)
    assert expected[0] != 500
    assert outcome(rest(world.service, twin, params), ordered) == expected
    prepared = lifting.prepare(inline)
    assert prepared.parameter_count == 0
    assert prepared.diagnostics.to_dict() \
        == reference.prepare(inline).diagnostics.to_dict()


def test_the_property_reuses_shapes(world):
    lifting = world.lifting
    before = lifting.stats()["plan_cache"]["hits"]
    for literal in ("1", "2", "3"):
        lifting.execute(f"SELECT k, x, s FROM t WHERE x = {literal} "
                        "ORDER BY k")
    assert lifting.stats()["plan_cache"]["hits"] >= before + 2
    assert lifting.prepare("SELECT k, x, s FROM t WHERE x = 4 ORDER BY k"
                           ).from_cache


# -- diagnostics -------------------------------------------------------------------


def _e2e_templates():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py")
    module = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.enrich_templates(12) + module.sql_templates(12)


def _inline_pack() -> list[list[str]]:
    """Each statement of the example pack, as three inlined statements
    of its shape (a ``?`` takes a literal of the family it compares
    with)."""
    literals = [("'Gold'", "'Iron'", "'Lead'"), ("5", "6", "7")]
    families = []
    for statement in split_statements(
            (ROOT / "examples" / "queries.sesql").read_text()):
        pieces = statement.split("?")
        family = [literals[index % 2] for index in range(len(pieces) - 1)]
        families.append([
            "".join(piece + (family[slot][draw] if slot < len(family)
                             else "")
                    for slot, piece in enumerate(pieces))
            for draw in range(3)])
    return families


def test_shared_reports_are_each_callers_own():
    db = generate_databank(SmartGroundConfig(n_landfills=12, seed=7))
    session = repro.connect(db)
    rng = random.Random(5)
    groups = _inline_pack() + [
        [template.inline(template.draw(rng)) for _ in range(3)]
        for template in _e2e_templates()]
    lifted = 0
    for group in groups:
        for text in group:
            lifted += lift_literals(text) is not None
            expected = analyze_enriched(parse_sesql(text), db).to_dict()
            assert session.prepare(text).diagnostics.to_dict() == expected
    assert lifted >= 40
    assert session.stats()["plan_cache"]["hits"] >= 30
