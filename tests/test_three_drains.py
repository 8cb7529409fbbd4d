"""execute, stream and explain are three drains of one pipeline run.

Every statement of ``tests/test_paper_examples.py`` (read off that
module's source, so a new example is covered the day it is added) and
of the SmartGround workload runs through all three drains — over a
plain databank and over the same tables behind a mediator, at three
page sizes, with the WHERE rewrite keeping the original constant or
not — and the drains must agree: same
rows, same SPARQL, same rewritten SQL, same operator row counts, and
nothing left behind (no extraction temp table, no read lock), also when
a stream is abandoned after one row.  The mediator's own explain must
name what a following execute reports.
"""

import ast
import copy
import threading
from pathlib import Path

import pytest

import repro
from repro.core import EnrichmentError, StoredQueryRegistry
from repro.federation import Mediator
from repro.planner import PlannerOptions
from repro.relational import ast as sql_ast
from repro.relational.bind import bind
from repro.smartground import (DANGER_QUERY_SPARQL, SQL_BASELINES,
                               SmartGroundConfig, WORKLOAD,
                               generate_databank, researcher_kb)
from test_paper_examples import engine as paper_engine  # noqa: F401


def _paper_statements() -> list[str]:
    """The first argument of every ``engine.execute(...)`` call."""
    source = Path(__file__).with_name("test_paper_examples.py").read_text()
    found = [node.args[0].value for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "execute"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "engine"]
    return list(dict.fromkeys(found))


PAPER = _paper_statements()
STATEMENTS = ([pytest.param("paper", text, id=f"paper-{index}")
               for index, text in enumerate(PAPER)]
              + [pytest.param("smartground", query.sesql, id=query.name)
                 for query in WORKLOAD])


def test_the_paper_statements_were_found():
    assert len(PAPER) >= 8
    assert all("SELECT" in text for text in PAPER)


@pytest.fixture(scope="module")
def smartground():
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", DANGER_QUERY_SPARQL)
    databank = generate_databank(SmartGroundConfig(n_landfills=6, seed=42))
    return databank, researcher_kb(), registry


def mediated(databank):
    """*databank*'s tables as the global views of a one-source mediator."""
    mediator = Mediator()
    mediator.register_source("origin", databank)
    for table in databank.table_names():
        mediator.define_view(table, [("origin", f"SELECT * FROM {table}")])
    return mediator


@pytest.fixture
def connect(paper_engine, smartground):  # noqa: F811
    def build(dataset: str, federated: bool, include_original: bool = False):
        if dataset == "paper":
            databank, kb, registry = (paper_engine.databank,
                                      paper_engine.knowledge_base,
                                      paper_engine.stored_queries)
        else:
            databank, kb, registry = smartground
        if federated:
            databank = mediated(databank).as_databank()
        return repro.connect(databank, knowledge_base=kb,
                             stored_queries=registry,
                             include_original=include_original)
    return build


def assert_nothing_left_behind(databank) -> None:
    """No drain holds the read lock, and no extraction is a table: each
    is bound to the run that reads it."""
    assert [name for name in databank.table_names()
            if name.startswith("__sesql_")] == []
    assert_writer_can_acquire(databank)


def assert_writer_can_acquire(databank, timeout: float = 5.0) -> None:
    def write() -> None:
        with databank.rwlock.write_locked():
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    writer.join(timeout)
    assert not writer.is_alive(), "a drain still holds the read lock"


@pytest.mark.parametrize("include_original", [False, True],
                         ids=["replaced", "original-kept"])
@pytest.mark.parametrize("page_size", [1, 7, 256])
@pytest.mark.parametrize("federated", [False, True],
                         ids=["plain", "federated"])
@pytest.mark.parametrize("dataset, text", STATEMENTS)
def test_three_drains_agree(connect, dataset, text, federated, page_size,
                            include_original):
    """Also under the session's ``include_original``, which every drain
    reads from the session: the WHERE rewrite then keeps the tagged
    condition's original constant or predicate beside the extraction."""
    session = connect(dataset, federated, include_original)
    databank = session.databank

    executed = session.execute(text)
    assert_nothing_left_behind(databank)

    cursor = session.stream(text, page_size=page_size)
    assert cursor.columns == executed.columns
    assert list(cursor) == executed.rows
    assert_nothing_left_behind(databank)

    abandoned = session.stream(text, page_size=page_size)
    next(abandoned, None)
    abandoned.close()
    assert_nothing_left_behind(databank)

    plan = session.explain(text)
    assert_nothing_left_behind(databank)
    assert plan.sparql_queries == executed.sparql_queries
    assert plan.rewritten_sql == executed.executed_sql
    assert [stage.name for stage in plan.stages
            if stage.name in ("extract", "rewrite", "sql", "combine")] \
        == (["extract"] * len(executed.enriched.where_enrichments())
            + ["rewrite"] * bool(executed.enriched.where_enrichments())
            + ["sql"]
            + ["extract"] * len(executed.enriched.select_enrichments())
            + ["combine"] * bool(executed.enriched.select_enrichments()))

    # Operator row counts are compared in the same view-cache state: a
    # cold federated execute ships *filtered* views (pushdown) and scans
    # fewer rows than any query after the streams above cached the full
    # views (MediatedDatabank.explain ships exactly as execute does).
    analyzed = session.explain(text, analyze=True)
    assert_nothing_left_behind(databank)
    again = session.execute(text)
    assert again.rows == executed.rows
    assert [(node.kind, node.actual_rows)
            for node in analyzed.db_plan.root.walk()] \
        == [(node.kind, node.actual_rows)
            for node in again.db_plan.walk()]


PARAMETERISED = [
    ("SELECT name, city FROM landfill WHERE opened_year >= ? "
     "ORDER BY name ENRICH SCHEMAREPLACEMENT(city, inCountry)", [1990]),
    ("SELECT landfill_name, COUNT(*) AS hazards FROM elem_contained "
     "WHERE ${elem_name = HazardousWaste:cond1} AND amount > ? "
     "GROUP BY landfill_name ORDER BY hazards DESC, landfill_name "
     "ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)", [1.0]),
    ("SELECT elem_name, landfill_name FROM elem_contained "
     "WHERE ${elem_name = ? : c1} ORDER BY elem_name, landfill_name "
     "ENRICH REPLACEVARIABLE(c1, elem_name, dangerLevel)", ["high"]),
    ("SELECT name FROM landfill WHERE area_m2 > ? ORDER BY name LIMIT ?",
     [50000.0, 3]),
]


@pytest.mark.parametrize("federated", [False, True],
                         ids=["plain", "federated"])
@pytest.mark.parametrize("dataset, text, params", [
    pytest.param(*param.values, None, id=param.id) for param in STATEMENTS
] + [pytest.param("smartground", text, params, id=f"parameterised-{index}")
     for index, (text, params) in enumerate(PARAMETERISED)])
def test_the_template_is_never_copied_or_written(connect, dataset, text,
                                                 params, federated,
                                                 monkeypatch):
    """A cached template is read by every drain and written by none:
    it equals its snapshot from prepare time afterwards, and no drain
    deep-copies anything to get there."""
    session = connect(dataset, federated)
    prepared = session.prepare(text)
    assert prepared.parameter_count == len(params or ())
    snapshot = copy.deepcopy(prepared._template)
    copies = []
    real_deepcopy = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy", lambda *args, **kwargs: (
        copies.append(args[0]) or real_deepcopy(*args, **kwargs)))
    executed = prepared.execute(params)
    assert list(prepared.stream(params)) == executed.rows
    prepared.explain(params)
    prepared.explain(params, analyze=True)
    assert copies == []
    assert prepared._template == snapshot
    assert_nothing_left_behind(session.databank)


WHERE_SIDE = [param for param in STATEMENTS
              if "REPLACECONSTANT(" in param.values[1]
              or "REPLACEVARIABLE(" in param.values[1]]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "recalled"])
@pytest.mark.parametrize("federated", [False, True],
                         ids=["plain", "federated"])
@pytest.mark.parametrize("dataset, text", WHERE_SIDE)
def test_the_where_side_rewrite_runs_as_a_semi_join(connect, dataset, text,
                                                    federated, warm):
    """Examples 4.5 / 4.6: the rewritten predicate over the extraction
    temp table is an operator of the explained tree, not a fallback —
    also when an earlier execute left the rewritten statement to recall."""
    assert len(WHERE_SIDE) >= 5
    session = connect(dataset, federated)
    if warm:
        session.execute(text)
    analyzed = session.explain(text, analyze=True)
    assert [stage.cached for stage in analyzed.stages
            if stage.name == "rewrite"] == [warm]
    kinds = [node.kind for node in analyzed.db_plan.root.walk()]
    assert "semi-join" in kinds
    assert "subquery predicate" not in analyzed.db_plan.format()
    executed = session.execute(text)
    assert "semi-join" in [node.kind for node in executed.db_plan.walk()]


@pytest.mark.parametrize("include_original", [False, True],
                         ids=["replaced", "original-kept"])
def test_every_reference_of_a_replaced_variable_is_bound(
        connect, include_original, monkeypatch):
    """Example 4.6 with its original predicate kept writes the tagged
    condition both inside the EXISTS it builds (outer references there)
    and beside it: each place has nodes of its own, so every reference
    of the statement the databank runs binds — with the planner off."""
    (dataset, text), = [param.values for param in STATEMENTS
                        if param.id == "ex4.6-replace-variable"]
    session = connect(dataset, False, include_original)
    databank = session.databank
    ran = []
    execute_ast = databank.execute_ast
    monkeypatch.setattr(databank, "planner", PlannerOptions(enabled=False))
    monkeypatch.setattr(databank, "execute_ast", lambda stmt, params=None,
                        views=None: ran.append((stmt, views))
                        or execute_ast(stmt, params, views))
    assert session.execute(text).rows
    (statement, views), = ran
    bound = bind(statement, databank._catalog(views)[0])
    references = [node for node in sql_ast.iter_query_nodes(statement)
                  if isinstance(node, sql_ast.ColumnRef)]
    assert references and bound.errors == []
    assert [node.display() for node in references
            if bound.ref(node) is None] == []


# -- the run owns cleanup, whichever drain fails ----------------------------------

BAD_ATTRIBUTE = "SELECT name FROM landfill ENRICH SCHEMAEXTENSION(nope, p)"


def _insert_from_a_second_thread(databank) -> threading.Thread:
    writer = threading.Thread(
        target=databank.execute,
        args=("INSERT INTO landfill VALUES ('z', 'Oslo')",), daemon=True)
    writer.start()
    writer.join(3.0)
    return writer


def test_failed_stream_releases_the_read_lock_core(paper_engine):  # noqa
    """The stream drain opens the databank cursor (read lock, taken
    eagerly) before SELECT extraction and the empty-page probe; an
    error there must not leave the lock to the traceback's lifetime."""
    with pytest.raises(EnrichmentError) as held:  # keeps the traceback
        paper_engine.stream(BAD_ATTRIBUTE)
    writer = _insert_from_a_second_thread(paper_engine.databank)
    assert not writer.is_alive(), "the failed stream kept the read lock"
    assert held.value is not None


def test_failed_stream_releases_the_read_lock_session(paper_engine):  # noqa
    session = repro.connect(paper_engine)
    with pytest.raises(EnrichmentError) as held:
        session.stream(BAD_ATTRIBUTE)
    writer = _insert_from_a_second_thread(session.databank)
    assert not writer.is_alive(), "the failed stream kept the read lock"
    assert held.value is not None
    assert_nothing_left_behind(session.databank)


# -- the mediator: explain renders the ship plan execute carries out -------------

MEDIATED_SQL = list(SQL_BASELINES.values()) + [
    "SELECT name FROM landfill WHERE area_m2 > 50000 AND city <> 'x'",
    "SELECT l.name, e.elem_name FROM landfill AS l JOIN elem_contained "
    "AS e ON e.landfill_name = l.name WHERE e.amount > 5.0",
]


def star_fragments(table: str, _columns: list[str]) -> list:
    return [("north", f"SELECT * FROM {table}"),
            ("south", f"SELECT * FROM {table} WHERE 1 = 0")]


def explicit_fragments(table: str, columns: list[str]) -> list:
    """A filter merges into north, wraps around the LIMIT of east, and
    meets south's constant first TEXT column as literals."""
    listed = ", ".join(columns)
    constant = ", ".join(f"'lf0001' AS {name}" if index == 0 else name
                         for index, name in enumerate(columns))
    return [("north", f"SELECT {listed} FROM {table}"),
            ("south", f"SELECT {constant} FROM {table}"),
            ("east", f"SELECT {listed} FROM {table} LIMIT 1000")]


def explained(plan) -> tuple[list, list]:
    """explain's shipped ``(source, SQL)`` and eliminated ``(view,
    source)`` lists."""
    shipped, eliminated = [], []
    for stage in plan.stages:
        if stage.name == "materialize" and not stage.cached:
            shipped.extend(tuple(line.split(" <- ", 1)[1].split(": ", 1))
                           for line in stage.queries)
        elif stage.name == "eliminate":
            eliminated.extend(
                (ast.literal_eval(view), source) for view, source
                in (line.split(" <- ") for line in stage.queries))
    return shipped, eliminated


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("sql", MEDIATED_SQL)
def test_mediator_explain_names_what_execute_ships(smartground, sql,
                                                   pushdown):
    databank, _kb, _registry = smartground
    for fragments in (star_fragments, explicit_fragments):
        mediator = Mediator()
        for source in ("north", "south", "east"):
            mediator.register_source(source, databank)
        for table in databank.table_names():
            columns = [column.name for column in sorted(
                databank.catalog.table(table).schema.columns,
                key=lambda column: column.data_type.name != "TEXT")]
            mediator.define_view(table, fragments(table, columns), "union")
        for warm in (False, True):
            session = mediator.connect()
            if warm:
                session.query("SELECT COUNT(*) FROM landfill")
            plan = session.explain(sql, pushdown=pushdown)
            _result, report = session.execute(sql, pushdown=pushdown)

            prune, *_materialize, _sql_stage = plan.stages
            assert prune.queries == [", ".join(report.view_costs) or "(none)"]
            cached = [stage for stage in plan.stages if stage.cached]
            assert plan.cache_hits == len(cached)
            assert plan.cache_misses == len(report.view_rows) - len(cached)
            # Same sources, same statements, in the same order; the
            # same fragments eliminated.
            assert explained(plan) == (report.sub_queries, report.eliminated)
            shipped = {}
            for line in [line for stage in plan.stages
                         if stage.name == "materialize"
                         for line in stage.queries]:
                label, fragment = line.split(" <- ", 1)
                view = label.split("'")[1]
                source, text = fragment.split(": ", 1)
                shipped[view, source] = text
                pushed = report.pushed_filters.get(view)
                assert (f"pushdown [{pushed}]" in label) == (pushed is not None)
            if not pushdown:
                assert report.pushed_filters == {}
                assert report.eliminated == []
            elif fragments is explicit_fragments:
                # The matrix runs merge, non-merge and elimination.
                for view in report.pushed_filters:
                    assert "(SELECT" not in shipped[view, "north"]
                    assert shipped[view, "east"].startswith("SELECT * FROM (")
                if "landfill_name = 'lf0000'" in sql:
                    assert report.eliminated == [("elem_contained", "south")]
