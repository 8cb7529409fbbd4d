"""Cost-based planner: statistics, estimation, rewrites, join ordering,
EXPLAIN (ANALYZE) and the index/NULL equality-key regressions."""

from __future__ import annotations

import pytest

from repro.planner import (PlannerOptions, StatisticsCatalog, plan_select)
from repro.planner.cost import CostModel, JoinChoice
from repro.planner.estimate import (equality_selectivity,
                                    range_selectivity)
from repro.planner.rewrite import fold_expr
from repro.relational import Database, ast
from repro.relational.ast import Literal
from repro.relational.parser import parse_expr, parse_sql
from repro.relational.render import render_expr, render_query
from repro.relational.types import sql_key, values_equal

ON = PlannerOptions()
OFF = PlannerOptions(enabled=False)


def make_db(planner: PlannerOptions = ON) -> Database:
    db = Database(planner=planner)
    db.execute_script("""
        CREATE TABLE fact (id INTEGER PRIMARY KEY, mid_id INTEGER,
                           amount REAL);
        CREATE TABLE mid (id INTEGER PRIMARY KEY, dim_id INTEGER);
        CREATE TABLE dim (id INTEGER PRIMARY KEY, kind TEXT);
        CREATE INDEX idx_fact_mid ON fact (mid_id);
    """)
    for i in range(300):
        db.table("fact").insert_row(
            {"id": i, "mid_id": i % 30, "amount": float(i % 7)})
    for i in range(30):
        db.table("mid").insert_row({"id": i, "dim_id": i % 6})
    for i in range(6):
        db.table("dim").insert_row(
            {"id": i, "kind": "rare" if i == 0 else "common"})
    return db


SKEWED = ("SELECT fact.id FROM fact "
          "JOIN mid ON fact.mid_id = mid.id "
          "JOIN dim ON mid.dim_id = dim.id "
          "WHERE dim.kind = 'rare'")


# -- equality-key regressions (index vs executor semantics) -----------------


def test_sql_key_is_exact_beyond_float_precision():
    big = 2 ** 53
    assert sql_key(big) != sql_key(big + 1)
    assert values_equal(big, big + 1) is False
    assert values_equal(big, float(big)) is True
    assert sql_key(big) == sql_key(float(big))


def test_sql_key_null_and_type_families():
    assert sql_key(None) is None            # NULL is its own key
    assert sql_key(None) != sql_key(0)
    assert sql_key(True) != sql_key(1)      # 1 = TRUE is false in SQL
    assert sql_key(1) == sql_key(1.0)


def test_index_lookup_agrees_with_equality_for_big_integers():
    db = Database(planner=OFF)
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    db.execute("CREATE INDEX idx_k ON t (k)")
    big = 2 ** 53
    db.execute(f"INSERT INTO t VALUES ({big}, 'a'), ({big + 1}, 'b')")
    # The single-table index fast path must not collapse the two keys.
    assert db.query(f"SELECT v FROM t WHERE k = {big}").rows == [("a",)]
    assert db.query(f"SELECT v FROM t WHERE k = {big + 1}").rows \
        == [("b",)]


def test_index_skips_null_keys_and_mixed_numerics(forced_joins):
    """An index join over a REAL column finds its ``1.0`` under the
    outer keys ``1`` and ``1.0``, and nothing under NULL."""
    db = Database(planner=OFF)
    db.execute_script("""
        CREATE TABLE t (k REAL, v TEXT);
        INSERT INTO t VALUES (1.0, 'one'), (NULL, 'null');
        CREATE TABLE o (i INTEGER, r REAL);
        INSERT INTO o VALUES (1, 1.0), (NULL, NULL);
    """)
    for key in ("i", "r"):
        sql = f"SELECT o.{key}, t.v FROM o LEFT JOIN t ON t.k = o.{key}"
        probed = forced_joins(parse_sql(sql), "index-join")
        kinds = {node.kind for node in db.explain(probed).root.walk()}
        assert "index-join" in kinds
        assert db.query(probed).rows == [(1, "one"), (None, None)]
    assert db.query("SELECT v FROM t WHERE k = 1").rows == [("one",)]


# -- statistics catalog ------------------------------------------------------


def test_analyze_collects_counts_distinct_minmax_histogram():
    db = make_db()
    (stats,) = db.analyze("fact")
    assert stats.row_count == 300
    column = stats.column("mid_id")
    assert column.distinct == 30
    assert column.min_value == 0 and column.max_value == 29
    assert column.histogram is not None
    assert column.histogram.total == 300


def test_stats_maintained_incrementally_on_dml():
    db = make_db()
    db.execute("ANALYZE dim")
    stats = db.stats.get("dim")
    assert stats.row_count == 6
    db.execute("INSERT INTO dim VALUES (99, 'new-kind')")
    assert stats.row_count == 7
    assert stats.column("id").max_value == 99
    db.execute("DELETE FROM dim WHERE id = 99")
    assert stats.row_count == 6
    db.execute("DROP TABLE dim")
    assert db.stats.get("dim") is None


def test_analyze_statement_covers_all_tables():
    db = make_db()
    db.execute("ANALYZE")
    assert set(name.lower() for name in db.stats.table_names()) \
        == {"fact", "mid", "dim"}


# -- estimation --------------------------------------------------------------


def test_equality_and_range_selectivity_use_stats():
    db = make_db()
    db.analyze()
    column = db.stats.get("fact").column("mid_id")
    eq = equality_selectivity(column, 3)
    assert 0.01 <= eq <= 0.1          # ~1/30
    assert equality_selectivity(column, 10_000) <= 0.001  # out of range
    low = range_selectivity(column, "<", 3)
    high = range_selectivity(column, "<", 27)
    assert low < high <= 1.0


# -- logical rewrites --------------------------------------------------------


def test_constant_folding_simplifies_literal_math_and_booleans():
    assert fold_expr(parse_expr("1 + 2 * 3")) == Literal(7)
    assert fold_expr(parse_expr("1 = 1 AND 2 > 3")) == Literal(False)
    assert fold_expr(parse_expr("FALSE AND a = 1")) == Literal(False)
    assert fold_expr(parse_expr("TRUE AND a = 1")) == parse_expr("a = 1")
    # Runtime errors must not be hoisted to plan time.
    assert render_expr(fold_expr(parse_expr("1 / 0"))) == "(1 / 0)"


@pytest.mark.parametrize("query", [
    "SELECT x + -3, COUNT(*) FROM t GROUP BY x + -3 ORDER BY x + -3",
    "SELECT x * (1 + 1) AS y FROM t GROUP BY x * (1 + 1) ORDER BY 1",
    "SELECT x FROM t GROUP BY x, 1 + 0 ORDER BY 2 - 1",
])
def test_group_and_order_terms_fold_as_the_select_items_do(query):
    """The planner folds the select list; a GROUP BY / ORDER BY term
    that matches an item must fold with it, and one that folds to a
    literal stays as written (a literal term is an ordinal)."""
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (2)")
    planned = db.explain(query)
    assert list(planned.root.collect().tuples()) \
        == db.execute_ast(parse_sql(query)).rows


def test_predicate_pushdown_moves_filter_below_join():
    db = make_db()
    db.analyze()
    planned = db.explain(SKEWED)
    rendered = render_query(planned.query)
    assert "SELECT" in rendered
    # The dim filter became a derived-table wrapper under the join.
    assert "(SELECT" in rendered and "WHERE (dim.kind = 'rare')" in rendered
    kinds = [node.kind for node in planned.root.walk()]
    assert "filter" in kinds


def test_join_reorder_starts_from_the_selective_relation():
    db = make_db()
    db.analyze()
    planned = db.explain(SKEWED)
    assert planned.reordered
    note = next(note for note in planned.notes
                if note.startswith("join order"))
    # fact (10x larger) must not be the driving relation any more.
    assert not note.startswith("join order: fact")


def test_planned_and_unplanned_results_agree_on_the_skewed_join():
    on = make_db(ON)
    on.analyze()
    off = make_db(OFF)
    assert sorted(on.query(SKEWED).rows) == sorted(off.query(SKEWED).rows)


def test_left_join_is_not_reordered_and_null_side_not_pushed():
    # IS NULL over the nullable side is exactly the predicate an unsafe
    # pushdown would corrupt (filtered rows would turn into padding).
    sql = ("SELECT dim.id, mid.id FROM dim "
           "LEFT JOIN mid ON dim.id = mid.dim_id AND mid.id > 20 "
           "WHERE mid.id IS NULL")
    results = []
    for options in (ON, OFF):
        db = make_db(options)
        db.analyze()
        results.append(sorted(db.query(sql).rows))
    assert results[0] == results[1]


def test_star_select_column_order_survives_reordering():
    on = make_db(ON)
    on.analyze()
    off = make_db(OFF)
    sql = ("SELECT * FROM fact JOIN mid ON fact.mid_id = mid.id "
           "JOIN dim ON mid.dim_id = dim.id WHERE dim.kind = 'rare'")
    a, b = on.query(sql), off.query(sql)
    assert a.columns == b.columns
    assert sorted(a.rows) == sorted(b.rows)


def test_projection_pruning_narrows_derived_tables():
    db = make_db()
    planned = db.explain(
        "SELECT s.id FROM (SELECT id, amount, mid_id FROM fact) AS s "
        "JOIN mid ON s.mid_id = mid.id")
    rendered = render_query(planned.query)
    assert "amount" not in rendered


# -- physical join strategies ------------------------------------------------


def test_equi_join_probes_inner_index():
    db = make_db()
    db.analyze()
    planned = db.explain(SKEWED, analyze=True)
    kinds = {node.kind for node in planned.root.walk()}
    assert "index-join" in kinds
    # The probed side is never scanned: its scan counter stays unset.
    fact_scan = next(node for node in planned.root.walk()
                     if node.kind == "scan" and "fact" in node.label)
    assert fact_scan.detail == "probe mid_id"
    assert fact_scan.actual_rows is None


def test_an_index_join_pays_for_the_lookup_it_builds():
    """One ``fact`` row joins the 30 unique ``mid.id`` s: building their
    lookup (a key each) costs more than hashing ``mid``, so the join
    hashes until an ``=`` read has built it, and probes after."""
    db = make_db()
    db.analyze()
    sql = ("SELECT fact.amount, mid.dim_id FROM fact "
           "JOIN mid ON fact.mid_id = mid.id WHERE fact.id = 5")

    def kinds() -> set[str]:
        return {node.kind for node in db.explain(sql).root.walk()}
    assert "index-join" not in kinds()
    assert db.query("SELECT dim_id FROM mid WHERE id = 3").rows == [(3,)]
    assert "index-join" in kinds()
    assert db.query(sql).rows == [(5.0, 5)]


def test_index_probe_join_matches_hash_join_results():
    with_probe = make_db(ON)
    with_probe.analyze()
    with_probe.query("SELECT id FROM fact WHERE mid_id = 3")
    no_probe = make_db(OFF)
    no_probe.analyze()
    sql = ("SELECT fact.id, mid.dim_id FROM mid "
           "JOIN fact ON fact.mid_id = mid.id WHERE mid.dim_id = 2")
    probed = with_probe.query(sql)
    assert "index-join" in {node.kind for node in probed.plan.walk()}
    assert sorted(probed.rows) == sorted(no_probe.query(sql).rows)


def test_left_join_with_index_probe_pads_unmatched_rows():
    db = Database(planner=ON)
    db.execute_script("""
        CREATE TABLE big (k INTEGER, v INTEGER);
        CREATE TABLE probe_left (k INTEGER);
    """)
    for i in range(200):
        db.table("big").insert_row({"k": i % 100, "v": i})
    for k in (1, 2, 999):
        db.table("probe_left").insert_row({"k": k})
    db.query("SELECT v FROM big WHERE k = 1")     # builds k's lookup
    result = db.query(
        "SELECT probe_left.k, big.v FROM probe_left "
        "LEFT JOIN big ON probe_left.k = big.k")
    assert "index-join" in {node.kind for node in result.plan.walk()}
    rows = result.rows
    assert (999, None) in rows
    assert len([row for row in rows if row[0] == 1]) == 2


@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
@pytest.mark.parametrize("strategy", ["hash-join", "index-join"])
def test_every_equi_join_runs_the_strategy_choose_join_picks(
        monkeypatch, join, strategy):
    """Reordered (INNER) or kept as written (LEFT), a join runs what
    ``CostModel.choose_join`` picks, offered a probe of any unfiltered
    table column — no declared index, no lookup built — and the planner
    off, it hash-joins."""
    offered = []

    def choose_join(model, left_rows, inner, out_rows):
        offered.append(inner.lookup)
        return JoinChoice(
            "hash-join" if inner.lookup is None else strategy, 0.0)
    monkeypatch.setattr(CostModel, "choose_join", choose_join)
    db = Database(planner=ON)
    db.execute_script("""
        CREATE TABLE o (x INTEGER);
        INSERT INTO o VALUES (1), (2), (3);
        CREATE TABLE t (k INTEGER, v TEXT);
        INSERT INTO t VALUES (1, 'a'), (3, 'c'), (3, 'd'), (4, 'e');
    """)
    sql = f"SELECT o.x, t.v FROM o {join} t ON t.k = o.x ORDER BY o.x, t.v"
    result = db.query(sql)
    assert (4.0, 4.0) in offered         # every row and key to build
    kinds = [node.kind for node in result.plan.walk()]
    assert strategy in kinds and len([k for k in kinds
                                      if k.endswith("-join")]) == 1
    db.planner = OFF
    unplanned = db.query(sql)
    assert "hash-join" in [node.kind for node in unplanned.plan.walk()]
    assert result.rows == unplanned.rows == (
        [(1, "a"), (2, None), (3, "c"), (3, "d")] if join == "LEFT JOIN"
        else [(1, "a"), (3, "c"), (3, "d")])


# -- EXPLAIN (ANALYZE) -------------------------------------------------------


def test_explain_analyze_reports_estimated_and_actual_rows():
    db = make_db()
    db.analyze()
    planned = db.explain(SKEWED, analyze=True)
    operators = list(planned.root.walk())
    with_both = [node for node in operators
                 if node.est_rows is not None
                 and node.actual_rows is not None]
    assert len(with_both) >= 3
    formatted = planned.format()
    assert "est=" in formatted and "actual=" in formatted


def test_explain_without_analyze_runs_nothing():
    db = make_db()
    db.analyze()
    planned = db.explain(SKEWED)
    assert all(node.actual_rows is None
               for node in planned.root.walk())


def test_plain_execution_returns_the_tree_that_ran():
    # Counters are per batch, so every execution carries them — the
    # result's plan is the same tree EXPLAIN ANALYZE would show.
    db = make_db()
    result = db.query(SKEWED)
    joins = [node for node in result.plan.walk()
             if node.kind.endswith("-join")]
    assert joins and all(node.actual_rows is not None for node in joins)
    assert result.plan.kind == "result"
    assert result.plan.actual_rows == len(result.rows)


def test_explain_requires_a_select():
    db = make_db()
    with pytest.raises(Exception):
        db.explain("DELETE FROM dim")


def test_planner_failure_raises(monkeypatch):
    db = make_db()
    import repro.planner.plan as plan_module

    def boom(*args, **kwargs):
        raise RuntimeError("injected planner bug")
    monkeypatch.setattr(plan_module, "_plan_query", boom)
    with pytest.raises(RuntimeError, match="injected planner bug"):
        db.query(SKEWED)


def test_a_column_node_written_at_two_levels_keeps_each_meaning():
    """A statement built by program may place one ColumnRef node both
    in a subquery (correlated, an outer column) and in the outer WHERE:
    the subquery's join conjunct over it must not be planned as if the
    node named a column of the subquery's own FROM."""
    dbs = [make_db(ON), make_db(OFF)]
    for db in dbs:
        db.execute_script("""
            CREATE TABLE ta (x INTEGER, y INTEGER);
            CREATE TABLE tb (x INTEGER, y INTEGER);
            CREATE TABLE tc (x INTEGER, y INTEGER);
            INSERT INTO ta VALUES (1, 1), (2, 2), (3, 5);
            INSERT INTO tb VALUES (1, 0), (2, 0);
            INSERT INTO tc VALUES (1, 1), (2, 7);
        """)
    shared = ast.ColumnRef("y", "ta")
    inner = parse_sql("SELECT 1 FROM tb JOIN tc ON tb.x = tc.x")
    inner.core.where = ast.BinaryOp("=", ast.ColumnRef("y", "tc"), shared)
    query = parse_sql("SELECT ta.x FROM ta")
    query.core.where = ast.BinaryOp(
        "AND", ast.Exists(inner), ast.BinaryOp(">", shared, Literal(0)))
    assert [db.query(query).rows for db in dbs] == [[(1,)], [(1,)]]


def test_star_over_a_derived_table_keeps_its_column_spelling():
    sql = ("SELECT * FROM (SELECT A, b AS Bee FROM t) AS d "
           "JOIN u ON d.a = u.a")
    headers = []
    for options in (ON, OFF):
        db = Database(planner=options)
        db.execute_script("""
            CREATE TABLE t (a INTEGER, b INTEGER);
            CREATE TABLE u (a INTEGER);
            INSERT INTO t VALUES (1, 2);
            INSERT INTO u VALUES (1);
        """)
        headers.append(db.query(sql).columns)
    assert headers == [["A", "Bee", "a"]] * 2


# -- session explain surfaces the databank plan ------------------------------


def test_session_explain_includes_db_operators():
    import repro

    db = make_db()
    db.analyze()
    session = repro.connect(db)
    plan = session.explain("SELECT fact.id FROM fact "
                           "JOIN mid ON fact.mid_id = mid.id "
                           "WHERE mid.dim_id = 1", analyze=True)
    assert plan.db_plan is not None
    assert any(node.actual_rows is not None for node in plan.operators())
    assert "databank operators" in plan.format()


def test_parse_sql_supports_analyze_statement():
    stmt = parse_sql("ANALYZE fact")
    from repro.relational.ast import AnalyzeStmt
    assert stmt == AnalyzeStmt("fact")
    assert parse_sql("ANALYZE") == AnalyzeStmt(None)


def test_an_index_join_over_a_sorted_index_tells_integers_beyond_2_53_apart(
        forced_joins):
    # Float keys would collapse ints beyond 2**53: the index join must
    # return only the exactly equal row.
    db = Database(planner=OFF)
    db.execute_script("""
        CREATE TABLE t (id INTEGER);
        CREATE INDEX ix_t ON t (id) USING sorted;
        CREATE TABLE u (id INTEGER);
    """)
    big = 2 ** 53
    for i in range(70):
        db.table("t").insert_row({"id": i})
    db.table("t").insert_row({"id": big})
    db.table("t").insert_row({"id": big + 1})
    db.table("u").insert_row({"id": big + 1})
    result = db.query(forced_joins(
        parse_sql("SELECT t.id FROM u JOIN t ON u.id = t.id"), "index-join"))
    assert "probe id" in result.plan.format()
    assert result.rows == [(big + 1,)]


def test_unplanned_results_carry_a_tree_without_estimates():
    db = make_db()
    db.analyze()
    assert any(node.est_rows is not None
               for node in db.query(SKEWED).plan.walk())
    db.planner = db.planner.replace(enabled=False)
    unplanned = db.query(SKEWED).plan
    assert all(node.est_rows is None for node in unplanned.walk())
    # The written order, built as is: with no hint, every join hashes.
    assert [node.kind for node in unplanned.walk()].count("hash-join") == 2


# -- the planner's private copy is a structural clone ------------------------------


def _select_corpus() -> list:
    """Every SELECT (plain or the SQL part of a SESQL statement) that
    appears as a string literal in ``tests/`` or ships with
    ``repro.smartground``."""
    import ast as python_ast
    from pathlib import Path

    from repro.core import SemanticQueryParser
    from repro.relational import ast
    from repro.smartground import SQL_BASELINES, WORKLOAD

    texts = list(SQL_BASELINES.values()) + [q.sesql for q in WORKLOAD]
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        texts += [node.value
                  for node in python_ast.walk(
                      python_ast.parse(path.read_text()))
                  if isinstance(node, python_ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.lstrip().upper().startswith("SELECT")]
    queries = []
    for text in dict.fromkeys(texts):
        for parse in (parse_sql,
                      lambda text: SemanticQueryParser().parse(text).query):
            try:
                query = parse(text)
            except Exception:
                continue  # a fragment, or deliberately malformed
            if isinstance(query, ast.SelectQuery):
                queries.append(query)
            break
    return queries


def _mutable_parts(node, found: dict) -> dict:
    """id -> object for everything under *node* a rewrite may assign
    to: dataclass nodes (but not the shared leaves), lists, hints."""
    import dataclasses

    from repro.relational import ast
    if isinstance(node, (list, tuple)):
        if isinstance(node, list):
            found[id(node)] = node
        for item in node:
            _mutable_parts(item, found)
    elif dataclasses.is_dataclass(node) and not isinstance(
            node, (ast.Literal, ast.ColumnRef, ast.Star, ast.SlotRef,
                   ast.Param)):
        found[id(node)] = node
        for field in dataclasses.fields(node):
            _mutable_parts(getattr(node, field.name), found)
    return found


def test_clone_query_is_equal_and_shares_no_mutable_node():
    from repro.relational.ast import clone_query
    corpus = _select_corpus()
    assert len(corpus) > 300
    subqueries = 0
    for query in corpus:
        clone = clone_query(query)
        assert clone == query and clone is not query
        assert render_query(clone) == render_query(query)
        mine, theirs = _mutable_parts(query, {}), _mutable_parts(clone, {})
        assert len(mine) == len(theirs) and not set(mine) & set(theirs)
        subqueries += "(SELECT" in render_query(query)
    assert subqueries > 30


def test_clone_query_copies_the_planners_hints():
    """Hints do not take part in ``==``: compare them one by one."""
    from repro.relational.ast import PlanHint, clone_query
    db = Database()
    db.execute("CREATE TABLE e (z INTEGER, t TEXT)")
    db.execute("CREATE TABLE b (y INTEGER, f TEXT)")
    planned = db.explain(
        "SELECT e.z FROM e JOIN b ON e.z = b.y WHERE e.t = 'a' AND e.z IN "
        "(SELECT y FROM b) AND NOT EXISTS (SELECT 1 FROM b WHERE b.y = e.z)")
    clone = clone_query(planned.query)
    hints = [[part for part in _mutable_parts(query, {}).values()
              if isinstance(part, PlanHint)]
             for query in (planned.query, clone)]
    assert len(hints[0]) >= 5 and hints[0] == hints[1]
    assert all(a is not b for a, b in zip(*hints))


def test_semi_joins_are_estimated_where_the_selector_takes_them():
    """One classifier (``vectors.semi_join``) for the builder and the
    planner: a hint sits on what becomes a join — unqualified names
    included — and on nothing the selector's shape test declines; the
    filter is estimated first, the joins over it."""
    from repro.relational import ast
    from repro.relational.vectors import semi_join_conjunct
    db = Database()
    db.execute_script("""
        CREATE TABLE e (z INTEGER, t TEXT);
        CREATE TABLE b (y INTEGER, f TEXT);
        INSERT INTO e VALUES (1, 'a'), (2, 'b'), (NULL, 'c'), (4, 'd');
        INSERT INTO b VALUES (1, 'x'), (4, 'd'), (5, NULL);
        ANALYZE;
    """)
    planned = db.explain(
        "SELECT z FROM e WHERE z IN (SELECT y FROM b) AND t <> 'a' "
        "AND EXISTS (SELECT 1 FROM b WHERE b.y = e.z LIMIT 1) "
        "AND EXISTS (SELECT 1 FROM b WHERE y = z)")
    hinted = [semi_join_conjunct(part)[0].hint is not None
              for part in ast.conjuncts(planned.query.core.where)
              if semi_join_conjunct(part)[0] is not None]
    assert hinted == [True, False, True]
    chain = [(node.kind, node.est_rows) for node in planned.root.walk()
             if node.kind in ("filter", "semi-join")][:4]
    assert [kind for kind, _est in chain] \
        == ["semi-join", "filter", "semi-join", "filter"]
    estimates = [est for _kind, est in chain]
    assert None not in estimates and estimates == sorted(estimates)


def test_a_core_aggregates_by_the_binds_rule_in_its_estimate():
    """An aggregate call in the select list or ORDER BY makes a core one
    group, as the bind says (``Binding.grouped``), so it is estimated at
    one row — alone, and as a derived table a join reads."""
    from repro.planner.joins import estimate_query_rows
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER)")
    db.insert_rows("t", ({"x": n % 50} for n in range(1000)))
    db.execute("ANALYZE")
    for sql in ("SELECT COUNT(*) FROM t", "SELECT 1 FROM t ORDER BY SUM(x)"):
        assert estimate_query_rows(parse_sql(sql), db.catalog,
                                   db.stats) == 1.0
    assert estimate_query_rows(parse_sql("SELECT x FROM t"), db.catalog,
                               db.stats) == 1000.0
    planned = db.explain("SELECT d.n FROM (SELECT COUNT(*) AS n FROM t) "
                         "AS d JOIN t ON t.x = d.n")
    estimates = {node.kind: node.est_rows for node in planned.root.walk()}
    assert estimates["derived"] == 1.0
    assert planned.root.est_rows == 20.0
