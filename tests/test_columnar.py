"""Columnar table storage + vectorized batch execution.

Covers the columnar ``Table`` rewrite (stable row ids over typed column
vectors, deleted bitmap, compaction, truncate via the public index
``clear()``), the operators' specialised column kernels and their
generic fallback (observable through ``ResultSet.plan.vectorized_ops``;
the ``generic_kernels`` fixture is the all-generic reference), the
vectorized marks in EXPLAIN, the batch-execution telemetry instruments,
and a durability regression: a columnar table survives snapshot + WAL
replay with exact generation stamps.

The randomized kernel-vs-generic equivalence suite lives in
``test_columnar_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.crosse import CrossePlatform
from repro.federation import CrosseRestService
from repro.durability import (DurabilityManager, DurabilityOptions,
                              database_state, state_digest)
from repro.planner import PlannerOptions
from repro.relational import Database
from repro.relational.errors import ConstraintViolation, TypeMismatchError
from repro.relational.indexes import HashIndex
from repro.relational.table import (COMPACT_MIN_DELETED, Table)
from repro.relational.vectors import ColumnVector
from repro.relational.schema import DataType
from repro.telemetry import Telemetry, TelemetryOptions


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, k TEXT, v REAL, b BOOLEAN)")
    db.insert_rows("t", ({"id": i, "k": f"k{i % 5}", "v": float(i),
                          "b": i % 2 == 0}
                         for i in range(100)))
    return db


# -- columnar storage ---------------------------------------------------------


class TestColumnarStorage:
    def test_column_vector_tracks_nulls(self):
        vector = ColumnVector(DataType.INTEGER)
        vector.extend((1, None))
        vector.extend([3, None])
        assert vector.values == [1, None, 3, None]
        assert vector.null_count == 2
        vector.set(1, 7)
        assert vector.null_count == 1
        vector.set(2, None)
        assert vector.null_count == 2
        assert len(vector) == 4

    def test_row_ids_stable_across_deletes(self):
        db = make_db()
        table = db.catalog.table("t")
        keep_id = next(rid for rid, row in table.rows_with_ids()
                       if row[0] == 42)
        db.execute("DELETE FROM t WHERE id < 42")
        assert table.row(keep_id)[0] == 42
        assert len(table) == 58
        assert [row[0] for row in table.rows()] == list(range(42, 100))

    def test_compaction_preserves_rows_ids_and_indexes(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.insert_rows("t", ({"id": i, "v": float(i)}
                             for i in range(400)))
        table = db.catalog.table("t")
        survivors = {rid: row for rid, row in table.rows_with_ids()
                     if row[0] % 3 == 0}
        deleted = db.execute("DELETE FROM t WHERE id % 3 <> 0")
        assert deleted > COMPACT_MIN_DELETED  # compaction definitely ran
        assert len(table) == len(survivors)
        for rid, row in survivors.items():
            assert table.row(rid) == row
        # Point probes and range scans go through the rebuilt indexes.
        assert db.query("SELECT v FROM t WHERE id = 100").rows == []
        assert db.query("SELECT v FROM t WHERE id = 99").rows == [(99.0,)]
        rows = db.query("SELECT id FROM t WHERE v >= 390.0").rows
        assert sorted(rows) == [(390,), (393,), (396,), (399,)]

    def test_update_after_compaction(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v REAL)")
        db.insert_rows("t", ({"id": i, "v": 0.0} for i in range(300)))
        db.execute("DELETE FROM t WHERE id >= 100")
        assert db.execute("UPDATE t SET v = 5.5 WHERE id = 50") == 1
        assert db.query("SELECT v FROM t WHERE id = 50").rows == [(5.5,)]

    def test_truncate_keeps_index_definitions_and_row_id_watermark(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
        table = db.catalog.table("t")
        first = table.insert_row({"id": 1, "v": 1.0})
        db.execute("DELETE FROM t")     # truncate fast path
        assert len(table) == 0
        second = table.insert_row({"id": 1, "v": 2.0})  # PK free again
        assert second > first           # ids are never reused
        assert db.query("SELECT v FROM t WHERE id = 1").rows == [(2.0,)]

    def test_index_clear_is_public(self):
        hash_index = HashIndex("h", "t", ["k"], unique=True)
        hash_index.insert((1,))
        hash_index.insert((2,))
        hash_index.clear()
        hash_index.insert((1,))     # the key is free again
        with pytest.raises(ConstraintViolation):
            hash_index.insert((1,))
        # A truncate clears every declared index: the same PRIMARY KEY
        # and UNIQUE values go in again, and a `USING sorted` definition
        # survives it.
        db = Database()
        db.execute_script("""
            CREATE TABLE t (id INTEGER PRIMARY KEY, u TEXT UNIQUE,
                            k INTEGER);
            CREATE INDEX s ON t (k) USING sorted;
            INSERT INTO t VALUES (1, 'a', 1);
        """)
        table = db.table("t")
        sorted_index = table.indexes["s"]
        table.truncate()
        db.execute("INSERT INTO t VALUES (1, 'a', 2)")
        assert table.indexes["s"] is sorted_index
        assert sorted_index.kind == "sorted"
        assert table.paths.find(["k"]) is sorted_index
        assert db.query("SELECT id FROM t WHERE k = 2").rows == [(1,)]
        for row in ("(1, 'b', 3)", "(2, 'a', 3)"):
            with pytest.raises(ConstraintViolation):
                db.execute(f"INSERT INTO t VALUES {row}")

    def test_iter_batches_skips_deleted(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", ({"id": i} for i in range(10)))
        db.execute("DELETE FROM t WHERE id = 3")
        table = db.catalog.table("t")
        batches = list(table.iter_batches(size=4))
        flat = [value for batch in batches for value in batch[0]]
        assert flat == [0, 1, 2, 4, 5, 6, 7, 8, 9]


# -- vectorized execution and fallback ---------------------------------------


class TestVectorizedExecution:
    def test_simple_shapes_run_vectorized(self):
        db = make_db()
        result = db.query("SELECT * FROM t")
        assert len(result.rows) == 100
        assert result.plan.vectorized_ops >= {"scan", "project"}
        result = db.query("SELECT * FROM t WHERE v > 50.0 AND k = 'k1'")
        assert result.plan.vectorized_ops >= {"scan", "filter", "project"}
        result = db.query("SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), "
                          "MAX(v) FROM t GROUP BY k")
        assert len(result.rows) == 5
        assert result.plan.vectorized_ops >= {"scan", "aggregate"}

    def test_generic_kernels_use_no_column_kernel(self, generic_kernels):
        db = make_db()
        with generic_kernels():
            result = db.query("SELECT * FROM t WHERE v > 50.0")
        assert len(result.rows) == 49
        # Storage is columnar either way; nothing above the scan is.
        assert result.plan.vectorized_ops == {"scan"}
        join_sort = ("SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.id = b.id "
                     "GROUP BY a.k ORDER BY a.k DESC")
        assert db.query(join_sort).plan.vectorized_ops \
            >= {"hash-join", "sort"}
        with generic_kernels():
            result = db.query(join_sort)
        assert {"hash-join", "sort"} <= {
            node.kind for node in result.plan.walk()}
        assert result.plan.vectorized_ops == {"scan"}

    def test_results_match_generic_kernels(self, generic_kernels):
        db = make_db()
        for sql in (
            "SELECT * FROM t",
            "SELECT k, v FROM t WHERE v >= 10.0 AND v < 90.0",
            "SELECT * FROM t WHERE k IN ('k0', 'k2') AND NOT b",
            "SELECT * FROM t WHERE v BETWEEN 10.0 AND 20.0 OR k LIKE 'k4%'",
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
            "SELECT COUNT(*) FROM t WHERE b",
            "SELECT * FROM t WHERE v IS NULL",
            "SELECT * FROM t ORDER BY v DESC LIMIT 7",
        ):
            with generic_kernels():
                expected = db.query(sql).rows
            assert db.query(sql).rows == expected, sql

    def test_expression_predicate_falls_back_but_stays_correct(self):
        db = make_db()
        result = db.query("SELECT id FROM t WHERE v * 2.0 > 190.0")
        assert sorted(result.rows) == [(96,), (97,), (98,), (99,)]
        # Hybrid: the scan is batched, the residual filter is row-wise.
        assert "scan" in result.plan.vectorized_ops
        assert "filter" not in result.plan.vectorized_ops

    def test_join_probes_key_columns_inside_a_batch_pipeline(self):
        db = make_db()
        db.execute("CREATE TABLE s (id INTEGER, w REAL)")
        db.insert_rows("s", ({"id": i, "w": float(i)} for i in range(50)))
        result = db.query("SELECT t.id, s.w FROM t JOIN s ON t.id = s.id "
                          "WHERE t.id < 3 AND s.id < 90")
        assert sorted(result.rows) == [(0, 0.0), (1, 1.0), (2, 2.0)]
        assert "hash-join" in result.plan.vectorized_ops
        # An expression key keeps the generic key extractor.
        result = db.query("SELECT t.id, s.w FROM t JOIN s "
                          "ON t.id + 0 = s.id WHERE t.id < 3")
        assert sorted(result.rows) == [(0, 0.0), (1, 1.0), (2, 2.0)]
        assert "hash-join" not in result.plan.vectorized_ops

    def test_subquery_predicate_stays_correct(self):
        # The outer IN-subquery predicate cannot kernelize, but the
        # inner SELECT still runs batched; both paths agree.
        db = make_db()
        result = db.query("SELECT id FROM t WHERE id IN "
                          "(SELECT id FROM t WHERE v < 2.0)")
        assert sorted(result.rows) == [(0,), (1,)]
        # The subquery's tree hangs off the statement root.
        subquery = [node for node in result.plan.walk()
                    if node.kind == "subquery"]
        assert len(subquery) == 1
        assert "filter" in subquery[0].vectorized_ops

    def test_index_probe_beats_vector_scan(self):
        db = make_db()
        db.execute("CREATE INDEX idx_id ON t (id)")
        result = db.query("SELECT k FROM t WHERE id = 7")
        assert result.rows == [("k2",)]
        scan = next(node for node in result.plan.walk()
                    if node.kind == "scan")
        assert scan.detail == "probe id" and scan.actual_rows == 1

    def test_type_mismatch_still_raises_through_fallback(self):
        db = make_db()
        with pytest.raises(TypeMismatchError):
            db.query("SELECT * FROM t WHERE k > 5")

    def test_dml_sees_fresh_state_through_cached_plans(self):
        db = make_db()
        sql = "SELECT COUNT(*) FROM t WHERE v >= 0.0"
        assert db.query(sql).rows == [(100,)]
        db.execute("DELETE FROM t WHERE id < 40")
        assert db.query(sql).rows == [(60,)]
        db.execute("UPDATE t SET v = -1.0 WHERE id = 40")
        assert db.query(sql).rows == [(59,)]
        db.execute("INSERT INTO t VALUES (200, 'k9', 7.0, 0)")
        assert db.query(sql).rows == [(60,)]


# -- planner marking ----------------------------------------------------------


class TestExplainMarking:
    def test_plain_explain_marks_scan_and_filter(self):
        db = make_db()
        planned = db.explain("SELECT * FROM t WHERE v > 5.0")
        marks = {node.kind for node in planned.root.walk()
                 if node.vectorized}
        assert marks == {"scan", "filter", "project"}
        assert "vectorized" in planned.root.format()

    def test_explain_analyze_marks_aggregate_and_notes(self):
        db = make_db()
        planned = db.explain("SELECT k, COUNT(*) FROM t GROUP BY k",
                             analyze=True)
        marks = {node.kind for node in planned.root.walk()
                 if node.vectorized}
        assert {"scan", "aggregate"} <= marks
        assert any(note.startswith("vectorized:")
                   for note in planned.notes)

    def test_pushed_down_join_filters_marked(self):
        db = make_db()
        db.execute("CREATE TABLE s (id INTEGER, w REAL)")
        db.insert_rows("s", ({"id": i, "w": float(i)} for i in range(50)))
        db.execute("ANALYZE")
        planned = db.explain(
            "SELECT t.k FROM t JOIN s ON t.id = s.id "
            "WHERE t.v > 10.0 AND s.w < 40.0")
        vector_filters = [node for node in planned.root.walk()
                          if node.kind == "filter" and node.vectorized]
        assert len(vector_filters) == 2  # both pushed-down wrappers

    def test_a_literal_select_item_keeps_project_on_the_column_path(
            self, generic_kernels):
        db = make_db()
        sql = "SELECT id, 'x' AS tag, NULL AS nothing, 2.5 AS r FROM t"
        assert "vectorized: project, scan" in db.explain(sql).notes
        result = db.query(sql)
        with generic_kernels():
            expected = db.query(sql)
        assert "project" not in expected.plan.vectorized_ops
        assert repr(result.rows) == repr(expected.rows)
        assert result.rows[0] == (0, "x", None, 2.5)
        assert [(column.name, column.data_type)
                for column in result.plan.schema.columns] \
            == [(column.name, column.data_type)
                for column in expected.plan.schema.columns]

    def test_generic_kernels_show_no_marks_above_the_scan(
            self, generic_kernels):
        db = make_db()
        with generic_kernels():
            plans = [db.explain("SELECT * FROM t WHERE v > 5.0"),
                     db.explain("SELECT k, COUNT(*) FROM t GROUP BY k",
                                analyze=True)]
        for planned in plans:
            assert {node.kind for node in planned.root.walk()
                    if node.vectorized} == {"scan"}

    def test_cost_model_prefers_vectorized_scans(self):
        from repro.planner.cost import CostModel
        model = CostModel()
        assert model.scan_cost(1000, vectorized=True) \
            < model.scan_cost(1000)


# -- the benchmark's claim rests on these kernels -----------------------------


def test_benchmark_sql_templates_sort_and_join_on_column_kernels(
        monkeypatch):
    """``sql_analytic``'s gain comes from the sort and hash-join column
    kernels: a change that untypes a column those templates join or
    order on would silently send them back to the comparator path."""
    import importlib
    import os
    import random

    from repro.workloads import scaled_databank

    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    workloads = importlib.import_module("benchmarks.e2e.workloads")

    db = scaled_databank(1200, seed=3)
    db.execute("ANALYZE")
    rng = random.Random(3)
    plans = {}
    for template in workloads.sql_templates(len(db.table("landfill"))):
        plan = db.query(template.inline(template.draw(rng))).plan
        plans[template.key] = plan
        for node in plan.walk():
            if node.kind in ("sort", "hash-join"):
                assert node.vectorized, (template.key, plan.format())
    for key in ("topk", "join2", "join3"):
        assert "sort" in plans[key].vectorized_ops, key
    assert "hash-join" in plans["join3"].vectorized_ops


@pytest.mark.parametrize("size", [7, 2048])
@pytest.mark.parametrize("sql", [
    # group_by, topk and filter_agg of sql_analytic, a DISTINCT, a UNION
    "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t WHERE v > 10.0 "
    "GROUP BY k ORDER BY k",
    "SELECT k, id, v FROM t WHERE k = 'k3' ORDER BY v DESC, id LIMIT 10",
    "SELECT COUNT(*) AS n, AVG(v), MAX(id) FROM t WHERE v > 5.0 AND id < 90",
    "SELECT DISTINCT k, b FROM t WHERE id > 3",
    "SELECT k FROM t WHERE id < 20 UNION SELECT k FROM t WHERE v > 70.0",
])
def test_a_plan_of_column_kernels_builds_no_row_below_the_cursor(
        monkeypatch, generic_kernels, size, sql):
    """A row tuple is built where a caller asks for one — the cursor's
    page, ``ResultSet.rows`` — or where a generic kernel reads rows; a
    plan made of column kernels derives no batch's row view."""
    from repro.relational import batch
    from repro.relational.batch import Batch

    derived = []
    rows = Batch.rows

    def counted(self):
        if self._rows is None:
            derived.append(len(self))
        return rows.fget(self)
    monkeypatch.setattr(batch, "BATCH_SIZE", size)
    monkeypatch.setattr(Batch, "rows", property(counted))
    db = make_db()
    with generic_kernels():
        expected = db.query(sql).rows
    assert derived, sql   # the count sees the generic kernels' rows
    del derived[:]
    assert db.query(sql).rows == expected
    assert db.stream(sql).fetchall() == expected
    assert derived == [], sql


# -- telemetry ----------------------------------------------------------------


class TestBatchTelemetry:
    def test_batch_metrics_recorded(self):
        telemetry = Telemetry(TelemetryOptions())
        db = make_db()
        db.attach_telemetry(telemetry)
        # A mask kernel no access path serves: the scan reads every row.
        db.query("SELECT * FROM t WHERE NOT (v <= 50.0)")
        db.query("SELECT k, COUNT(*) FROM t GROUP BY k")
        metrics = telemetry.metrics.to_dict()
        histogram = metrics["repro_exec_batch_rows"]["series"][0]
        assert histogram["count"] >= 2
        ops = {series["labels"]["op"]: series["value"]
               for series in
               metrics["repro_exec_vectorized_total"]["series"]}
        assert ops["scan"] == 200.0      # both queries scanned 100 rows
        assert ops["filter"] == 49.0     # rows surviving the mask
        assert ops["aggregate"] == 100.0

    def test_batch_metrics_of_a_probed_scan(self):
        telemetry = Telemetry(TelemetryOptions())
        db = make_db()
        db.attach_telemetry(telemetry)
        result = db.query("SELECT * FROM t WHERE v > 50.0")
        assert "range v" in result.plan.format()
        ops = {series["labels"]["op"]: series["value"]
               for series in telemetry.metrics.to_dict()[
                   "repro_exec_vectorized_total"]["series"]}
        # The sorted path names exactly the 49 rows where v > 50.0 holds,
        # so the filter tests none of them again: it counts no row.
        assert ops["scan"] == 49.0
        assert "filter" not in ops

    def test_generic_kernels_record_only_the_scan(self, generic_kernels):
        telemetry = Telemetry(TelemetryOptions())
        db = make_db()
        db.attach_telemetry(telemetry)
        with generic_kernels():
            db.query("SELECT k, COUNT(*) FROM t GROUP BY k")
        series = telemetry.metrics.to_dict()[
            "repro_exec_vectorized_total"]["series"]
        assert [entry["labels"]["op"] for entry in series] == ["scan"]

    def test_metrics_visible_over_rest(self):
        db = Database("bank")
        db.execute("CREATE TABLE elem_contained (elem_name TEXT, "
                   "amount REAL)")
        db.execute("INSERT INTO elem_contained VALUES ('lead', 12.0)")
        platform = CrossePlatform(
            db, telemetry=TelemetryOptions(slow_query_threshold_s=0.0))
        platform.register_user("amy")
        service = CrosseRestService(platform)
        service.request("POST", "/api/v1/query",
                        {"username": "amy",
                         "query": "SELECT elem_name FROM elem_contained"})
        response = service.request("GET", "/api/v1/metrics")
        assert response.status == 200
        assert "repro_exec_batch_rows" in response.payload["metrics"]
        assert "repro_exec_vectorized_total" in response.payload["metrics"]
        text = service.request("GET", "/api/v1/metrics?format=prometheus")
        assert "# TYPE repro_exec_vectorized_total counter" in text.payload


# -- durability regression ----------------------------------------------------


class TestColumnarDurability:
    def build(self, directory):
        options = DurabilityOptions(directory=directory, fsync="never")
        manager = DurabilityManager(options)
        db = Database()
        manager.attach_database(db, name="main")
        return manager, db

    def test_snapshot_plus_wal_replay_round_trip(self, tmp_path):
        directory = str(tmp_path)
        manager, db = self.build(directory)
        manager.recover()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k TEXT, "
                   "v REAL)")
        db.insert_rows("t", ({"id": i, "k": f"k{i % 3}", "v": float(i)}
                             for i in range(200)))
        manager.snapshot()
        # Post-snapshot mutations land in the WAL tail, including a
        # delete wave big enough to trigger columnar compaction.
        db.execute("DELETE FROM t WHERE id % 2 = 0")
        db.execute("UPDATE t SET v = v + 0.5 WHERE id = 151")
        db.execute("INSERT INTO t VALUES (500, 'tail', 9.0)")
        generation = db.generation
        digest = state_digest(database_state(db))
        expected = db.query("SELECT * FROM t ORDER BY id").rows
        manager.close()

        recovered_manager, recovered = self.build(directory)
        report = recovered_manager.recover()
        assert report.replay_errors == 0 and not report.warnings
        assert recovered.generation == generation
        assert state_digest(database_state(recovered)) == digest
        assert recovered.query(
            "SELECT * FROM t ORDER BY id").rows == expected
        # The recovered table is columnar and vectorizes immediately.
        assert isinstance(recovered.catalog.table("t"), Table)
        result = recovered.query("SELECT k, COUNT(*) FROM t GROUP BY k")
        assert "aggregate" in result.plan.vectorized_ops
        recovered_manager.close()


# -- planner options interplay ------------------------------------------------


def test_planner_disabled_still_vectorizes_execution():
    db = Database(planner=PlannerOptions(enabled=False))
    db.execute("CREATE TABLE t (id INTEGER, v REAL)")
    db.insert_rows("t", ({"id": i, "v": float(i)} for i in range(20)))
    result = db.query("SELECT * FROM t WHERE v >= 10.0")
    assert len(result.rows) == 10
    assert {"scan", "filter"} <= result.plan.vectorized_ops
