"""End-to-end telemetry: metrics registry, tracing, slow-query log,
instrumented pipeline layers, and the /api/v1 observability surface."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.crosse import CrossePlatform
from repro.durability import DurabilityOptions
from repro.federation import (CrosseRestService, FederationOptions,
                              MediatedDatabank, Mediator)
from repro.rdf.namespace import SMG
from repro.rdf.store import Triple, TripleStore
from repro.rdf.terms import Literal
from repro.relational import Database
from repro.telemetry import (DEFAULT_LATENCY_BUCKETS, MetricsRegistry,
                             SlowQueryLog, Telemetry, TelemetryOptions,
                             Tracer, create_telemetry)

ENRICHED = ("SELECT elem_name, amount FROM elem_contained "
            "WHERE amount > 2.0 "
            "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")


def danger_kb() -> TripleStore:
    kb = TripleStore()
    for name, level in (("lead", "high"), ("arsenic", "high"),
                        ("zinc", "low"), ("copper", "low")):
        kb.add(Triple(SMG[name], SMG["dangerLevel"], Literal(level)))
    return kb


def elements_db(name: str, rows) -> Database:
    db = Database(name)
    db.execute("CREATE TABLE elem_contained (elem_name TEXT, amount REAL)")
    for elem, amount in rows:
        db.execute(f"INSERT INTO elem_contained VALUES ('{elem}', {amount})")
    return db


def two_source_mediator() -> Mediator:
    mediator = Mediator(options=FederationOptions(max_workers=2))
    mediator.register_source(
        "a", elements_db("plant-a", [("lead", 12.0), ("zinc", 3.0)]))
    mediator.register_source(
        "b", elements_db("plant-b", [("arsenic", 9.0), ("copper", 1.0)]))
    mediator.define_view("elem_contained", [
        ("a", "SELECT * FROM elem_contained"),
        ("b", "SELECT * FROM elem_contained")])
    return mediator


# ---------------------------------------------------------------------------
# metrics registry


class TestMetricsRegistry:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        hits = registry.counter("repro_hits_total", "hits")
        hits.inc()
        hits.inc(2.5)
        assert hits.value == 3.5
        with pytest.raises(ValueError):
            hits.inc(-1)
        depth = registry.gauge("repro_depth", "queue depth")
        depth.set(4)
        depth.dec()
        assert depth.value == 3.0

    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") \
            is registry.counter("repro_x_total")

    def test_kind_and_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels=("db",))
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", labels=("db",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labels=("table",))

    def test_labelled_family_children(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_rows_total", "rows",
                                  labels=("db",))
        family.labels("main").inc(5)
        family.labels("scratch").inc(1)
        assert family.labels("main").value == 5.0
        assert set(family.children()) == {("main",), ("scratch",)}
        with pytest.raises(ValueError):
            family.labels("main", "extra")

    def test_invalid_metric_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds",
                                  buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.05, 0.05, 0.5):
            hist.observe(value)
        assert hist.count == 6
        assert hist.sum == pytest.approx(0.66)
        assert hist.min == 0.005 and hist.max == 0.5
        p50 = hist.percentile(0.5)
        assert 0.01 <= p50 <= 0.1        # inside the winning bucket
        assert hist.percentile(0.99) <= 0.5  # clamped to observed max
        assert hist.percentile(0.0) >= 0.005
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_snapshot_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {"1.0": 1, "2.0": 2, "+Inf": 3}
        assert snap["count"] == 3

    def test_empty_histogram_percentile_is_none(self):
        assert MetricsRegistry().histogram("repro_x_seconds") \
            .percentile(0.5) is None

    def test_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "queries",
                         labels=("user",)).labels("amy").inc()
        out = registry.to_dict()
        assert out["repro_q_total"]["type"] == "counter"
        assert out["repro_q_total"]["series"] == [
            {"labels": {"user": "amy"}, "value": 1.0}]

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "queries run",
                         labels=("user",)).labels('o"hara\n').inc(2)
        registry.histogram("repro_lat_seconds", "latency",
                           buckets=(0.5,)).observe(0.1)
        text = registry.render_prometheus()
        assert "# HELP repro_q_total queries run" in text
        assert "# TYPE repro_q_total counter" in text
        assert r'repro_q_total{user="o\"hara\n"} 2' in text
        assert 'repro_lat_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_count 1" in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# tracer


class TestTracer:
    def test_span_is_noop_outside_root(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            assert span is None

    def test_nested_spans_and_registration(self):
        tracer = Tracer()
        with tracer.query_span("q", statement="SELECT 1") as root:
            with tracer.span("child", db="main") as child:
                with tracer.span("grandchild"):
                    pass
            assert child.attrs["db"] == "main"
        assert not root.open
        assert root.query_id.startswith("q-")
        assert tracer.trace(root.query_id) is root
        assert root.find("grandchild") is not None
        assert [span.name for span in root.children] == ["child"]

    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.query_span("q") as root:
                raise RuntimeError("boom")
        assert root.error == "RuntimeError: boom"
        assert "error" in root.to_dict()

    def test_span_budget_drops_excess(self):
        tracer = Tracer(max_spans=3)
        with tracer.query_span("q") as root:
            for _ in range(5):
                with tracer.span("child"):
                    pass
        assert len(root.children) == 2      # root + 2 children = 3
        assert root.dropped_spans == 3
        assert root.to_dict()["dropped_spans"] == 3

    def test_retention_evicts_oldest(self):
        tracer = Tracer(retention=2)
        roots = [tracer.start_root("q") for _ in range(3)]
        for root in roots:
            root.finish()
        assert tracer.trace(roots[0].query_id) is None
        assert [r.query_id for r in tracer.traces()] == \
            [roots[1].query_id, roots[2].query_id]

    def test_record_synthetic(self):
        tracer = Tracer()
        with tracer.query_span("q") as root:
            tracer.record_synthetic("parse", 0.01, cached=False)
        parse = root.find("parse")
        assert parse.wall_s == 0.01 and not parse.open

    def test_attach_reaches_across_threads(self):
        tracer = Tracer()
        root = tracer.start_root("q")

        def worker():
            # This thread never saw the contextvar; explicit parenting.
            with tracer.attach(root, "background"):
                time.sleep(0.001)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        root.finish()
        assert root.find("background") is not None
        with tracer.attach(None, "nothing") as span:
            assert span is None


# ---------------------------------------------------------------------------
# options / bundle / slow log


class TestOptionsAndBundle:
    def test_options_validation(self):
        with pytest.raises(ValueError):
            TelemetryOptions(slow_query_threshold_s=-1.0)
        with pytest.raises(ValueError):
            TelemetryOptions(trace_retention=0)
        with pytest.raises(ValueError):
            TelemetryOptions(latency_buckets=(0.1, 0.1))
        options = TelemetryOptions()
        assert options.latency_buckets == DEFAULT_LATENCY_BUCKETS
        faster = options.replace(slow_query_threshold_s=0.01)
        assert faster.slow_query_threshold_s == 0.01
        assert options.slow_query_threshold_s == 0.25

    def test_create_telemetry_normalisation(self):
        assert create_telemetry(None) is None
        assert create_telemetry(False) is None
        assert isinstance(create_telemetry(True), Telemetry)
        bundle = Telemetry()
        assert create_telemetry(bundle) is bundle
        assert create_telemetry(TelemetryOptions(enabled=False)) is None
        assert isinstance(
            create_telemetry(TelemetryOptions()), Telemetry)
        with pytest.raises(TypeError):
            create_telemetry("yes")

    def test_slow_log_threshold_and_ring(self):
        log = SlowQueryLog(threshold_s=None, size=2)
        assert not log.should_record(100.0)
        log = SlowQueryLog(threshold_s=0.0, size=2)
        assert log.should_record(0.0)
        from repro.telemetry import SlowQueryEntry
        for idx in range(3):
            log.record(SlowQueryEntry(query_id=f"q-{idx}", statement=None,
                                      user=None, wall_s=float(idx)))
        entries = log.entries()
        assert [e.query_id for e in entries] == ["q-2", "q-1"]
        assert log.recorded == 3
        assert log.to_dict()["entries"][0]["query_id"] == "q-2"


# ---------------------------------------------------------------------------
# session-level tracing over a plain databank


class TestSessionTracing:
    def make_session(self, **telemetry_kwargs):
        db = elements_db("main", [("lead", 12.0), ("zinc", 3.0),
                                  ("arsenic", 9.0)])
        return repro.connect(
            db, knowledge_base=danger_kb(),
            telemetry=TelemetryOptions(**telemetry_kwargs))

    def test_execute_produces_full_span_tree(self):
        session = self.make_session(slow_query_threshold_s=0.0)
        outcome = session.execute(ENRICHED)
        root = session.last_trace()
        assert root is not None and not root.open
        assert root.name == "sesql.query"
        assert root.attrs["rows"] == len(outcome.result)
        parse = root.find("sesql.parse")
        assert parse is not None and parse.attrs["cached"] is False
        for name in ("sesql.extract", "sesql.sql", "db.execute",
                     "sesql.combine", "sparql.execute"):
            assert root.find(name) is not None, name
        assert session.telemetry.tracer.trace(root.query_id) is root

    def test_plan_cache_hit_marks_parse_cached(self):
        session = self.make_session()
        session.execute(ENRICHED)
        session.execute(ENRICHED)
        parse = session.last_trace().find("sesql.parse")
        assert parse.attrs["cached"] is True and parse.wall_s == 0.0

    def test_metrics_recorded(self):
        session = self.make_session(slow_query_threshold_s=0.0)
        session.execute(ENRICHED)
        tel = session.telemetry
        metrics = tel.metrics.to_dict()
        totals = {tuple(s["labels"].items()): s["value"]
                  for s in metrics["repro_queries_total"]["series"]}
        assert totals[(("backend", "sesql"), ("user", ""))] == 1.0
        assert metrics["repro_query_seconds"]["series"][0]["count"] == 1
        assert metrics["repro_sesql_stage_seconds"]["series"]
        assert metrics["repro_db_rows_returned_total"]["series"]
        assert metrics["repro_sparql_executions_total"]["series"][0][
            "value"] == 1.0
        entry = tel.slow_queries.entries()[0]
        assert entry.trace["name"] == "sesql.query"
        assert entry.statement == ENRICHED

    def test_slow_threshold_none_disables_log(self):
        session = self.make_session(slow_query_threshold_s=None)
        session.execute(ENRICHED)
        assert session.telemetry.slow_queries.entries() == []

    def test_error_query_still_traced(self):
        session = self.make_session()
        with pytest.raises(Exception):
            session.execute("SELECT nope FROM missing_table")
        root = session.last_trace()
        assert root is not None and root.error is not None

    def test_telemetry_off_is_inert(self):
        db = elements_db("main", [("lead", 12.0)])
        session = repro.connect(db, knowledge_base=danger_kb())
        session.execute(ENRICHED)
        assert session.telemetry is None
        assert session.last_trace() is None
        assert session.engine.telemetry is None
        assert session.engine.sqm.telemetry is None
        assert db.telemetry is None

    def test_connect_disabled_options_is_off(self):
        db = elements_db("main", [("lead", 12.0)])
        session = repro.connect(db, knowledge_base=danger_kb(),
                                telemetry=TelemetryOptions(enabled=False))
        assert session.telemetry is None

    def test_shared_bundle_across_sessions(self):
        bundle = Telemetry()
        for name in ("one", "two"):
            db = elements_db(name, [("lead", 12.0)])
            session = repro.connect(db, knowledge_base=danger_kb(),
                                    telemetry=bundle)
            session.execute(ENRICHED)
        series = bundle.metrics.to_dict()["repro_queries_total"]["series"]
        assert series[0]["value"] == 2.0


class TestStreamTracing:
    def make_session(self):
        db = elements_db("main", [("lead", 12.0), ("zinc", 3.0),
                                  ("arsenic", 9.0)])
        return repro.connect(
            db, knowledge_base=danger_kb(),
            telemetry=TelemetryOptions(slow_query_threshold_s=0.0))

    def test_stream_root_open_until_drained(self):
        session = self.make_session()
        cursor = session.stream(ENRICHED)
        root = session.last_trace()
        assert root.name == "sesql.stream" and root.open
        # retrievable by id while still open
        assert session.telemetry.tracer.trace(root.query_id).open
        rows = list(cursor)
        assert not root.open
        assert root.attrs["rows"] == len(rows)

    def test_partial_drain_close_finishes_root(self):
        session = self.make_session()
        cursor = session.stream(ENRICHED, page_size=1)
        first = next(iter(cursor))
        assert first is not None
        root = session.last_trace()
        cursor.close()
        assert not root.open
        assert root.attrs["rows"] == 1
        entry = session.telemetry.slow_queries.entries()[0]
        assert entry.rows == 1

    def test_context_does_not_leak_between_pulls(self):
        session = self.make_session()
        cursor = session.stream(ENRICHED)
        iterator = iter(cursor)
        next(iterator)
        # Between pulls the consumer's context is span-free.
        assert session.telemetry.tracer.current() is None
        cursor.close()


class TestRowsYielded:
    def test_counts_partial_drains_exactly(self):
        db = elements_db("main", [("lead", 12.0), ("zinc", 3.0),
                                  ("arsenic", 9.0)])
        cursor = db.stream("SELECT * FROM elem_contained")
        assert cursor.rows_yielded == 0
        iterator = iter(cursor)
        next(iterator)
        next(iterator)
        assert cursor.rows_yielded == 2
        cursor.close()
        assert cursor.rows_yielded == 2
        cursor = db.stream("SELECT * FROM elem_contained")
        assert len(list(cursor)) == cursor.rows_yielded == 3


# ---------------------------------------------------------------------------
# one span tree across federation worker threads (acceptance scenario)


class TestMediatedTracing:
    def test_single_tree_covers_pipeline_and_sources(self):
        mediator = two_source_mediator()
        session = repro.connect(
            mediator.as_databank(), knowledge_base=danger_kb(),
            telemetry=TelemetryOptions(slow_query_threshold_s=0.0))
        outcome = session.execute(ENRICHED)
        assert len(outcome.result) == 3
        root = session.last_trace()
        ship = root.find("federation.ship")
        assert ship is not None
        fragments = ship.find_all("federation.fragment")
        assert {span.attrs["source"] for span in fragments} == {"a", "b"}
        assert all(span.attrs["rows"] >= 1 for span in fragments)
        # one tree: parse -> extract -> ship -> local execution -> combine
        for name in ("sesql.parse", "sesql.extract", "federation.ship",
                     "db.execute", "sesql.combine"):
            assert root.find(name) is not None, name
        metrics = session.telemetry.metrics.to_dict()
        sources = {s["labels"]["source"]: s["count"] for s in
                   metrics["repro_federation_fragment_seconds"]["series"]}
        assert sources == {"a": 1, "b": 1}

    def test_cached_view_hit_skips_fragment_spans(self):
        mediator = two_source_mediator()
        session = repro.connect(
            mediator.as_databank(), knowledge_base=danger_kb(),
            telemetry=TelemetryOptions())
        session.execute(ENRICHED)
        session.execute(ENRICHED)     # views already materialized
        root = session.last_trace()
        assert root.find("federation.fragment") is None


# ---------------------------------------------------------------------------
# satellite: cached-view hits re-emit first-materialization warnings


class TestCachedViewWarnings:
    def make_mediator(self):
        mediator = Mediator()
        mediator.register_source(
            "a", elements_db("plant-a", [("lead", 12.0)]))
        renamed = Database("plant-b")
        renamed.execute(
            "CREATE TABLE elements (name TEXT, quantity REAL)")
        renamed.execute("INSERT INTO elements VALUES ('zinc', 3.0)")
        mediator.register_source("b", renamed)
        mediator.define_view("elem_contained", [
            ("a", "SELECT * FROM elem_contained"),
            ("b", "SELECT * FROM elements")])
        return mediator

    def test_warning_survives_materialization_cache(self):
        session = self.make_mediator().connect()
        _, first = session.execute("SELECT * FROM elem_contained")
        assert any("first fragment wins" in w for w in first.warnings)
        _, second = session.execute("SELECT * FROM elem_contained")
        assert session.hits == 1     # served from the materialization
        assert any("first fragment wins" in w for w in second.warnings)
        # refresh drops the cached warnings along with the rows
        session.refresh()
        _, third = session.execute("SELECT * FROM elem_contained")
        assert any("first fragment wins" in w for w in third.warnings)

    def test_mediated_databank_reports_carry_warning(self):
        databank = MediatedDatabank(self.make_mediator())
        databank.query("SELECT * FROM elem_contained")
        assert any("first fragment wins" in w
                   for w in databank.last_report.warnings)
        databank.query("SELECT * FROM elem_contained")
        assert any("first fragment wins" in w
                   for w in databank.last_report.warnings)


# ---------------------------------------------------------------------------
# satellite: sparql_executions deprecation (completed — attribute removed)


class TestSparqlExecutionCount:
    def test_deprecated_attribute_is_gone(self):
        db = elements_db("main", [("lead", 12.0)])
        session = repro.connect(db, knowledge_base=danger_kb())
        session.execute(ENRICHED)
        sqm = session.engine.sqm
        assert sqm.sparql_execution_count() == 1
        assert not hasattr(sqm, "sparql_executions")

    def test_metric_mirrors_counter(self):
        db = elements_db("main", [("lead", 12.0)])
        session = repro.connect(db, knowledge_base=danger_kb(),
                                telemetry=TelemetryOptions())
        session.execute(ENRICHED)
        metrics = session.telemetry.metrics.to_dict()
        assert metrics["repro_sparql_executions_total"]["series"][0][
            "value"] == session.engine.sqm.sparql_execution_count()


# ---------------------------------------------------------------------------
# platform + REST surface


def build_platform(**kwargs) -> CrossePlatform:
    db = elements_db("bank", [("lead", 12.0), ("zinc", 3.0)])
    platform = CrossePlatform(db, **kwargs)
    platform.register_user("amy")
    return platform


class TestPlatformTelemetry:
    def test_constructor_wires_bundle(self):
        platform = build_platform(
            telemetry=TelemetryOptions(slow_query_threshold_s=0.0))
        platform.run_sesql("amy", "SELECT elem_name FROM elem_contained")
        session = platform.session_for("amy")
        root = session.last_trace()
        assert root is not None
        totals = platform.telemetry.metrics.to_dict()[
            "repro_queries_total"]["series"]
        assert totals[0]["labels"]["user"] == "amy"

    def test_enable_after_construction_reaches_cached_sessions(self):
        platform = build_platform()
        session = platform.session_for("amy")
        engine = session.engine
        session.execute("SELECT elem_name FROM elem_contained")
        assert session.last_trace() is None
        platform.enable_telemetry(TelemetryOptions())
        session = platform.session_for("amy")
        session.execute("SELECT elem_name FROM elem_contained")
        assert session.last_trace() is not None
        assert session.engine is engine       # re-attached, not rebuilt

    @pytest.mark.parametrize("enable_first", [True, False])
    def test_pool_follows_platform_telemetry(self, enable_first):
        platform = build_platform()
        if enable_first:
            platform.enable_telemetry()
        service = CrosseRestService(platform)
        if not enable_first:
            platform.enable_telemetry()
        response = service.request(
            "POST", "/api/v1/query",
            {"username": "amy",
             "query": "SELECT elem_name FROM elem_contained"})
        assert "query_id" in response.payload
        assert service.pool.telemetry is platform.telemetry
        metrics = service.request("GET", "/api/v1/metrics").payload[
            "metrics"]
        assert metrics["repro_pool_checkouts_total"]["series"][0][
            "value"] == 1

    def test_connect_rejects_platform_telemetry_kwarg(self):
        platform = build_platform()
        with pytest.raises(repro.SessionError):
            repro.connect(platform, telemetry=TelemetryOptions())


class TestObservabilityRoutes:
    def make_service(self):
        platform = build_platform(
            telemetry=TelemetryOptions(slow_query_threshold_s=0.0))
        return CrosseRestService(platform)

    def test_metrics_json_and_prometheus(self):
        service = self.make_service()
        service.request("POST", "/api/v1/query",
                        {"username": "amy",
                         "query": "SELECT elem_name FROM elem_contained"})
        response = service.request("GET", "/api/v1/metrics")
        assert response.status == 200
        assert "repro_queries_total" in response.payload["metrics"]
        text = service.request(
            "GET", "/api/v1/metrics?format=prometheus")
        assert text.status == 200
        assert "# TYPE repro_queries_total counter" in text.payload
        bad = service.request("GET", "/api/v1/metrics?format=xml")
        assert bad.status == 400
        assert bad.payload["error"]["code"] == "invalid_format"

    def test_query_returns_query_id_and_trace_route(self):
        service = self.make_service()
        response = service.request(
            "POST", "/api/v1/query",
            {"username": "amy",
             "query": "SELECT elem_name FROM elem_contained"})
        assert response.status == 200
        query_id = response.payload["query_id"]
        trace = service.request("GET", f"/api/v1/traces/{query_id}")
        assert trace.status == 200
        assert trace.payload["trace"]["query_id"] == query_id
        missing = service.request("GET", "/api/v1/traces/q-999999")
        assert missing.status == 404
        assert missing.payload["error"]["code"] == "trace_not_found"

    def test_slow_queries_route(self):
        service = self.make_service()
        service.request("POST", "/api/v1/query",
                        {"username": "amy",
                         "query": "SELECT elem_name FROM elem_contained"})
        response = service.request("GET", "/api/v1/slow_queries")
        assert response.status == 200
        assert response.payload["threshold_s"] == 0.0
        assert response.payload["slow_queries"]
        entry = response.payload["slow_queries"][0]
        assert entry["user"] == "amy"

    def test_disabled_platform_404s(self):
        service = CrosseRestService(build_platform())
        for path in ("/api/v1/metrics", "/api/v1/traces/q-000001",
                     "/api/v1/slow_queries"):
            response = service.request("GET", path)
            assert response.status == 404
            assert response.payload["error"]["code"] == \
                "telemetry_disabled"

    def test_pool_metrics_flow_into_registry(self):
        service = self.make_service()
        service.request("POST", "/api/v1/query",
                        {"username": "amy",
                         "query": "SELECT elem_name FROM elem_contained"})
        metrics = service.platform.telemetry.metrics.to_dict()
        assert metrics["repro_pool_checkouts_total"]["series"][0][
            "value"] >= 1.0
        assert metrics["repro_pool_checkout_wait_seconds"]["series"][0][
            "count"] >= 1


# ---------------------------------------------------------------------------
# satellite: cross-thread span parenting (snapshot thread + workers)


class TestCrossThreadParenting:
    def test_snapshot_span_parents_under_originating_query(self, tmp_path):
        platform = build_platform(
            telemetry=TelemetryOptions(),
            durability=DurabilityOptions(directory=str(tmp_path),
                                         snapshot_every=1, fsync="never"))
        platform.run_sesql("amy", ENRICHED.replace("2.0", "1.0"))
        session = platform.session_for("amy")
        root = session.last_trace()
        assert root is not None
        # The query's context-feed append tripped snapshot_every; the
        # background thread attaches its span to this root explicitly.
        deadline = time.time() + 5.0
        while root.find("durability.snapshot") is None \
                and time.time() < deadline:
            time.sleep(0.01)
        snap = root.find("durability.snapshot")
        assert snap is not None, "snapshot span never parented under root"
        assert not platform.durability.snapshot_errors
        # The main thread's context never leaked.
        assert platform.telemetry.tracer.current() is None
        # WAL metering is live too.
        metrics = platform.telemetry.metrics.to_dict()
        assert metrics["repro_wal_bytes_total"]["series"][0]["value"] > 0
        assert metrics["repro_snapshot_seconds"]["series"][0]["count"] >= 1

    def test_federation_worker_spans_join_root_tree(self):
        # Regression shape from the issue: 2-source mediated query, all
        # fragment spans inside ONE tree despite running on pool threads.
        mediator = two_source_mediator()
        session = repro.connect(mediator.as_databank(),
                                knowledge_base=danger_kb(),
                                telemetry=TelemetryOptions())
        session.execute(ENRICHED)
        root = session.last_trace()
        fragments = root.find_all("federation.fragment")
        assert {span.attrs["source"] for span in fragments} == {"a", "b"}
        # and nothing landed in a second tree
        assert len(session.telemetry.tracer.traces()) == 1


# ---------------------------------------------------------------------------
# lock / pool wait metrics


class TestLockMetrics:
    def test_rwlock_read_wait_observed_under_write_pressure(self):
        db = elements_db("main", [("lead", 12.0)])
        telemetry = Telemetry()
        db.attach_telemetry(telemetry)
        release = threading.Event()
        acquired = threading.Event()

        def writer():
            with db.rwlock.write_locked():
                acquired.set()
                release.wait(2.0)

        thread = threading.Thread(target=writer)
        thread.start()
        acquired.wait(2.0)
        reader = threading.Thread(
            target=lambda: db.query("SELECT * FROM elem_contained"))
        reader.start()
        time.sleep(0.05)
        release.set()
        reader.join(2.0)
        thread.join(2.0)
        family = telemetry.metrics.to_dict()["repro_rwlock_wait_seconds"]
        waits = {s["labels"]["mode"]: s["count"]
                 for s in family["series"]}
        assert waits.get("read", 0) >= 1
