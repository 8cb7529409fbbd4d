"""Parallel fragment shipping: worker pool, failure policies, cache."""

import time

import pytest

from repro.federation import (FederationOptions, FragmentCache,
                              MediationError, Mediator, RemoteTableSource,
                              attach_foreign_table)
from repro.relational import Database

SERIAL = FederationOptions(max_workers=1, fragment_cache_size=0)
PARALLEL = FederationOptions(max_workers=8, fragment_cache_size=0)


class FlakyDatabase(Database):
    """A source whose first *failures* queries raise (None = always)."""

    def __init__(self, name: str, failures: int | None = None) -> None:
        super().__init__(name)
        self.failures = failures
        self.calls = 0

    def query(self, sql, params=None):
        self.calls += 1
        if self.failures is None or self.calls <= self.failures:
            raise RuntimeError("source offline")
        return super().query(sql, params)


def _landfill_db(cls, name, rows):
    db = cls(name) if cls is not Database else Database(name)
    db.execute("CREATE TABLE landfill (name TEXT, city TEXT, size REAL)")
    for row_name, city, size in rows:
        db.execute(f"INSERT INTO landfill VALUES "
                   f"('{row_name}', '{city}', {size})")
    return db


def _four_source_mediator(options=None, reconciliation="union_all",
                          key_columns=None):
    mediator = Mediator(options)
    fragments = []
    for index in range(4):
        rows = [(f"lf_{index}_{i}", f"city{(index + i) % 3}",
                 float(index * 10 + i)) for i in range(5)]
        # One row identical in every source (union dedupes it) and one
        # sharing only its key (prefer_first precedence decides).
        rows.append(("dup", "Milano", 1.0))
        rows.append(("shared", "Torino", float(index)))
        name = f"src{index}"
        mediator.register_source(
            name, _landfill_db(Database, name, rows))
        fragments.append((name, "SELECT name, city, size FROM landfill"))
    mediator.define_view("eu", fragments, reconciliation,
                         key_columns=key_columns)
    return mediator


# -- options ------------------------------------------------------------------


def test_options_validation():
    with pytest.raises(MediationError):
        FederationOptions(max_workers=0)
    with pytest.raises(MediationError):
        FederationOptions(failure_policy="explode")
    with pytest.raises(MediationError):
        FederationOptions(source_policies={"src": "explode"})
    with pytest.raises(MediationError):
        FederationOptions(max_retries=-1)
    assert FederationOptions(
        source_policies={"a": "skip"}).policy_for("a") == "skip"
    assert FederationOptions().policy_for("a") == "fail"


# -- serial/parallel equivalence ----------------------------------------------


@pytest.mark.parametrize("reconciliation,key_columns", [
    ("union_all", None),
    ("union", None),
    ("prefer_first", ["name"]),
])
def test_parallel_shipping_is_byte_identical(reconciliation, key_columns):
    sql = "SELECT name, city, size FROM eu ORDER BY name, size"
    serial, _ = _four_source_mediator(
        SERIAL, reconciliation, key_columns).query(sql)
    parallel, report = _four_source_mediator(
        PARALLEL, reconciliation, key_columns).query(sql)
    assert parallel.rows == serial.rows
    assert parallel.columns == serial.columns
    # Every source really was consulted in the parallel run too.
    assert set(report.rows_per_source) == {f"src{i}" for i in range(4)}


def test_duplicate_names_in_explicit_views_ship_once():
    # Regression: the batched path collected 'eu' twice from
    # views=["eu", "eu"] and crashed storing the second copy.
    mediator = _four_source_mediator(PARALLEL)
    result, report = mediator.query("SELECT COUNT(*) FROM eu",
                                    views=["eu", "eu"])
    assert result.scalar() == 28
    assert len(report.sub_queries) == 4


def test_parallel_batch_ships_all_views_of_one_query():
    mediator = _four_source_mediator(PARALLEL)
    mediator.define_view("it_only", [
        ("src0", "SELECT name FROM landfill")])
    result, report = mediator.query(
        "SELECT COUNT(*) FROM eu, it_only")
    assert result.scalar() == 28 * 7
    assert set(report.view_rows) == {"eu", "it_only"}
    assert len(report.sub_queries) == 5
    # Per-source wall-clock was recorded for every consulted source.
    assert set(report.source_timings) == {f"src{i}" for i in range(4)}


def test_session_options_override_mediator_options():
    mediator = _four_source_mediator(SERIAL)
    session = mediator.connect(PARALLEL)
    assert session.options.max_workers == 8
    result, _ = session.execute("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 28


# -- failure policies ----------------------------------------------------------


def _mediator_with_failing_source(options, failures=None):
    mediator = Mediator(options)
    mediator.register_source(
        "good", _landfill_db(Database, "good",
                             [("lf_ok", "Torino", 2.0)]))
    # Setup runs through execute(); only query() — the shipping entry
    # point — is flaky, so the table builds fine.
    flaky = _landfill_db(FlakyDatabase, "bad",
                         [("lf_bad", "Lyon", 3.0)])
    flaky.failures = failures
    mediator.register_source("bad", flaky)
    mediator.define_view("eu", [
        ("good", "SELECT name, city, size FROM landfill"),
        ("bad", "SELECT name, city, size FROM landfill")])
    return mediator, flaky


def test_fail_policy_names_view_source_and_attempts():
    mediator, _flaky = _mediator_with_failing_source(PARALLEL)
    with pytest.raises(MediationError) as excinfo:
        mediator.query("SELECT * FROM eu")
    message = str(excinfo.value)
    assert "'eu'" in message and "'bad'" in message
    assert "1 attempt(s)" in message


def test_failure_mid_ship_leaves_session_usable():
    mediator, flaky = _mediator_with_failing_source(PARALLEL, failures=1)
    session = mediator.connect()
    with pytest.raises(MediationError):
        session.execute("SELECT * FROM eu")
    # No partially-shipped view may survive in the scratch database.
    assert session._scratch.table_names() == []
    assert session.misses == 0
    # The source recovers; the same session ships the view cleanly.
    result, _ = session.execute("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 2


def test_skip_policy_drops_failing_source_and_records_it():
    options = PARALLEL.replace(failure_policy="skip")
    mediator, _flaky = _mediator_with_failing_source(options)
    result, report = mediator.query(
        "SELECT name FROM eu ORDER BY name")
    assert result.rows == [("lf_ok",)]
    assert report.skipped_sources == ["bad"]
    assert "source offline" in report.source_errors["bad"]
    assert report.rows_per_source == {"good": 1}


def test_skip_policy_with_every_fragment_failing_is_an_error():
    options = PARALLEL.replace(failure_policy="skip")
    mediator = Mediator(options)
    flaky = _landfill_db(FlakyDatabase, "only", [("lf", "Bari", 1.0)])
    flaky.calls = 0
    mediator.register_source("only", flaky)
    mediator.define_view("eu", [
        ("only", "SELECT name FROM landfill")])
    with pytest.raises(MediationError) as excinfo:
        mediator.query("SELECT * FROM eu")
    assert "every fragment was skipped" in str(excinfo.value)


def test_skip_reduced_view_is_not_cached_by_the_session():
    # Regression: a view assembled without a skipped source's rows was
    # cached as complete, serving the reduced copy (with clean reports)
    # even after the source recovered.
    options = PARALLEL.replace(failure_policy="skip")
    mediator, _flaky = _mediator_with_failing_source(options, failures=1)
    session = mediator.connect()
    result, first = session.execute("SELECT name FROM eu ORDER BY name")
    assert result.rows == [("lf_ok",)]
    assert first.skipped_sources == ["bad"]
    # The source recovers: the next query must re-ship, not hit.
    result, second = session.execute("SELECT name FROM eu ORDER BY name")
    assert result.rows == [("lf_bad",), ("lf_ok",)]
    assert second.skipped_sources == []
    assert session.hits == 0


def test_stream_drops_skip_reduced_views_on_cursor_close():
    options = PARALLEL.replace(failure_policy="skip")
    mediator, _flaky = _mediator_with_failing_source(options, failures=1)
    session = mediator.connect()
    cursor, report = session.stream("SELECT name FROM eu ORDER BY name")
    assert report.skipped_sources == ["bad"]
    assert cursor.fetchall() == [("lf_ok",)]
    # Exhaustion closed the cursor: the reduced copy is gone and the
    # recovered source ships in full next time.
    assert session._scratch.table_names() == []
    result, _ = session.execute("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 2


def test_stream_error_drops_skip_reduced_views():
    # Regression: an eager plan error after a skip-reduced ship left
    # the reduced copy stranded under the view's name, so every later
    # query on the session crashed re-storing it.
    options = PARALLEL.replace(failure_policy="skip")
    mediator, _flaky = _mediator_with_failing_source(options, failures=1)
    session = mediator.connect()
    with pytest.raises(Exception):
        session.stream("SELECT no_such_column FROM eu")
    assert session._scratch.table_names() == []
    result, _ = session.execute("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 2


def test_skipped_source_listed_once_across_its_fragments():
    options = PARALLEL.replace(failure_policy="skip")
    mediator, _flaky = _mediator_with_failing_source(options)
    mediator.define_view("wide", [
        ("good", "SELECT name, city, size FROM landfill"),
        ("bad", "SELECT name, city, size FROM landfill"),
        ("bad", "SELECT name, city, size FROM landfill WHERE size > 0")])
    result, report = mediator.query("SELECT name FROM wide")
    assert result.rows == [("lf_ok",)]
    assert report.skipped_sources == ["bad"]   # one entry, two fragments


def test_retry_policy_recovers_and_counts_attempts():
    options = PARALLEL.replace(
        source_policies={"bad": "retry"}, max_retries=3,
        backoff_s=0.001, backoff_cap_s=0.002)
    mediator, flaky = _mediator_with_failing_source(options, failures=2)
    result, report = mediator.query(
        "SELECT name FROM eu ORDER BY name")
    assert result.rows == [("lf_bad",), ("lf_ok",)]
    assert report.retry_counts == {"bad": 2}
    assert report.skipped_sources == []


def test_retry_exhaustion_escalates_to_failure():
    options = PARALLEL.replace(
        failure_policy="retry", max_retries=2,
        backoff_s=0.001, backoff_cap_s=0.002)
    mediator, _flaky = _mediator_with_failing_source(options)
    with pytest.raises(MediationError) as excinfo:
        mediator.query("SELECT * FROM eu")
    assert "3 attempt(s)" in str(excinfo.value)


# -- the fragment-result cache -------------------------------------------------


def test_fragment_cache_serves_repeated_ships():
    mediator = _four_source_mediator()   # default options: cache on
    _result, cold = mediator.query("SELECT COUNT(*) FROM eu")
    assert cold.fragment_cache_hits == 0
    result, warm = mediator.query("SELECT COUNT(*) FROM eu")
    assert warm.fragment_cache_hits == 4
    assert result.scalar() == 28
    # The decomposition is still reported even when served locally.
    assert len(warm.sub_queries) == 4


def test_fragment_cache_invalidated_by_source_dml():
    mediator = _four_source_mediator()
    mediator.query("SELECT COUNT(*) FROM eu")
    mediator.source("src0").execute(
        "INSERT INTO landfill VALUES ('fresh', 'Nice', 9.0)")
    result, report = mediator.query("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 29          # the new row is visible
    assert report.fragment_cache_hits == 3  # only src0 re-shipped


def test_a_write_reprices_only_the_views_reading_its_table(monkeypatch):
    """A view's cost memo keys on what each of its fragments reads (the
    source's floor, catalog and statistics versions, the states of its
    tables), as the fragment cache does: an INSERT into ``contenuto``
    re-prices ``eu_contained`` and leaves ``eu_landfill``'s memo a hit;
    ANALYZE re-prices both."""
    mediator = Mediator()
    for name in ("italy", "france"):
        db = Database(name)
        db.execute("CREATE TABLE discarica (nome TEXT, citta TEXT)")
        db.execute("CREATE TABLE contenuto (discarica TEXT, elemento TEXT)")
        db.execute("INSERT INTO discarica VALUES ('a', 'Roma')")
        db.execute("INSERT INTO contenuto VALUES ('a', 'lead')")
        mediator.register_source(name, db)
    views = {
        "eu_landfill": mediator.define_view("eu_landfill", [
            (name, "SELECT nome, citta FROM discarica")
            for name in ("italy", "france")]),
        "eu_contained": mediator.define_view("eu_contained", [
            (name, "SELECT discarica, elemento FROM contenuto")
            for name in ("italy", "france")])}
    priced: list[str] = []
    cost = Mediator._fragment_cost

    def counted(database, statement):
        priced.append(database.name)
        return cost(database, statement)
    monkeypatch.setattr(Mediator, "_fragment_cost", staticmethod(counted))

    def reprice(name: str) -> int:
        """How many fragments *name*'s estimate priced afresh."""
        del priced[:]
        mediator.estimate_view_cost(views[name])
        return len(priced)

    assert reprice("eu_landfill") == reprice("eu_contained") == 2
    assert reprice("eu_landfill") == reprice("eu_contained") == 0
    mediator.source("italy").execute(
        "INSERT INTO contenuto VALUES ('a', 'zinc')")
    assert reprice("eu_landfill") == 0
    assert reprice("eu_contained") == 2
    mediator.source("france").execute("ANALYZE")
    assert reprice("eu_landfill") == reprice("eu_contained") == 2


def test_fragment_cache_skips_foreign_table_fragments():
    remote = _landfill_db(Database, "remote", [("lf_r", "Oslo", 4.0)])
    source = Database("source")
    attach_foreign_table(source, "landfill",
                         RemoteTableSource(remote, "landfill"))
    mediator = Mediator()
    mediator.register_source("source", source)
    mediator.define_view("eu", [
        ("source", "SELECT name, city, size FROM landfill")])
    mediator.query("SELECT COUNT(*) FROM eu")
    # The remote can change without moving 'source's generation stamp,
    # so the fragment must re-execute every time.
    remote.execute("INSERT INTO landfill VALUES ('lf_r2', 'Oslo', 5.0)")
    result, report = mediator.query("SELECT COUNT(*) FROM eu")
    assert result.scalar() == 2
    assert report.fragment_cache_hits == 0


def test_fragment_cache_lru_eviction():
    cache = FragmentCache(maxsize=2)
    from repro.relational.result import ResultSet
    for key in ("a", "b", "c"):
        cache.put((key,), ResultSet([key], []))
    assert len(cache) == 2
    assert cache.get(("a",)) is None      # evicted
    assert cache.get(("c",)) is not None


def test_database_generation_tracks_dml_and_ddl():
    db = Database()
    stamps = [db.generation]
    db.execute("CREATE TABLE t (n INTEGER)")
    stamps.append(db.generation)
    db.execute("INSERT INTO t VALUES (1)")
    stamps.append(db.generation)
    db.execute("UPDATE t SET n = 2")
    stamps.append(db.generation)
    db.execute("DELETE FROM t")
    stamps.append(db.generation)
    db.execute("DROP TABLE t")
    stamps.append(db.generation)
    assert stamps == sorted(set(stamps))  # strictly increasing
    db.execute("CREATE TABLE t (n INTEGER)")
    before = db.generation
    db.query("SELECT * FROM t")
    db.execute("ANALYZE t")
    assert db.generation == before        # reads and ANALYZE: no bump


def test_generation_bumps_on_csv_append():
    # Regression: load_csv appended via raw table inserts, bypassing
    # the stamp — fragment caches kept serving the pre-append rows.
    from repro.relational.csv_io import load_csv
    db = Database()
    load_csv(db, "t", "n\n1\n")
    before = db.generation
    load_csv(db, "t", "n\n2\n3\n", create=False)
    assert db.generation > before
    assert db.query("SELECT COUNT(*) FROM t").scalar() == 3


def test_generation_bumps_even_when_a_mutation_fails():
    # A multi-row INSERT dying mid-way has already mutated data; the
    # stamp must move or fragment caches would serve pre-failure rows.
    db = Database()
    db.execute("CREATE TABLE t (n INTEGER)")
    before = db.generation
    with pytest.raises(Exception):
        db.execute("INSERT INTO t VALUES (1), ('nope')")
    assert db.query("SELECT COUNT(*) FROM t").scalar() == 1
    assert db.generation > before


def test_session_cache_works_when_mediator_cache_is_off():
    mediator = _four_source_mediator(PARALLEL)   # caching disabled
    session = mediator.connect(
        PARALLEL.replace(fragment_cache_size=64))
    session.execute("SELECT COUNT(*) FROM eu")
    session.refresh()                     # drop the view-level copies
    _result, report = session.execute("SELECT COUNT(*) FROM eu")
    assert report.fragment_cache_hits == 4   # private cache, not dead


# -- reporting and explain -----------------------------------------------------


def test_column_rename_warns_and_first_fragment_wins():
    mediator = Mediator()
    mediator.register_source(
        "a", _landfill_db(Database, "a", [("lf_a", "Roma", 1.0)]))
    mediator.register_source(
        "b", _landfill_db(Database, "b", [("lf_b", "Pisa", 2.0)]))
    mediator.define_view("eu", [
        ("a", "SELECT name, city FROM landfill"),
        ("b", "SELECT name, city AS town FROM landfill")])
    result, report = mediator.query(
        "SELECT name, city FROM eu ORDER BY name")
    assert result.rows == [("lf_a", "Roma"), ("lf_b", "Pisa")]
    assert len(report.warnings) == 1
    assert "first fragment wins" in report.warnings[0]


@pytest.mark.parametrize("policy", ["fail", "skip", "retry"])
@pytest.mark.parametrize("tail", ["", " LIMIT 5"], ids=["merged", "wrapped"])
def test_pushdown_reaches_a_renamed_column_by_position(policy, tail):
    """Regression: the pushed ``eu.city`` was wrapped around b's
    fragment, whose column 2 is named ``town`` — no such column, so the
    whole query failed (and ``skip`` silently lost b's rows)."""
    mediator = Mediator(FederationOptions(failure_policy=policy,
                                          backoff_s=0.001))
    mediator.register_source(
        "a", _landfill_db(Database, "a", [("lf_a", "Roma", 1.0)]))
    mediator.register_source(
        "b", _landfill_db(Database, "b", [("lf_b", "Pisa", 2.0)]))
    mediator.define_view("eu", [
        ("a", "SELECT name, city FROM landfill"),
        ("b", f"SELECT name, city AS town FROM landfill{tail}")])
    sql = "SELECT name FROM eu WHERE city = 'Pisa'"
    result, report = mediator.query(sql)
    assert result.rows == mediator.query(sql, pushdown=False)[0].rows \
        == [("lf_b",)]
    assert report.pushed_filters == {"eu": "((eu.city = 'Pisa'))"}
    assert report.skipped_sources == [] and report.retry_counts == {}
    assert report.rows_per_source == {"a": 0, "b": 1}


def test_arity_error_names_both_column_lists():
    mediator = Mediator()
    mediator.register_source(
        "a", _landfill_db(Database, "a", [("lf_a", "Roma", 1.0)]))
    mediator.register_source(
        "b", _landfill_db(Database, "b", [("lf_b", "Pisa", 2.0)]))
    mediator.define_view("bad", [
        ("a", "SELECT name, city FROM landfill"),
        ("b", "SELECT name FROM landfill")])
    with pytest.raises(MediationError) as excinfo:
        mediator.query("SELECT * FROM bad")
    message = str(excinfo.value)
    assert "['name', 'city']" in message and "['name']" in message


def test_explain_shows_parallel_batch():
    mediator = _four_source_mediator(PARALLEL)
    mediator.define_view("it_only", [("src0", "SELECT name FROM landfill")])
    session = mediator.connect()
    plan = session.explain("SELECT COUNT(*) FROM eu, it_only")
    batch_stages = [stage for stage in plan.stages
                    if stage.name == "materialize"]
    assert len(batch_stages) == 1         # one batch for both views
    assert "2 view(s), 5 fragment(s)" in batch_stages[0].description
    assert "parallel" in batch_stages[0].description
    # After shipping, the cached views explain as individual stages.
    session.query("SELECT COUNT(*) FROM eu, it_only")
    warm = session.explain("SELECT COUNT(*) FROM eu, it_only")
    cached = [stage for stage in warm.stages if stage.cached]
    assert len(cached) == 2


def test_stream_sees_only_fully_shipped_views():
    mediator = _four_source_mediator(PARALLEL)
    session = mediator.connect()
    cursor, report = session.stream(
        "SELECT name FROM eu ORDER BY name")
    rows = cursor.fetchall()
    assert len(rows) == 28
    assert report.view_rows == {"eu": 28}


def test_parallel_shipping_overlaps_source_latency():
    class SlowDatabase(Database):
        def query(self, sql, params=None):
            time.sleep(0.03)
            return super().query(sql, params)

    def build(options):
        mediator = Mediator(options)
        fragments = []
        for index in range(4):
            name = f"src{index}"
            db = SlowDatabase(name)
            db.execute(
                "CREATE TABLE landfill (name TEXT, size REAL)")
            db.execute(f"INSERT INTO landfill VALUES ('lf{index}', 1.0)")
            mediator.register_source(name, db)
            fragments.append((name, "SELECT name, size FROM landfill"))
        mediator.define_view("eu", fragments)
        return mediator

    serial = build(SERIAL)
    parallel = build(PARALLEL)
    started = time.perf_counter()
    serial.query("SELECT COUNT(*) FROM eu")
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel.query("SELECT COUNT(*) FROM eu")
    parallel_s = time.perf_counter() - started
    # 4 x 30ms serial vs one overlapped hop; generous margin for CI.
    assert parallel_s < serial_s
