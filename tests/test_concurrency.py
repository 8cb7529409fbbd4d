"""Concurrent readers vs. writers through the service layer.

The contract: any number of threads may read (materialized or
streaming) while DML / annotation-accept writers get exclusive,
statement-atomic access — every read observes a consistent snapshot and
matches what a serial execution would have produced.

The heavier tests carry the ``stress`` marker (CI runs them in a
dedicated ``pytest -m stress`` job on every push); they stay small
enough for the tier-1 suite too.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro
from repro.api import PoolTimeoutError, SessionError, SessionPool
from repro.crosse.platform import CrossePlatform
from repro.relational import Database
from repro.rwlock import RWLock
from repro.smartground.datagen import SmartGroundConfig, generate_databank

READERS = 8
READS_PER_THREAD = 25


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- the lock itself -----------------------------------------------------------


def test_rwlock_reentrant_read_and_write():
    lock = RWLock()
    with lock.read_locked():
        with lock.read_locked():
            pass
    with lock.write_locked():
        with lock.write_locked():
            with lock.read_locked():     # read inside own write is fine
                pass
    assert not lock.write_held
    assert lock.active_readers == 0


def test_rwlock_refuses_upgrade():
    lock = RWLock()
    with lock.read_locked():
        with pytest.raises(RuntimeError):
            lock.acquire_write()


def test_cursor_released_from_another_thread_unblocks_writers():
    """A cursor opened in one thread and closed in another (hand-off,
    or GC finalizing on an arbitrary thread) must still release its
    read unit, or every later writer would deadlock."""
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER)")
    db.insert_rows("t", ({"id": i} for i in range(10)))
    cursor = db.stream("SELECT id FROM t")
    assert cursor.fetchone() == (0,)      # read lock held by this thread

    closer = threading.Thread(target=cursor.close)
    closer.start()
    closer.join()
    assert db.rwlock.active_readers == 0

    # A writer (from any thread) proceeds instead of deadlocking.
    done = []

    def writer():
        db.execute("INSERT INTO t VALUES (99)")
        done.append(True)

    thread = threading.Thread(target=writer)
    thread.start()
    thread.join(timeout=5)
    assert done == [True]


def test_rwlock_excludes_writers_from_readers():
    lock = RWLock()
    state = {"writers_inside": 0, "readers_inside": 0, "violations": 0}
    guard = threading.Lock()

    def reader():
        for _ in range(200):
            with lock.read_locked():
                with guard:
                    state["readers_inside"] += 1
                    if state["writers_inside"]:
                        state["violations"] += 1
                with guard:
                    state["readers_inside"] -= 1

    def writer():
        for _ in range(100):
            with lock.write_locked():
                with guard:
                    state["writers_inside"] += 1
                    if state["readers_inside"] \
                            or state["writers_inside"] > 1:
                        state["violations"] += 1
                with guard:
                    state["writers_inside"] -= 1

    _run_threads([reader] * 4 + [writer] * 2)
    assert state["violations"] == 0


@pytest.mark.stress
def test_rwlock_writers_progress_under_reader_load():
    """Writers must not starve while readers hammer the lock.

    Six reader threads re-acquire the read side in a tight loop for the
    whole test; one writer tries to get 30 write acquisitions through.
    With reader-preferring semantics the read side never drains and the
    writer stalls until the readers stop — so the assertion is that the
    writer finishes (well) before the readers are told to stop.
    """
    lock = RWLock()
    stop_readers = threading.Event()
    writer_done = threading.Event()
    write_acquisitions = 0

    def reader():
        while not stop_readers.is_set():
            with lock.read_locked():
                pass

    def writer():
        nonlocal write_acquisitions
        for _ in range(30):
            with lock.write_locked():
                write_acquisitions += 1
            time.sleep(0.001)       # give readers time to pile back in
        writer_done.set()

    threads = [threading.Thread(target=reader) for _ in range(6)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    try:
        finished = writer_done.wait(timeout=10.0)
    finally:
        stop_readers.set()
        for thread in threads:
            thread.join()
    assert finished, (
        f"writer starved: only {write_acquisitions}/30 write "
        f"acquisitions completed under sustained reader load")
    assert write_acquisitions == 30


# -- database-level invariants --------------------------------------------------


@pytest.mark.stress
def test_readers_see_statement_atomic_updates():
    """8 reader threads against one writer: the single-statement
    transfer keeps SUM(balance) invariant, so every concurrent read
    must report exactly the serial value."""
    db = Database()
    db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
               "balance INTEGER)")
    db.insert_rows("accounts", ({"id": i, "balance": 10}
                                for i in range(100)))
    expected_total = 1000
    observed: list[int] = []
    errors: list[Exception] = []
    done = threading.Event()

    def reader():
        try:
            local = []
            while not done.is_set() or len(local) < READS_PER_THREAD:
                local.append(db.query(
                    "SELECT SUM(balance) AS total FROM accounts"
                ).scalar())
                if len(local) >= READS_PER_THREAD and done.is_set():
                    break
            observed.extend(local)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def writer():
        try:
            # Each statement moves 1 from account 0 to account 1 (or
            # back): atomic per statement, invariant-preserving.
            for round_no in range(60):
                sign = "+" if round_no % 2 == 0 else "-"
                flip = "-" if round_no % 2 == 0 else "+"
                db.execute(
                    "UPDATE accounts SET balance = CASE "
                    f"WHEN id = 0 THEN balance {sign} 1 "
                    f"WHEN id = 1 THEN balance {flip} 1 "
                    "ELSE balance END")
        finally:
            done.set()

    _run_threads([reader] * READERS + [writer])
    assert not errors
    assert observed and set(observed) == {expected_total}


@pytest.mark.stress
def test_concurrent_streams_match_serial_baseline():
    """8 threads streaming through a SessionPool produce byte-identical
    results to a serial run, while a writer mutates an unrelated
    table."""
    db = Database()
    db.execute_script("""
        CREATE TABLE readings (id INTEGER PRIMARY KEY, site TEXT,
                               value INTEGER);
        CREATE TABLE scratchpad (id INTEGER);
    """)
    db.insert_rows("readings", ({"id": i, "site": f"s{i % 7}",
                                 "value": i * 3 % 101}
                                for i in range(2000)))
    queries = [
        "SELECT site, COUNT(*) AS n FROM readings GROUP BY site "
        "ORDER BY site",
        "SELECT id, value FROM readings WHERE value > 90 ORDER BY id "
        "LIMIT 40",
        "SELECT DISTINCT site FROM readings ORDER BY site",
        "SELECT id FROM readings ORDER BY id LIMIT 10 OFFSET 500",
    ]
    with repro.connect(db) as session:
        serial = [session.stream(q).fetchall() for q in queries]

    pool = SessionPool(db, capacity=READERS)
    results: dict[int, list] = {}
    errors: list[Exception] = []
    done = threading.Event()

    def reader(worker: int):
        try:
            local = []
            for _ in range(READS_PER_THREAD):
                for query in queries:
                    with pool.checkout() as session:
                        local.append(session.stream(query).fetchall())
            results[worker] = local
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def writer():
        try:
            for i in range(200):
                db.execute(f"INSERT INTO scratchpad VALUES ({i})")
        finally:
            done.set()

    workers = [lambda worker=w: reader(worker) for w in range(READERS)]
    _run_threads(workers + [writer])
    pool.close()
    assert not errors
    assert len(results) == READERS
    expected = serial * READS_PER_THREAD
    for worker in range(READERS):
        assert results[worker] == expected
    assert db.query("SELECT COUNT(*) AS n FROM scratchpad").scalar() == 200


@pytest.mark.stress
def test_platform_readers_with_annotation_writer():
    """Readers querying per-user sessions while another thread accepts
    statements (KB writes): no torn reads, and post-acceptance queries
    see the enrichment."""
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=8, seed=11)))
    for name in ("writer", *[f"reader{i}" for i in range(4)]):
        platform.register_user(name)
    from repro.rdf.namespace import SMG
    record = platform.annotate_free(
        "writer", SMG["Mercury"], SMG["dangerLevel"], "high")

    pool = SessionPool(platform, capacity=4)
    errors: list[Exception] = []
    sesql = ("SELECT DISTINCT elem_name FROM elem_contained "
             "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")

    def reader(name: str):
        try:
            for _ in range(15):
                with pool.checkout(name) as session:
                    rows = session.stream(sesql).fetchall()
                assert rows  # never torn/empty
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def accepter():
        try:
            for name in ("reader0", "reader1", "reader2", "reader3"):
                platform.accept_statement(name, record.statement_id)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    _run_threads([lambda n=f"reader{i}": reader(n) for i in range(4)]
                 + [accepter])
    pool.close()
    assert not errors
    # After acceptance every reader's context includes the statement.
    session = platform.session_for("reader0")
    rows = session.query(sesql).rows
    assert ("Mercury", "high") in rows


@pytest.mark.stress
def test_writer_beside_a_listing_and_a_query_in_its_own_context():
    """The registry race: one client annotates while a second lists the
    peers' annotations and a third runs SESQL *in the writer's
    context* — every walk of the statement registry or of a context
    view holds the read side of the one lock the writer takes."""
    import sys
    from repro.federation.rest import CrosseRestService
    from repro.rdf.namespace import SMG
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=8, seed=11)))
    for name in ("curator", "writer", "reader"):
        platform.register_user(name)
    for index in range(300):
        record = platform.annotate_free(
            "curator", SMG[f"material{index}"], SMG["dangerLevel"], "low")
        if index % 2:
            platform.accept_statement("writer", record.statement_id)
    service = CrosseRestService(platform)
    refused: list[tuple] = []
    deadline = time.monotonic() + 1.0

    def client(method: str, path: str, body: dict | None) -> None:
        serial = 0
        while time.monotonic() < deadline and not refused:
            serial += 1
            if body is not None and "object" in body:
                body = {**body, "object": f"level-{serial}"}
            response = service.request(method, path, body)
            if response.status != 200:
                refused.append((path, response.status, response.payload))

    threads = [threading.Thread(target=client, args=args) for args in (
        ("POST", "/api/v1/annotations",
         {"username": "writer", "subject": "Mercury",
          "property": "dangerLevel", "object": ""}),
        ("GET", "/api/v1/annotations/reader?limit=50", None),
        ("POST", "/api/v1/query", {
            "username": "writer", "limit": 100,
            "query": "SELECT DISTINCT elem_name FROM elem_contained "
                     "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"}))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        alive = [thread for thread in threads if thread.is_alive()]
        service.close()
    assert not alive
    assert not refused, refused[0]
    # Every annotation the writer made is in her context, once each.
    levels = {triple.object.value for triple in platform.effective_kb(
        "writer").triples(SMG["Mercury"], SMG["dangerLevel"], None)}
    written = len(platform.statements) - 300
    assert written > 0
    assert levels == {f"level-{serial}" for serial in range(1, written + 1)}


@pytest.mark.stress
def test_concurrent_profile_moves_keep_the_concept_index():
    """Eight users move their profiles over one small vocabulary (record
    and decay, so concepts enter and leave the index) while readers rank
    peers; afterwards the index holds exactly the concepts each profile
    weighs, and every ranking is the one a full scan gives."""
    from repro.crosse.context import ContextTracker
    from repro.crosse.recommend import PeerRecommender
    tracker = ContextTracker()
    recommender = PeerRecommender(tracker)
    users = [f"u{index}" for index in range(8)]
    concepts = ["Mercury", "Lead", "Zinc", "Iron"]
    deadline = time.monotonic() + 1.0

    errors = []

    def mover(username: str) -> None:
        profile = tracker.profile(username)
        step = 0
        try:
            while time.monotonic() < deadline:
                step += 1
                profile.record(concepts[step % len(concepts)])
                if step % 3 == 0:
                    profile.decay(1e-7 if step % 9 == 0 else 0.5)
        except Exception as exc:  # reported below, not lost in a thread
            errors.append(exc)

    def reader() -> None:
        try:
            while time.monotonic() < deadline:
                for username in users:
                    recommender.recommend_peers(username, count=None)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=mover, args=(username,))
               for username in users]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert not errors, errors[0]
    for username in users:
        profile = tracker.profile(username)
        peers = {other.username for other in tracker.sharing(username)}
        assert peers == {other for other in users if other != username
                         and set(tracker.profile(other).weights)
                         & set(profile.weights)}
        scan = sorted(((other.username, profile.cosine_similarity(other))
                       for other in tracker.profiles()
                       if other.username != username),
                      key=lambda item: (-item[1], item[0]))
        assert recommender.recommend_peers(username, count=None) \
            == [item for item in scan if item[1] > 0.0]


# -- pool semantics --------------------------------------------------------------


def test_pool_capacity_blocks_and_times_out():
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER)")
    pool = SessionPool(db, capacity=1)
    lease = pool.checkout()
    with pytest.raises(PoolTimeoutError):
        pool.checkout(timeout=0.05)
    lease.release()
    with pool.checkout(timeout=0.05) as session:
        assert session is not None
    stats = pool.stats()
    assert stats["timeouts"] == 1
    assert stats["peak_in_use"] == 1
    pool.close()
    with pytest.raises(SessionError):
        pool.checkout()


def test_pool_does_not_leak_slots_on_bad_username():
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=4, seed=2)))
    platform.register_user("anna")
    pool = SessionPool(platform, capacity=2)
    for _ in range(5):                    # > capacity bad requests
        with pytest.raises(Exception) as excinfo:
            pool.checkout("ghost")
        assert not isinstance(excinfo.value, PoolTimeoutError)
    assert pool.stats()["in_use"] == 0    # every slot came back
    with pool.checkout("anna", timeout=0.5) as session:
        assert session.query("SELECT COUNT(*) AS n FROM landfill")
    pool.close()


def test_analyze_all_skips_concurrent_enrichment_temp_tables():
    """ANALYZE with no table argument must ignore the lock-free
    ``__sesql_*`` scratch tables of in-flight enriched queries."""
    from repro.relational import ResultSet

    db = Database()
    db.execute("CREATE TABLE t (id INTEGER)")
    db.insert_rows("t", ({"id": i} for i in range(10)))
    temp = db.create_temp_table("__sesql_vals_0",
                                ResultSet(["c0"], [(1,), (2,)]))
    stats = db.analyze()
    assert len(stats) == 1                # only t, not the temp table
    assert db.stats.get(temp.name) is None
    db.drop_temp_table(temp.name)


def test_each_result_carries_its_own_plan():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.insert_rows("t", ({"a": i, "b": i % 3} for i in range(200)))
    db.execute("ANALYZE")
    join = "SELECT t.a FROM t JOIN t AS u ON t.a = u.a"
    mine = db.query(join)
    counted = mine.plan.actual_rows

    seen = []

    def other():
        seen.append(db.query(join + " WHERE t.b = 1"))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen[0].plan is not mine.plan
    assert seen[0].plan.actual_rows == len(seen[0].rows) < counted
    assert mine.plan.actual_rows == counted   # untouched by the other run


def test_pool_username_rules():
    db = Database()
    pool = SessionPool(db, capacity=2)
    with pytest.raises(SessionError):
        pool.checkout(username="anna")
    pool.close()

    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=4, seed=1)))
    platform.register_user("anna")
    platform_pool = SessionPool(platform, capacity=2)
    with pytest.raises(SessionError):
        platform_pool.checkout()
    with platform_pool.checkout("anna") as session:
        assert session.query("SELECT COUNT(*) AS n FROM landfill")
    platform_pool.close()


def test_pool_reuses_warm_slots():
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER)")
    pool = SessionPool(db, capacity=4)
    with pool.checkout() as first:
        pass
    with pool.checkout() as second:
        assert second is first        # the warm slot came back
    assert pool.stats()["idle"] == 1
    pool.close()
