"""Durability subsystem: WAL codec, snapshots, recovery, wiring.

Crash-point fault injection lives in ``test_durability_crash.py`` and
the hypothesis round-trips in ``test_durability_properties.py``; this
file covers the deterministic behaviour: frame encoding, options
validation, snapshot + WAL-tail recovery, corrupt-snapshot fallback,
retention, the satellite exclusions (ANALYZE, SESQL temp tables,
foreign-table remote fetches), per-store generation provenance, and the
``connect()`` / ``CrossePlatform`` wiring.
"""

from __future__ import annotations

import glob
import os

import pytest

import repro
from repro.api import SessionError
from repro.core import SESQLEngine
from repro.crosse import CrossePlatform
from repro.durability import (DurabilityError, DurabilityManager,
                              DurabilityOptions, SnapshotError,
                              database_state, encode_frame, iter_frames,
                              read_frames, state_digest, store_state)
from repro.durability.snapshot import load_snapshot_file
from repro.durability.wal import WAL_HEADER_COMPONENT
from repro.federation import Mediator
from repro.federation.foreign import (CallableSource, CsvSource,
                                      QuerySource, attach_foreign_table)
from repro.rdf import IRI, Literal, Namespace, TripleStore, parse_turtle
from repro.relational import (Database, ResultSet, SchemaError,
                              SqlSyntaxError)
from repro.relational.schema import Column, DataType

SMG = Namespace("http://smartground.eu/ns#")


def populate(db: Database) -> None:
    db.execute_script("""
        CREATE TABLE landfill (
            id INTEGER PRIMARY KEY, name TEXT NOT NULL, area REAL);
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO landfill VALUES (1, 'a', 120.5), (2, 'b', NULL);
        INSERT INTO elem_contained VALUES
            ('a', 'Mercury', 12.0), ('b', 'Iron', 140.0);
    """)


def populate_store(store: TripleStore) -> None:
    store.add(SMG.Mercury, SMG.dangerLevel, Literal("high"))
    store.add(SMG.Iron, SMG.dangerLevel, Literal("low"))


def fresh_manager(directory: str, **overrides) -> tuple[
        DurabilityManager, Database, TripleStore]:
    options = DurabilityOptions(directory=directory, fsync="never",
                                **overrides)
    manager = DurabilityManager(options)
    db = Database()
    store = TripleStore()
    manager.attach_database(db, name="main")
    manager.attach_store(store, name="kb")
    return manager, db, store


def digests(db: Database, store: TripleStore) -> tuple[str, str]:
    return (state_digest(database_state(db)),
            state_digest(store_state(store)))


# -- WAL frame codec ---------------------------------------------------------


def test_frame_codec_round_trips():
    payloads = [{"c": "db:main", "q": i, "g": i, "t": "sql",
                 "d": {"sql": f"INSERT -- {i}"}} for i in range(5)]
    data = b"".join(encode_frame(p) for p in payloads)
    decoded = [payload for payload, _end in iter_frames(data)]
    assert decoded == payloads


def test_frame_codec_preserves_rdf_terms():
    payload = {"c": "store:kb", "q": 1, "g": 1, "t": "add",
               "d": {"triple": [SMG.Mercury,
                                Literal("hg", lang="en"),
                                Literal(3, datatype=str(SMG.level))]}}
    (decoded, _end), = iter_frames(encode_frame(payload))
    subject, lang_lit, typed_lit = decoded["d"]["triple"]
    assert subject == SMG.Mercury
    assert lang_lit == Literal("hg", lang="en")
    assert typed_lit == Literal(3, datatype=str(SMG.level))


def test_iter_frames_stops_at_torn_tail():
    good = encode_frame({"c": "x", "q": 1})
    torn = encode_frame({"c": "x", "q": 2})[:-3]
    frames = list(iter_frames(good + torn))
    assert [p["q"] for p, _ in frames] == [1]
    assert frames[-1][1] == len(good)


def test_iter_frames_stops_at_corrupt_checksum():
    first = encode_frame({"c": "x", "q": 1})
    second = bytearray(encode_frame({"c": "x", "q": 2}))
    second[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
    frames = list(iter_frames(first + bytes(second)))
    assert [p["q"] for p, _ in frames] == [1]


def test_read_frames_reports_valid_end(tmp_path):
    path = str(tmp_path / "seg.log")
    good = encode_frame({"c": "x", "q": 1})
    with open(path, "wb") as handle:
        handle.write(good + b"\x00\x00\x00")
    frames, valid_end, size = read_frames(path)
    assert len(frames) == 1
    assert valid_end == len(good)
    assert size == len(good) + 3


# -- options -----------------------------------------------------------------


def test_options_validation(tmp_path):
    directory = str(tmp_path)
    with pytest.raises(DurabilityError):
        DurabilityOptions(directory=directory, fsync="sometimes")
    with pytest.raises(DurabilityError):
        DurabilityOptions(directory=directory, group_commit_records=0)
    with pytest.raises(DurabilityError):
        DurabilityOptions(directory=directory, keep_epochs=0)
    with pytest.raises(DurabilityError):
        DurabilityOptions(directory=directory, snapshot_every=-1)
    base = DurabilityOptions(directory=directory)
    assert base.replace(fsync="always").fsync == "always"
    assert base.fsync == "batch"  # replace() leaves the original alone


# -- basic recovery ----------------------------------------------------------


def test_wal_only_recovery_round_trips(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, store = fresh_manager(directory)
    manager.recover()
    populate(db)
    populate_store(store)
    db.execute("UPDATE landfill SET area = 99.0 WHERE id = 2")
    store.remove(SMG.Iron, SMG.dangerLevel, Literal("low"))
    expected = digests(db, store)
    expected_gens = (db.generation, store.generation)
    manager.close()

    manager2, db2, store2 = fresh_manager(directory)
    report = manager2.recover()
    assert report.snapshot_epoch is None
    assert report.frames_applied > 0
    assert report.replay_errors == 0
    assert digests(db2, store2) == expected
    assert (db2.generation, store2.generation) == expected_gens
    manager2.close()


def test_snapshot_plus_tail_recovery(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, store = fresh_manager(directory)
    manager.recover()
    populate(db)
    manager.snapshot()
    populate_store(store)  # tail records, past the snapshot cut
    db.execute("DELETE FROM elem_contained WHERE elem_name = 'Iron'")
    expected = digests(db, store)
    manager.close()

    manager2, db2, store2 = fresh_manager(directory)
    report = manager2.recover()
    assert report.snapshot_epoch == 1
    # Only the post-snapshot tail replays; the bulk rides the snapshot.
    assert 0 < report.frames_applied <= 4
    assert digests(db2, store2) == expected
    manager2.close()


def test_corrupt_latest_snapshot_falls_back(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, store = fresh_manager(directory)
    manager.recover()
    populate(db)
    manager.snapshot()
    populate_store(store)
    manager.snapshot()
    db.execute("INSERT INTO elem_contained VALUES ('b', 'Lead', 3.0)")
    expected = digests(db, store)
    manager.close()

    snap2 = os.path.join(directory, "snap-000002.snap")
    with open(snap2, "r+b") as handle:
        handle.seek(40)
        handle.write(b"\xff\xff\xff\xff")  # corrupt the body

    manager2, db2, store2 = fresh_manager(directory)
    report = manager2.recover()
    assert report.snapshot_epoch == 1  # fell back one epoch
    assert any("snap-000002" in warning for warning in report.warnings)
    assert digests(db2, store2) == expected
    # The next snapshot must not collide with the corrupt epoch 2.
    path = manager2.snapshot()
    assert path.endswith("snap-000003.snap")
    manager2.close()


def test_a_write_after_a_quarantined_recovery_survives_restart(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    db.execute("CREATE TABLE t (x INTEGER)")         # db:main #1
    manager.snapshot()
    for value in (1, 2, 3):                          # #2-#4, wal-000001
        db.execute(f"INSERT INTO t VALUES ({value})")
    manager.snapshot()
    db.execute("INSERT INTO t VALUES (4)")           # #5, wal-000002
    manager.close()

    with open(os.path.join(directory, "snap-000002.snap"), "r+b") as handle:
        handle.seek(40)
        handle.write(b"\xff\xff\xff\xff")
    segment = os.path.join(directory, "wal-000001.log")
    with open(segment, "rb") as handle:
        data = handle.read()
    ends = [end for _payload, end in iter_frames(data)]
    # Frames: header, #2, #3, #4 — flip a payload byte of #3.
    corrupt = bytearray(data)
    corrupt[ends[2] - 1] ^= 0xFF
    with open(segment, "wb") as handle:
        handle.write(bytes(corrupt))

    manager2, db2, _ = fresh_manager(directory)
    report = manager2.recover()
    assert "WAL gap for 'db:main': expected record 3, found 5" \
        in report.warnings
    assert report.initial_snapshot   # the new cut covers the hole
    assert db2.query("SELECT x FROM t").rows == [(1,)]
    db2.execute("INSERT INTO t VALUES (5)")          # acknowledged
    manager2.close()

    manager3, db3, _ = fresh_manager(directory)
    manager3.recover()
    assert db3.query("SELECT x FROM t ORDER BY x").rows == [(1,), (5,)]
    manager3.close()


def test_all_snapshots_corrupt_is_an_error(tmp_path):
    path = str(tmp_path / "snap-000001.snap")
    with open(path, "wb") as handle:
        handle.write(b"not a snapshot at all\n")
    with pytest.raises(SnapshotError):
        load_snapshot_file(path)


def test_recover_requires_empty_components_over_prior_state(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    populate(db)
    manager.close()

    manager2, db2, _store2 = fresh_manager(directory)
    db2.execute("CREATE TABLE already_here (x INTEGER)")
    with pytest.raises(DurabilityError):
        manager2.recover()


def test_fresh_directory_over_populated_stack_snapshots_baseline(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    store = TripleStore()
    populate(db)
    populate_store(store)
    gens = (db.generation, store.generation)
    manager = DurabilityManager(
        DurabilityOptions(directory=directory, fsync="never"))
    manager.attach_database(db, name="main")
    manager.attach_store(store, name="kb")
    report = manager.recover()
    assert report.initial_snapshot
    assert os.path.exists(os.path.join(directory, "snap-000001.snap"))
    # Arming durability must not reset live generation counters.
    assert (db.generation, store.generation) == gens
    expected = digests(db, store)
    manager.close()

    manager2, db2, store2 = fresh_manager(directory)
    manager2.recover()
    assert digests(db2, store2) == expected
    assert (db2.generation, store2.generation) == gens
    manager2.close()


def test_retention_prunes_old_epochs(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory, keep_epochs=1)
    manager.recover()
    populate(db)
    for n in range(3):
        db.execute(f"INSERT INTO landfill VALUES ({10 + n}, 'x', 1.0)")
        manager.snapshot()
    manager.close()
    snaps = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(directory, "snap-*")))
    wals = sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(directory, "wal-*")))
    assert snaps == ["snap-000003.snap"]
    assert wals == ["wal-000002.log", "wal-000003.log"]
    manager2, db2, _ = fresh_manager(directory)
    manager2.recover()
    assert db2.query("SELECT COUNT(*) FROM landfill").rows[0][0] == 5
    manager2.close()


def test_snapshot_before_recover_is_rejected(tmp_path):
    manager, _db, _store = fresh_manager(str(tmp_path / "dur"))
    with pytest.raises(DurabilityError):
        manager.snapshot()


def test_attach_after_recover_is_rejected(tmp_path):
    manager, _db, _store = fresh_manager(str(tmp_path / "dur"))
    manager.recover()
    with pytest.raises(DurabilityError):
        manager.attach_database(Database(), name="late")
    manager.close()


def test_auto_snapshot_thread_compacts(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory, snapshot_every=5)
    manager.recover()
    populate(db)
    for n in range(20):
        db.execute(f"INSERT INTO elem_contained VALUES ('a', 'E{n}', 1.0)")
    for _ in range(100):
        if glob.glob(os.path.join(directory, "snap-*")):
            break
        import time
        time.sleep(0.05)
    manager.close()
    assert glob.glob(os.path.join(directory, "snap-*"))
    assert not manager.snapshot_errors
    manager2, db2, _ = fresh_manager(directory)
    manager2.recover()
    assert database_state(db2) == database_state(db)
    manager2.close()


# -- satellite: non-durable mutations stay out of the WAL --------------------


def wal_frames(directory: str) -> list[dict]:
    frames: list[dict] = []
    for path in sorted(glob.glob(os.path.join(directory, "wal-*.log"))):
        frames.extend(read_frames(path)[0])
    return [f for f in frames if f["c"] != WAL_HEADER_COMPONENT]


def test_analyze_is_not_journaled(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    populate(db)
    manager.sync()
    before = len(wal_frames(directory))
    seq_before = db.durability_journal.seq
    db.analyze()
    db.execute("ANALYZE landfill")
    assert db.durability_journal.seq == seq_before
    manager.sync()
    assert len(wal_frames(directory)) == before
    manager.close()


def test_a_placeholder_fails_at_parse_and_is_never_journaled(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    populate(db)
    manager.sync()
    before = len(wal_frames(directory))
    seq_before = db.durability_journal.seq
    generation = db.generation
    for run in (lambda: db.execute("INSERT INTO landfill VALUES (?)"),
                lambda: db.execute_script(
                    "INSERT INTO landfill VALUES (3, 'c', 1.0); "
                    "DELETE FROM landfill WHERE id = ?"),
                lambda: db.stream("SELECT name FROM landfill WHERE id = ?")):
        with pytest.raises(SqlSyntaxError, match="prepared statements"):
            run()
    assert db.generation == generation
    assert db.query("SELECT COUNT(*) FROM landfill").scalar() == 2
    assert db.durability_journal.seq == seq_before
    manager.sync()
    assert len(wal_frames(directory)) == before
    manager.close()


def test_temp_tables_are_never_journaled_or_snapshotted(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    populate(db)
    seq_before = db.durability_journal.seq
    db.create_temp_table("__sesql_scratch_1",
                         ResultSet(["elem_name"], [("Hg",)]))
    assert db.durability_journal.seq == seq_before
    path = manager.snapshot()
    payload = load_snapshot_file(path)
    names = [t["name"] for t in payload["components"]["db:main"]["tables"]]
    assert "__sesql_scratch_1" not in names
    db.drop_temp_table("__sesql_scratch_1")
    assert db.durability_journal.seq == seq_before
    # An extraction is bound to the run that reads it: never a table,
    # so never part of durable history either.
    session = repro.connect(db, knowledge_base=parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" ."""))
    enriched = ("SELECT landfill_name FROM elem_contained "
                "WHERE ${elem_name = 'high' : c1} "
                "ENRICH REPLACEVARIABLE(c1, elem_name, dangerLevel)")
    assert session.query(enriched).rows == [("a",)]
    assert not [name for name in db.table_names()
                if name.startswith("__sesql_")]
    session.close()
    assert db.durability_journal.seq == seq_before
    manager.close()

    manager2, db2, _ = fresh_manager(directory)
    manager2.recover()
    assert not [name for name in db2.table_names()
                if name.startswith("__sesql_")]
    manager2.close()


def test_a_table_under_the_reserved_prefix_is_refused(tmp_path):
    """Snapshots, ``database_state`` and ``ANALYZE`` skip the names SESQL
    reserves, so a user table under them would be lost at recovery
    without a word: every way of making one is refused instead."""
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    with pytest.raises(SchemaError, match="reserved"):
        db.execute("CREATE TABLE __sesql_notes (note TEXT)")
    with pytest.raises(SchemaError, match="reserved"):
        db.create_table("__SESQL_notes", [Column("note", DataType.TEXT)])
    with pytest.raises(SchemaError, match="reserved"):
        attach_foreign_table(db, "__sesql_csv", CsvSource("note\nx\n"))
    mediator = Mediator()
    mediator.register_source("origin", db)
    with pytest.raises(SchemaError, match="reserved"):
        mediator.define_view("__sesql_vals_0",
                             [("origin", "SELECT 1 AS c0")])
    assert db.table_names() == []
    db.execute("CREATE TABLE notes (note TEXT)")
    db.execute("INSERT INTO notes VALUES ('snapshotted')")
    manager.snapshot()
    db.execute("INSERT INTO notes VALUES ('logged')")
    manager.close()

    manager2, db2, _ = fresh_manager(directory)
    manager2.recover()
    assert db2.table_names() == ["notes"]
    assert db2.query("SELECT note FROM notes ORDER BY note").rows \
        == [("logged",), ("snapshotted",)]
    manager2.close()


def test_sesql_enrichment_leaves_no_wal_records(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    populate(db)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
        smg:Iron smg:dangerLevel "low" .
    """)
    session = repro.connect(
        db, knowledge_base=kb,
        durability=DurabilityOptions(directory=directory, fsync="never"))
    frames_before = len(wal_frames(directory))
    outcome = session.query(
        "SELECT elem_name FROM elem_contained WHERE amount > 5 "
        "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    assert len(outcome.rows) == 2
    session.durability.sync()
    # The WHERE rewrite injects (and drops) temp tables; a read query
    # must add nothing to durable history.
    assert len(wal_frames(directory)) == frames_before
    session.close()


def test_foreign_csv_reattaches_from_descriptor(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    source = CsvSource("elem,level\nMercury,4\nIron,1\n", "levels")
    attach_foreign_table(db, "levels", source, mode="live")
    expected = db.query("SELECT elem, level FROM levels ORDER BY elem").rows
    manager.close()

    manager2, db2, _ = fresh_manager(directory)
    manager2.recover()  # no foreign_sources: CSV is self-contained
    got = db2.query("SELECT elem, level FROM levels ORDER BY elem").rows
    assert got == expected
    manager2.close()


def test_foreign_recovery_never_replays_remote_fetch(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    remote = Database("remote")
    remote.execute_script("""
        CREATE TABLE measurements (site TEXT, value REAL);
        INSERT INTO measurements VALUES ('a', 1.5), ('b', 2.5);
    """)
    source = QuerySource(remote, "SELECT site, value FROM measurements",
                         name="remote_view")
    attach_foreign_table(db, "remote_view", source, mode="live")
    expected = db.query("SELECT site, value FROM remote_view").rows
    manager.close()

    fetches = []

    def supplier():
        fetches.append(1)
        return [("a", 1.5), ("b", 2.5)]

    replacement = CallableSource(source.schema(), supplier)
    manager2, db2, _ = fresh_manager(directory)
    manager2.recover(foreign_sources={"remote_view": replacement})
    # Re-attachment restores the handle without touching the remote ...
    assert fetches == []
    # ... and the first query after recovery is a live fetch again.
    assert db2.query("SELECT site, value FROM remote_view").rows == expected
    assert fetches == [1]
    manager2.close()


def test_foreign_recovery_without_resolver_is_reported(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, _store = fresh_manager(directory)
    manager.recover()
    remote = Database("remote")
    remote.execute("CREATE TABLE t (x INTEGER)")
    attach_foreign_table(
        db, "remote_t",
        QuerySource(remote, "SELECT x FROM t", name="remote_t"))
    manager.close()

    manager2, db2, _ = fresh_manager(directory)
    report = manager2.recover()  # identity-only descriptor, no resolver
    assert report.replay_errors == 1
    assert any("remote_t" in warning for warning in report.warnings)
    assert "remote_t" not in db2.table_names()
    manager2.close()


# -- satellite: generation provenance ----------------------------------------


def test_store_generations_are_per_store_not_global():
    first = TripleStore()
    second = TripleStore()
    populate_store(first)
    assert first.generation > 0
    assert second.generation == 0
    second.add(SMG.Lead, SMG.dangerLevel, Literal("high"))
    assert second.generation == 1
    assert first.store_id != second.store_id


def test_recovered_generations_match_exactly(tmp_path):
    directory = str(tmp_path / "dur")
    manager, db, store = fresh_manager(directory)
    other = TripleStore()
    manager.attach_store(other, name="annotations")
    manager.recover()
    populate(db)
    populate_store(store)
    other.add(IRI("urn:a"), IRI("urn:b"), Literal(1))
    manager.snapshot()
    db.execute("INSERT INTO landfill VALUES (7, 'g', 4.0)")
    store.add(SMG.Lead, SMG.dangerLevel, Literal("high"))
    expected = {"db": db.generation, "kb": store.generation,
                "annotations": other.generation}
    manager.close()

    manager2, db2, store2 = fresh_manager(directory)
    other2 = TripleStore()
    manager2.attach_store(other2, name="annotations")
    report = manager2.recover()
    got = {"db": db2.generation, "kb": store2.generation,
           "annotations": other2.generation}
    assert got == expected  # exact, not merely >=
    assert report.components["db:main"]["generation"] == expected["db"]
    assert report.components["store:annotations"]["generation"] \
        == expected["annotations"]
    # Post-recovery mutations keep moving forward monotonically.
    db2.execute("INSERT INTO landfill VALUES (8, 'h', 5.0)")
    assert db2.generation == expected["db"] + 1
    manager2.close()


def test_generation_restored_from_wal_header_after_quiet_epoch(tmp_path):
    # A snapshot rotation writes a header carrying each component's
    # generation; a component with *no* tail records must still come
    # back at its pre-crash generation via that header floor.
    directory = str(tmp_path / "dur")
    manager, db, store = fresh_manager(directory)
    manager.recover()
    populate(db)
    populate_store(store)
    manager.snapshot()
    gen_db, gen_store = db.generation, store.generation
    manager.close()

    # Simulate losing the snapshot (but not the WAL chain).
    for path in glob.glob(os.path.join(directory, "snap-*")):
        os.remove(path)
    manager2, db2, store2 = fresh_manager(directory)
    manager2.recover()
    assert (db2.generation, store2.generation) == (gen_db, gen_store)
    manager2.close()


# -- wiring: connect() and the platform --------------------------------------


def test_connect_durability_round_trip(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    kb = TripleStore()
    session = repro.connect(
        db, knowledge_base=kb,
        durability=DurabilityOptions(directory=directory, fsync="never"))
    assert isinstance(session.durability, DurabilityManager)
    populate(db)
    populate_store(kb)
    expected = digests(db, kb)
    session.close()

    db2, kb2 = Database(), TripleStore()
    session2 = repro.connect(db2, knowledge_base=kb2, durability=directory)
    assert digests(db2, kb2) == expected
    session2.close()


def test_connect_rejects_durability_for_engine_platform_mediator(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    populate(db)
    with pytest.raises(SessionError):
        repro.connect(SESQLEngine(db, TripleStore()), durability=directory)
    with pytest.raises(SessionError):
        repro.connect(CrossePlatform(Database()), durability=directory)
    with pytest.raises(SessionError):
        repro.connect(Mediator(), durability=directory)


def test_platform_constructor_durability_round_trip(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    populate(db)
    options = DurabilityOptions(directory=directory, fsync="never")
    platform = CrossePlatform(db, durability=options)
    platform.register_user("giulia", "Giulia", "polito",
                           ["mining", "landfills"])
    platform.register_user("dirk", "Dirk", "tu-berlin", ["recycling"])
    statement = platform.annotate_free(
        "giulia", SMG.Mercury, SMG.dangerLevel, Literal("high"))
    platform.accept_statement("dirk", statement.statement_id)
    platform.add_document("d1", "Survey", "heavy metals in landfills",
                          ["mercury"])
    platform.register_stored_query(
        "danger", "SELECT ?s WHERE { ?s smg:dangerLevel ?o }", "giulia")
    from repro.durability import platform_state
    expected = state_digest(platform_state(platform))
    platform.durability.close()

    db2 = Database()
    platform2 = CrossePlatform(db2, durability=options)
    assert state_digest(platform_state(platform2)) == expected
    assert db2.query("SELECT COUNT(*) FROM landfill").rows[0][0] == 2
    assert sorted(u.username for u in platform2.users.users()) \
        == ["dirk", "giulia"]
    record = platform2.statements.get(statement.statement_id)
    assert "dirk" in record.accepted_by
    platform2.durability.close()


def test_personal_registry_level_round_trips_through_a_snapshot(tmp_path):
    """Only a user's *own* level is serialised: not the platform-wide
    names it falls through to, nor the empty level of a user who has
    queried but registered nothing."""
    from repro.durability import platform_state
    options = DurabilityOptions(directory=str(tmp_path / "dur"),
                                fsync="never")
    platform = CrossePlatform(Database(), durability=options)
    platform.register_user("giulia")
    platform.register_user("dirk")
    everyone = "SELECT ?s WHERE { ?s smg:dangerLevel ?o }"
    mine = "SELECT ?s WHERE { ?s smg:isA ?o }"
    platform.register_stored_query("danger", everyone)
    platform.register_stored_query("mine", mine, "giulia")
    platform.session_for("dirk")         # builds his (empty) level
    personal = platform._registry_for("giulia")
    assert personal.names() == ["mine"] and "danger" in personal
    state = platform_state(platform)
    assert state["user_queries"] == {"giulia": [["mine", mine, ""]]}
    platform.durability.snapshot()
    platform.durability.close()

    platform2 = CrossePlatform(Database(), durability=options)
    restored = platform_state(platform2)
    assert restored["user_queries"] == state["user_queries"]
    assert state_digest(restored) == state_digest(state)
    assert platform2._registry_for("giulia").get("danger") \
        is platform2.stored_queries.get("danger")
    platform2.durability.close()


def test_session_close_closes_owned_manager(tmp_path):
    directory = str(tmp_path / "dur")
    db = Database()
    session = repro.connect(db, durability=directory)
    manager = session.durability
    session.close()
    assert manager._closed
    with pytest.raises(DurabilityError):
        manager.snapshot()
