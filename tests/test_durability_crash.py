"""Crash-point matrix: recovery from a fault at every write boundary.

The harness runs a fixed workload once under a recording
:class:`FaultyOpener` to learn every OS write boundary the durability
layer produces, then re-runs it once per fault budget — crashing
exactly *at* each boundary (the next write vanishes) and one byte
*before* it (the write tears mid-frame).  After every simulated power
cut, recovery with a healthy opener must land on a state byte-identical
(by canonical digest) to a never-crashed reference that applied some
prefix of the same operations — no torn frame applied, no acknowledged
record silently dropped, no half-written snapshot trusted.
"""

from __future__ import annotations

import pytest

from repro.cluster import WalTailer
from repro.crosse import CrossePlatform
from repro.durability import (CrashPoint, DurabilityManager,
                              DurabilityOptions, FaultyOpener,
                              crash_budgets, database_state,
                              platform_state, state_digest, store_state)
from repro.rdf import Literal, Namespace, TripleStore
from repro.relational import Database

SMG = Namespace("http://smartground.eu/ns#")


# -- the workload: one journaled record per op, all deterministic ------------

OPS = [
    lambda db, store: db.execute(
        "CREATE TABLE landfill (id INTEGER PRIMARY KEY, name TEXT, "
        "area REAL)"),
    lambda db, store: db.execute(
        "INSERT INTO landfill VALUES (1, 'a', 120.5)"),
    lambda db, store: db.execute(
        "INSERT INTO landfill VALUES (2, 'b', NULL)"),
    lambda db, store: store.add(SMG.Mercury, SMG.dangerLevel,
                                Literal("high")),
    lambda db, store: db.execute(
        "UPDATE landfill SET area = 7.0 WHERE id = 2"),
    lambda db, store: store.add(SMG.Iron, SMG.dangerLevel,
                                Literal("low")),
    lambda db, store: db.execute(
        "INSERT INTO landfill VALUES (3, 'c', 45.25)"),
    lambda db, store: store.remove(SMG.Iron, SMG.dangerLevel,
                                   Literal("low")),
    lambda db, store: db.execute("DELETE FROM landfill WHERE id = 1"),
    lambda db, store: db.execute("CREATE TABLE elem (x TEXT)"),
]

EXTRA_OPS = [  # applicable on top of *any* recovered prefix
    lambda db, store: db.execute("CREATE TABLE after_crash (v INTEGER)"),
    lambda db, store: db.execute("INSERT INTO after_crash VALUES (42)"),
    lambda db, store: store.add(SMG.Lead, SMG.dangerLevel,
                                Literal("high")),
]


def stack_digest(db: Database, store: TripleStore) -> tuple[str, str]:
    return (state_digest(database_state(db)),
            state_digest(store_state(store)))


def reference_digest(ops) -> tuple[str, str]:
    db, store = Database(), TripleStore()
    for op in ops:
        op(db, store)
    return stack_digest(db, store)


@pytest.fixture(scope="module")
def prefix_digests() -> list[tuple[str, str]]:
    """Digest of the never-crashed stack after every op prefix."""
    digests = [reference_digest(OPS[:k]) for k in range(len(OPS) + 1)]
    # Every op must change observable state, or digest→prefix lookups
    # would be ambiguous.
    assert len(set(digests)) == len(digests)
    return digests


def run_workload(directory: str, opener, snapshots_at=()) -> bool:
    """Apply OPS under durability; True if the simulated crash fired."""
    manager = DurabilityManager(DurabilityOptions(
        directory=directory, fsync="always", file_opener=opener))
    db, store = Database(), TripleStore()
    manager.attach_database(db, name="main")
    manager.attach_store(store, name="kb")
    crashed = False
    try:
        manager.recover()
        for index, op in enumerate(OPS):
            if index in snapshots_at:
                manager.snapshot()
            op(db, store)
    except CrashPoint:
        crashed = True
    try:
        manager.close()
    except CrashPoint:
        crashed = True
    return crashed


def recover_stack(directory: str):
    manager = DurabilityManager(DurabilityOptions(
        directory=directory, fsync="never"))
    db, store = Database(), TripleStore()
    manager.attach_database(db, name="main")
    manager.attach_store(store, name="kb")
    report = manager.recover()
    return manager, db, store, report


def tail_digest(directory: str) -> tuple[str, str]:
    """What a read replica polling the crashed directory holds.  The
    tailer is read-only, so it sees the torn tail recovery truncates."""
    db, store = Database(name="main"), TripleStore()
    WalTailer(directory, database=db, stores={"kb": store}).poll()
    return stack_digest(db, store)


def record_boundaries(tmp_path, snapshots_at=()) -> list[int]:
    opener = FaultyOpener()
    crashed = run_workload(str(tmp_path / "clean"), opener, snapshots_at)
    assert not crashed
    assert opener.write_boundaries
    return crash_budgets(opener.write_boundaries)


# -- the matrix --------------------------------------------------------------


def test_crash_at_every_wal_boundary(tmp_path, prefix_digests):
    budgets = record_boundaries(tmp_path)
    saw_torn_frame = False
    saw_full_history = False
    for budget in budgets:
        directory = str(tmp_path / f"crash-{budget}")
        crashed = run_workload(directory, FaultyOpener(budget))
        assert crashed or budget == budgets[-1]
        tailed = tail_digest(directory)
        manager, db, store, report = recover_stack(directory)
        digest = stack_digest(db, store)
        assert tailed == digest, \
            f"budget {budget}: a caught-up replica differs from recovery"
        assert digest in prefix_digests, \
            f"budget {budget}: recovered state matches no op prefix"
        assert report.replay_errors == 0
        saw_torn_frame = saw_torn_frame or report.truncated_bytes > 0
        saw_full_history = saw_full_history or digest == prefix_digests[-1]
        manager.close()
    # The matrix must have exercised both a mid-frame tear and at least
    # one crash late enough that the whole history survived.
    assert saw_torn_frame
    assert saw_full_history


def test_crash_matrix_with_snapshots(tmp_path, prefix_digests):
    """Faults across two snapshot rotations, including mid-snapshot-write.

    A crash while the snapshot body is being written must fall back to
    the previous epoch (or plain WAL replay) with a longer tail — and
    still land on a consistent op prefix.
    """
    snapshots_at = (3, 7)
    budgets = record_boundaries(tmp_path, snapshots_at)
    observed_epochs = set()
    for budget in budgets:
        directory = str(tmp_path / f"crash-{budget}")
        run_workload(directory, FaultyOpener(budget), snapshots_at)
        tailed = tail_digest(directory)
        manager, db, store, report = recover_stack(directory)
        assert tailed == stack_digest(db, store), \
            f"budget {budget}: a caught-up replica differs from recovery"
        assert stack_digest(db, store) in prefix_digests, \
            f"budget {budget}: recovered state matches no op prefix"
        assert report.replay_errors == 0
        observed_epochs.add(report.snapshot_epoch)
        manager.close()
    # Early crashes predate any snapshot; mid-range ones crash inside
    # the second snapshot write and fall back to epoch 1; late ones
    # recover from epoch 2.
    assert {None, 1, 2} <= observed_epochs


def test_writes_continue_after_recovery(tmp_path, prefix_digests):
    budgets = record_boundaries(tmp_path)
    for budget in budgets[:: max(1, len(budgets) // 5)]:
        directory = str(tmp_path / f"crash-{budget}")
        run_workload(directory, FaultyOpener(budget))
        manager, db, store, _report = recover_stack(directory)
        prefix = prefix_digests.index(stack_digest(db, store))
        for op in EXTRA_OPS:
            op(db, store)
        expected = reference_digest(OPS[:prefix] + EXTRA_OPS)
        assert stack_digest(db, store) == expected
        manager.close()
        # The post-recovery records are durable in their own right.
        manager2, db2, store2, report2 = recover_stack(directory)
        assert stack_digest(db2, store2) == expected
        assert report2.replay_errors == 0
        manager2.close()


def test_clean_shutdown_recovers_every_acknowledged_record(tmp_path):
    directory = str(tmp_path / "clean-close")
    crashed = run_workload(directory, FaultyOpener())
    assert not crashed
    manager, db, store, report = recover_stack(directory)
    assert stack_digest(db, store) == reference_digest(OPS)
    assert report.truncated_bytes == 0
    assert report.replay_errors == 0
    manager.close()


# -- the platform stack under the same harness -------------------------------

# One WAL record per op — the durability atomicity unit.  A compound
# platform call like ``register_user`` journals a "user" record plus a
# "context" record, and a crash *between* them legitimately recovers
# the half-applied compound; the matrix therefore enumerates the
# record-level steps.
PLATFORM_OPS = [
    lambda p: p.users.register("giulia", "Giulia", "polito", ["mining"]),
    lambda p: p.context.record_concepts("giulia", ["mining"], "declare"),
    lambda p: p.users.register("dirk", "Dirk", "tu-berlin", ["recycling"]),
    lambda p: p.context.record_concepts("dirk", ["recycling"], "declare"),
    lambda p: p.annotate_free("giulia", SMG.Mercury, SMG.dangerLevel,
                              Literal("high")),
    lambda p: p.accept_statement("dirk", 0),
    lambda p: p.register_stored_query(
        "danger", "SELECT ?s WHERE { ?s smg:dangerLevel ?o }", "giulia"),
    lambda p: p.add_document("d1", "Survey", "heavy metals", ["mercury"]),
    lambda p: p.context.record_resource("giulia", "table:landfill"),
]


def platform_prefix_digests() -> list[str]:
    digests = []
    for k in range(len(PLATFORM_OPS) + 1):
        platform = CrossePlatform(Database())
        for op in PLATFORM_OPS[:k]:
            op(platform)
        digests.append(state_digest(platform_state(platform)))
    assert len(set(digests)) == len(digests)
    return digests


def run_platform_workload(directory: str, opener) -> None:
    options = DurabilityOptions(directory=directory, fsync="always",
                                file_opener=opener)
    try:
        platform = CrossePlatform(Database(), durability=options)
        for op in PLATFORM_OPS:
            op(platform)
    except CrashPoint:
        return
    try:
        platform.durability.close()
    except CrashPoint:
        pass


def test_platform_crash_matrix(tmp_path):
    prefixes = platform_prefix_digests()
    opener = FaultyOpener()
    run_platform_workload(str(tmp_path / "clean"), opener)
    assert not opener.crashed
    for budget in crash_budgets(opener.write_boundaries):
        directory = str(tmp_path / f"crash-{budget}")
        run_platform_workload(directory, FaultyOpener(budget))
        platform = CrossePlatform(
            Database(),
            durability=DurabilityOptions(directory=directory,
                                         fsync="never"))
        digest = state_digest(platform_state(platform))
        assert digest in prefixes, \
            f"budget {budget}: platform state matches no op prefix"
        assert platform.durability.last_recovery.replay_errors == 0
        platform.durability.close()
