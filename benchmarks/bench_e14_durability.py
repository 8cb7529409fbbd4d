"""E14 — durability: WAL overhead on DML and crash-recovery time.

Two gated properties of the durability subsystem (plus measured
series):

* **WAL overhead** — the same bulk DML workload runs bare and under a
  ``fsync="batch"`` WAL.  Group commit amortizes the fsyncs (one per
  64 records / 256 KiB), so journaling must cost **≤1.3x** the bare
  run.  Timings on a shared runner drift by more than the budget, so
  the gate uses E15's **minimum paired delta**: every round times a
  bare and a durable run back-to-back (same drift regime) and the gate
  reads the best paired round.  Genuine overhead slows every round and
  still fails; a one-sided scheduler stall cannot fake a regression.
* **Recovery time** — a 50k-row / 50k-triple durable workload (scaled
  in smoke mode) is closed and recovered from snapshot + WAL tail; the
  cold restart must finish inside a generous wall-clock budget and
  reproduce the exact row/triple counts and generations.
"""

from __future__ import annotations

import time

from conftest import scaled
from repro.durability import DurabilityManager, DurabilityOptions
from repro.rdf import IRI, Literal, TripleStore
from repro.relational import Database

ROWS = scaled(50_000, floor=1_000)
TRIPLES = scaled(50_000, floor=1_000)
BATCH = 500

#: Wall-clock budget for the full cold restart (snapshot load + WAL
#: tail replay + generation restore) at either scale.
RECOVERY_BUDGET_S = 30.0
WAL_OVERHEAD_GATE = 1.3
ROUNDS = 5


def _dml_workload(db: Database) -> None:
    db.execute("CREATE TABLE measurements ("
               "id INTEGER PRIMARY KEY, site TEXT, value REAL)")
    for start in range(0, ROWS, BATCH):
        db.insert_rows("measurements", (
            {"id": i, "site": f"site{i % 97:02d}",
             "value": float(i % 1009)}
            for i in range(start, min(start + BATCH, ROWS))))
    db.execute("UPDATE measurements SET value = value + 1 "
               "WHERE id % 10 = 0")
    db.execute("DELETE FROM measurements WHERE id % 100 = 99")


def _kb_workload(store: TripleStore) -> None:
    level = IRI("urn:smg:level")
    store.add_all((IRI(f"urn:smg:elem{i}"), level,
                   Literal(float(i % 13)))
                  for i in range(TRIPLES))


def _bare_run() -> float:
    started = time.perf_counter()
    _dml_workload(Database())
    return time.perf_counter() - started


def _durable_run(directory: str) -> float:
    manager = DurabilityManager(
        DurabilityOptions(directory=directory, fsync="batch"))
    db = Database()
    manager.attach_database(db, name="main")
    manager.recover()
    started = time.perf_counter()
    _dml_workload(db)
    manager.sync()
    elapsed = time.perf_counter() - started
    manager.close()
    return elapsed


def test_e14_wal_overhead_on_dml(tmp_path, benchmark):
    rounds = [(_bare_run(), _durable_run(str(tmp_path / f"run{attempt}")))
              for attempt in range(ROUNDS)]
    bare, durable = min(rounds, key=lambda pair: pair[1] / pair[0])
    benchmark(lambda: None)  # series recorded via benchmark.extra_info
    benchmark.extra_info["bare_s"] = bare
    benchmark.extra_info["durable_s"] = durable
    benchmark.extra_info["overhead"] = durable / bare
    assert durable <= bare * WAL_OVERHEAD_GATE, (
        f"WAL overhead {durable / bare:.2f}x exceeds "
        f"{WAL_OVERHEAD_GATE}x in its best paired round "
        f"(bare {bare:.3f}s, durable {durable:.3f}s)")


def test_e14_recovery_time(tmp_path, benchmark):
    directory = str(tmp_path / "dur")
    manager = DurabilityManager(
        DurabilityOptions(directory=directory, fsync="batch"))
    db, store = Database(), TripleStore()
    manager.attach_database(db, name="main")
    manager.attach_store(store, name="kb")
    manager.recover()
    _dml_workload(db)
    manager.snapshot()          # half the history compacted ...
    _kb_workload(store)         # ... half replayed from the WAL tail
    expected_rows = db.query(
        "SELECT COUNT(*) FROM measurements").rows[0][0]
    expected = (expected_rows, len(store), db.generation,
                store.generation)
    manager.close()

    started = time.perf_counter()
    manager2 = DurabilityManager(
        DurabilityOptions(directory=directory, fsync="batch"))
    db2, store2 = Database(), TripleStore()
    manager2.attach_database(db2, name="main")
    manager2.attach_store(store2, name="kb")
    report = manager2.recover()
    elapsed = time.perf_counter() - started

    got_rows = db2.query("SELECT COUNT(*) FROM measurements").rows[0][0]
    assert (got_rows, len(store2), db2.generation, store2.generation) \
        == expected
    assert report.replay_errors == 0
    manager2.close()
    benchmark(lambda: None)
    benchmark.extra_info["recovery_s"] = elapsed
    benchmark.extra_info["rows"] = expected_rows
    benchmark.extra_info["triples"] = len(store2)
    assert elapsed <= RECOVERY_BUDGET_S, (
        f"recovery took {elapsed:.2f}s for {expected_rows} rows + "
        f"{len(store2)} triples (budget {RECOVERY_BUDGET_S}s)")
