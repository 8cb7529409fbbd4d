"""E10 — the cost-based planner on a skewed multi-join workload.

The workload is the classic star-shaped trap: the query is *written*
fact-first (``fact JOIN mid JOIN dim WHERE dim.kind = 'rare'``), so the
as-written plan builds a fact-sized intermediate before the selective
``dim`` filter ever bites.  The planner pushes the filter below the
joins, re-orders them to start from the two rare ``dim`` rows, and
probes ``mid``'s and ``fact``'s join-key columns instead of scanning
them (no declared index needed: the lookup's build is priced in).

Three measurements plus one assertion-style test:

* **written-order**: planner disabled — execute exactly as written;
* **planner**: planner enabled, statistics ANALYZEd;
* **planner-cold-stats**: planner enabled, nothing ANALYZEd (live row
  counts only) — shows estimates degrade gracefully;
* the assertion test requires the planner to pick a *different* join
  order, a ≥2x wall-clock speedup, and ``explain(analyze=True)`` to
  report estimated and actual rows per operator.
"""

from __future__ import annotations

import time

import pytest

from conftest import SMOKE, scaled
from repro.planner import PlannerOptions
from repro.relational import Database

FACT_ROWS = scaled(40_000, floor=4_000)
MID_ROWS = max(FACT_ROWS // 20, 10)
DIM_ROWS = 20
RARE_DIMS = 2

QUERY = ("SELECT COUNT(*) AS n, AVG(fact.amount) AS avg_amount "
         "FROM fact "
         "JOIN mid ON fact.mid_id = mid.id "
         "JOIN dim ON mid.dim_id = dim.id "
         "WHERE dim.kind = 'rare'")


def build_db(planner: PlannerOptions) -> Database:
    db = Database(planner=planner)
    db.execute_script("""
        CREATE TABLE fact (id INTEGER PRIMARY KEY, mid_id INTEGER,
                           amount REAL);
        CREATE TABLE mid (id INTEGER PRIMARY KEY, dim_id INTEGER);
        CREATE TABLE dim (id INTEGER PRIMARY KEY, kind TEXT);
        CREATE INDEX idx_fact_mid ON fact (mid_id);
    """)
    db.insert_rows("fact", ({"id": i, "mid_id": i % MID_ROWS,
                             "amount": float(i % 97)}
                            for i in range(FACT_ROWS)))
    db.insert_rows("mid", ({"id": i, "dim_id": i % DIM_ROWS}
                           for i in range(MID_ROWS)))
    db.insert_rows("dim", ({"id": i,
                            "kind": "rare" if i < RARE_DIMS else "common"}
                           for i in range(DIM_ROWS)))
    return db


@pytest.fixture(scope="module")
def db_written():
    return build_db(PlannerOptions(enabled=False))


@pytest.fixture(scope="module")
def db_planned():
    db = build_db(PlannerOptions())
    db.execute("ANALYZE")
    return db


@pytest.fixture(scope="module")
def db_cold_stats():
    return build_db(PlannerOptions())


def test_e10_written_order(benchmark, db_written):
    result = benchmark(lambda: db_written.query(QUERY))
    assert result.rows[0][0] > 0


def test_e10_cost_based_planner(benchmark, db_planned):
    result = benchmark(lambda: db_planned.query(QUERY))
    assert result.rows[0][0] > 0


def test_e10_planner_without_analyze(benchmark, db_cold_stats):
    result = benchmark(lambda: db_cold_stats.query(QUERY))
    assert result.rows[0][0] > 0


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_e10_planner_reorders_and_wins(db_written, db_planned):
    """The acceptance gate: different (cheaper) join order, ≥2x faster,
    estimated vs. actual rows on every join operator."""
    assert db_written.query(QUERY).rows == db_planned.query(QUERY).rows

    planned = db_planned.explain(QUERY, analyze=True)
    assert planned.reordered
    order_note = next(note for note in planned.notes
                      if note.startswith("join order"))
    assert not order_note.startswith("join order: fact")  # dim/mid first
    kinds = {node.kind for node in planned.root.walk()}
    assert "index-join" in kinds                          # fact probed
    joins = [node for node in planned.root.walk()
             if node.kind.endswith("-join")]
    assert joins
    for node in joins:
        assert node.est_rows is not None
        assert node.actual_rows is not None

    if SMOKE:
        # CI smoke runs only prove the harness executes; a wall-clock
        # ratio at toy scale on a shared runner would just be noise.
        return
    written_s = _best_of(lambda: db_written.query(QUERY))
    planned_s = _best_of(lambda: db_planned.query(QUERY))
    speedup = written_s / planned_s
    print(f"\nE10: written={written_s * 1000:.1f}ms "
          f"planned={planned_s * 1000:.1f}ms speedup={speedup:.1f}x")
    assert speedup >= 2.0, (
        f"planner speedup {speedup:.2f}x below the 2x acceptance bar")
