"""E17 — columnar storage and vectorized batch execution.

The same 100k-row table is queried twice through the one executor: with
the operators' specialised column kernels (selection masks, gathers,
column folds — the default) and under the ``generic_kernels`` test seam,
where every filter, projection and aggregate evaluates its compiled
expressions row by row.  Three shapes are measured:

* **scan**: ``SELECT * FROM events`` — pure column-to-row throughput;
* **filtered scan**: one comparison kernel producing a selection mask;
* **group by**: ``GROUP BY`` with COUNT/SUM/AVG folded column-wise.

The assertion test is the acceptance gate: identical results from both
kernel sets, ``explain()`` marking the specialised operators, and a ≥5x
speedup on the scan and GROUP BY shapes at full scale (smoke runs assert
only direction — column kernels no slower — since toy-scale ratios are
noise).
"""

from __future__ import annotations

import time

import pytest

from conftest import SMOKE, scaled
from repro.relational import Database

ROWS = scaled(100_000, floor=5_000)
GROUPS = 64

SCAN = "SELECT * FROM events"
FILTERED = "SELECT * FROM events WHERE amount > 48.0"
GROUP_BY = ("SELECT kind, COUNT(*) AS n, SUM(amount) AS total, "
            "AVG(amount) AS mean FROM events GROUP BY kind")


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.execute("CREATE TABLE events (id INTEGER, kind TEXT, "
               "amount REAL, flagged BOOLEAN)")
    db.insert_rows("events", ({"id": i, "kind": f"k{i % GROUPS}",
                               "amount": float(i % 97),
                               "flagged": i % 7 == 0}
                              for i in range(ROWS)))
    return db


def test_e17_scan_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(SCAN))
    assert len(result.rows) == ROWS


def test_e17_scan_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(SCAN))
    assert len(result.rows) == ROWS


def test_e17_filter_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(FILTERED))
    assert result.rows


def test_e17_filter_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(FILTERED))
    assert result.rows


def test_e17_group_by_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(GROUP_BY))
    assert len(result.rows) == GROUPS


def test_e17_group_by_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(GROUP_BY))
    assert len(result.rows) == GROUPS


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_e17_vectorized_wins(db, generic_kernels):
    """Acceptance gate: identical rows, specialised operators visible in
    the plan, ≥5x on scan and GROUP BY against the generic kernels."""
    def generic(query):
        with generic_kernels():
            return db.query(query)

    for query in (SCAN, FILTERED, GROUP_BY):
        assert db.query(query).rows == generic(query).rows

    planned = db.explain(FILTERED, analyze=True)
    marks = {node.kind for node in planned.root.walk() if node.vectorized}
    assert {"scan", "filter"} <= marks
    planned = db.explain(GROUP_BY, analyze=True)
    marks = {node.kind for node in planned.root.walk() if node.vectorized}
    assert {"scan", "aggregate"} <= marks
    assert any(note.startswith("vectorized:") for note in planned.notes)

    timings = {}
    for name, query in (("scan", SCAN), ("filter", FILTERED),
                        ("group-by", GROUP_BY)):
        vector_s = _best_of(lambda: db.query(query))
        row_s = _best_of(lambda: generic(query))
        timings[name] = (vector_s, row_s, row_s / vector_s)
    print("\nE17: " + "  ".join(
        f"{name} vec={vector_s * 1000:.1f}ms generic={row_s * 1000:.1f}ms "
        f"({ratio:.1f}x)"
        for name, (vector_s, row_s, ratio) in timings.items()))

    if SMOKE:
        # Toy-scale ratios on shared CI runners are noise; just require
        # the column kernels not to lose outright.
        for name, (vector_s, row_s, _ratio) in timings.items():
            assert vector_s <= row_s * 1.5, (
                f"vectorized {name} slower than generic even directionally")
        return
    for name in ("scan", "group-by"):
        ratio = timings[name][2]
        assert ratio >= 5.0, (
            f"vectorized {name} speedup {ratio:.2f}x below the 5x bar")
