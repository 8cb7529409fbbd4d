"""E17 — columnar storage and vectorized batch execution.

The same 100k-row table is queried twice through the one executor: with
the operators' specialised column kernels (selection masks, gathers,
column folds, raw-key hash join, native-key sort — the default) and under
the ``generic_kernels`` test seam, where every filter, projection,
aggregate, join key and sort comparison goes through its compiled
expression row by row.  Six shapes are measured:

* **scan**: ``SELECT * FROM events`` — pure column-to-row throughput;
* **filtered scan**: one comparison kernel producing a selection mask;
* **group by**: ``GROUP BY`` with COUNT/SUM/AVG folded column-wise;
* **equi-join**: 100k x 10k on an INTEGER key — the hash join builds and
  probes whole key columns instead of normalising a key tuple per row.
  Measured twice: with a filter on the 10k side that leaves a tenth of
  the probe rows a match (the shape of the e2e benchmark's joins: the
  probe is the work), and with every probe row matching (100k output
  rows, emitted as index vectors and gathered column by column — both
  key extractors share that emission);
* **order by**: two keys, mixed direction — C comparisons on the native
  key columns instead of ``compare_values`` per comparison.

A seventh shape has its own, smaller tables and gate
(``test_e17_semi_join_wins``): ``tag [NOT] IN (SELECT tag FROM ...)``
over 20k rows against an 8-key and a 2k-key build side — the WHERE-side
rewrite of the paper's Examples 4.5 / 4.6 — as a semi / anti join
probing a key set with the whole column, against the compiled closure
testing the (same, once-built) set row by row.

The assertion test is the acceptance gate: identical results from both
kernel sets, ``explain()`` marking the specialised operators, and at
full scale a ≥5x speedup on the scan and GROUP BY shapes and ≥3x on
both joins and the ORDER BY shape (the all-match join read 33 ms against
255 ms generic, 7.7x, once the join emitted columns; 3.5x while it
emitted row tuples).  Smoke runs hold every shape to direction only
(column kernels no slower — toy-scale ratios are noise).
"""

from __future__ import annotations

import time

import pytest

from conftest import SMOKE, scaled
from repro.relational import Database

ROWS = scaled(100_000, floor=5_000)
DIMS = ROWS // 10
GROUPS = 64

SCAN = "SELECT * FROM events"
FILTERED = "SELECT * FROM events WHERE amount > 48.0"
GROUP_BY = ("SELECT kind, COUNT(*) AS n, SUM(amount) AS total, "
            "AVG(amount) AS mean FROM events GROUP BY kind")
JOIN = ("SELECT e.id, d.label FROM events e JOIN dims d "
        "ON e.dim_id = d.id")
JOIN_SELECTIVE = JOIN + f" WHERE d.id < {DIMS // 10}"
ORDER_BY = "SELECT id, kind, amount FROM events ORDER BY kind, amount DESC"


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.execute("CREATE TABLE events (id INTEGER, kind TEXT, "
               "amount REAL, flagged BOOLEAN, dim_id INTEGER)")
    db.insert_rows("events", ({"id": i, "kind": f"k{i % GROUPS}",
                               "amount": float(i % 97),
                               "flagged": i % 7 == 0,
                               "dim_id": (i * 7919) % DIMS}
                              for i in range(ROWS)))
    # No key constraint: an index would turn the join into index probes.
    db.execute("CREATE TABLE dims (id INTEGER, label TEXT)")
    db.insert_rows("dims", ({"id": i, "label": f"d{i}"}
                            for i in range(DIMS)))
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


def test_e17_join_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(JOIN))
    assert len(result.rows) == ROWS


def test_e17_join_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(JOIN))
    assert len(result.rows) == ROWS


def test_e17_join_selective_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(JOIN_SELECTIVE))
    assert len(result.rows) == ROWS // 10


def test_e17_join_selective_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(JOIN_SELECTIVE))
    assert len(result.rows) == ROWS // 10


def test_e17_order_by_vectorized(benchmark, db):
    result = benchmark(lambda: db.query(ORDER_BY))
    assert len(result.rows) == ROWS


def test_e17_order_by_generic(benchmark, db, generic_kernels):
    with generic_kernels():
        result = benchmark(lambda: db.query(ORDER_BY))
    assert len(result.rows) == ROWS


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_e17_vectorized_wins(db, generic_kernels):
    """Acceptance gate: identical rows, specialised operators visible in
    the plan, ≥5x on scan and GROUP BY and ≥3x on both equi-joins and
    ORDER BY against the generic kernels."""
    def generic(query):
        with generic_kernels():
            return db.query(query)

    for query in (SCAN, FILTERED, GROUP_BY, JOIN, JOIN_SELECTIVE,
                  ORDER_BY):
        assert db.query(query).rows == generic(query).rows

    planned = db.explain(FILTERED, analyze=True)
    marks = {node.kind for node in planned.root.walk() if node.vectorized}
    assert {"scan", "filter"} <= marks
    planned = db.explain(GROUP_BY, analyze=True)
    marks = {node.kind for node in planned.root.walk() if node.vectorized}
    assert {"scan", "aggregate"} <= marks
    assert any(note.startswith("vectorized:") for note in planned.notes)
    for query in (JOIN, JOIN_SELECTIVE):
        assert "hash-join" in db.explain(query).root.vectorized_ops
    assert "sort" in db.explain(ORDER_BY, analyze=True).root.vectorized_ops

    timings = {}
    for name, query in (("scan", SCAN), ("filter", FILTERED),
                        ("group-by", GROUP_BY), ("join", JOIN),
                        ("join-selective", JOIN_SELECTIVE),
                        ("order-by", ORDER_BY)):
        vector_s = _best_of(lambda: db.query(query))
        row_s = _best_of(lambda: generic(query))
        timings[name] = (vector_s, row_s, row_s / vector_s)
    print("\nE17: " + "  ".join(
        f"{name} vec={vector_s * 1000:.1f}ms generic={row_s * 1000:.1f}ms "
        f"({ratio:.1f}x)"
        for name, (vector_s, row_s, ratio) in timings.items()))

    # Toy-scale ratios on shared CI runners are noise; just require the
    # column kernels not to lose outright.
    for name, (vector_s, row_s, _ratio) in timings.items():
        assert vector_s <= row_s * 1.5, (
            f"vectorized {name} slower than generic even directionally")
    if SMOKE:
        return
    for name, bar in (("scan", 5.0), ("group-by", 5.0), ("join", 3.0),
                      ("join-selective", 3.0), ("order-by", 3.0)):
        ratio = timings[name][2]
        assert ratio >= bar, (
            f"vectorized {name} speedup {ratio:.2f}x below the {bar:.0f}x "
            "bar")


# -- IN (subquery) as a semi / anti join ------------------------------------------

PROBE_ROWS = scaled(20_000, floor=2_000)
TAGS = PROBE_ROWS // 5
BUILD_SIDES = {"few": 8, "many": TAGS // 2}


@pytest.fixture(scope="module")
def semi_db():
    db = Database()
    db.execute("CREATE TABLE probe (id INTEGER, tag TEXT)")
    db.insert_rows("probe", ({"id": i, "tag": f"t{(i * 7919) % TAGS}"}
                             for i in range(PROBE_ROWS)))
    for name, keys in BUILD_SIDES.items():
        db.execute(f"CREATE TABLE {name} (tag TEXT)")
        db.insert_rows(name, ({"tag": f"t{i * 2}"} for i in range(keys)))
    return db


def _semi_sql(build: str, negated: bool) -> str:
    return (f"SELECT id FROM probe WHERE tag {'NOT ' * negated}IN "
            f"(SELECT tag FROM {build})")


def test_e17_semi_join_wins(semi_db, generic_kernels):
    """Same rows in the same order, the semi / anti join in the plan,
    absolute times for both, and ≥5x on the 8-key build side."""
    def generic(query):
        with generic_kernels():
            return semi_db.query(query)

    timings = {}
    for build, keys in BUILD_SIDES.items():
        for negated in (False, True):
            sql = _semi_sql(build, negated)
            result = semi_db.query(sql)
            assert result.rows == generic(sql).rows
            hits = PROBE_ROWS // TAGS * keys
            assert len(result.rows) == (PROBE_ROWS - hits if negated
                                        else hits)
            assert ("anti-join" if negated else "semi-join") \
                in result.plan.vectorized_ops
            vector_s = _best_of(lambda: semi_db.query(sql), 5)
            row_s = _best_of(lambda: generic(sql), 5)
            timings[f"{keys}-key {'NOT IN' if negated else 'IN'}"] = (
                vector_s, row_s, row_s / vector_s)
    print("\nE17 semi-join: " + "  ".join(
        f"{name} default={vector_s * 1000:.2f}ms "
        f"generic={row_s * 1000:.2f}ms ({ratio:.1f}x)"
        for name, (vector_s, row_s, ratio) in timings.items()))
    for name, (vector_s, row_s, _ratio) in timings.items():
        assert vector_s <= row_s * 1.5, (
            f"semi-join {name} slower than the closure even directionally")
    if SMOKE:
        return
    ratio = timings["8-key IN"][2]
    assert ratio >= 5.0, (
        f"semi-join speedup {ratio:.2f}x on the 8-key build side is below "
        "the 5x bar")
