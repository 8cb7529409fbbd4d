#!/usr/bin/env python3
"""Measure the per-row costs behind ``repro.planner.cost``'s join constants.

    PYTHONPATH=src python benchmarks/measure_join_costs.py

Times ``SELECT COUNT(*) FROM l JOIN r ON l.k = r.k`` over synthetic
INTEGER-keyed tables with the join strategy forced through a
``PlanHint``, varying one input at a time so that each cost is a slope:
the build side with one probe row and no match, the probe side with one
build row and no match, index lookups that find nothing, and every key
matching once.  A join reads its inputs as column batches and emits
index vectors, so what each slope has subtracted is the column scan of
the varied side (``SELECT COUNT(*)``, measured on its own), and the
result is printed in the cost model's unit next to the constant it
checks.  The unit is fixed by the scan, which this does not re-measure:
one materialised row of a columnar scan (``SELECT *``) is
``SCAN_COST_PER_ROW * VECTORIZED_SCAN_FACTOR``.  The semi join (``l.k IN
(SELECT k FROM r)``) is measured the same way beside the hash join whose
constants price it.  Not a test: the numbers go in the comment above the
constants.
"""

from __future__ import annotations

import gc
import time

from repro.planner import cost
from repro.relational import Database, ast
from repro.relational.executor import build_select
from repro.relational.parser import parse_sql

SMALL, LARGE = 10_000, 20_000
JOIN = "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k"
SEMI_JOIN = "SELECT COUNT(*) FROM l WHERE l.k IN (SELECT k FROM r)"


def database(left: range, right: range) -> Database:
    db = Database()
    for name, keys in (("l", left), ("r", right)):
        db.execute(f"CREATE TABLE {name} (k INTEGER, v REAL)")
        db.insert_rows(name, ({"k": key, "v": float(key)} for key in keys))
    db.execute("CREATE INDEX idx_r_k ON r (k)")
    return db


def seconds(db: Database, sql: str, strategy: str | None = None) -> float:
    """Best of fifteen runs of *sql*'s operator tree, freshly built."""
    query = parse_sql(sql)
    if strategy is not None:
        query.core.from_clause.hint = ast.PlanHint(strategy=strategy)
    best = float("inf")
    for _ in range(15):
        root = build_select(query, db.catalog)
        gc.collect()
        started = time.perf_counter()
        root.run()
        best = min(best, time.perf_counter() - started)
    return best


def slope(strategy: str | None, sql: str, small, large) -> float:
    """Seconds per extra row between two database shapes."""
    return (seconds(database(*large), sql, strategy)
            - seconds(database(*small), sql, strategy)) / (LARGE - SMALL)


def main() -> None:
    none = range(-1, 0)     # one row no other table's key equals
    scan = slope(None, "SELECT * FROM l",
                 (range(SMALL), none), (range(LARGE), none))
    # What a join reads of its inputs: column batches, no rows.
    columns = slope(None, "SELECT COUNT(*) FROM l",
                    (range(SMALL), none), (range(LARGE), none))
    build = slope("hash-join", JOIN, (none, range(SMALL)),
                  (none, range(LARGE))) - columns
    probe = slope("hash-join", JOIN, (range(SMALL), none),
                  (range(LARGE), none)) - columns
    lookup = slope("index-join", JOIN, (range(SMALL), none),
                   (range(LARGE), none)) - columns
    # Every left key matches once: what is left after build and probe
    # is the cost of emitting the pairs.
    out = slope("hash-join", JOIN, (range(SMALL), range(SMALL)),
                (range(LARGE), range(LARGE))) - 2 * columns - build - probe
    fetch = slope("index-join", JOIN, (range(SMALL), range(LARGE)),
                  (range(LARGE), range(LARGE))) - columns - lookup
    semi_build = slope(None, SEMI_JOIN, (none, range(SMALL)),
                       (none, range(LARGE))) - columns
    semi_probe = slope(None, SEMI_JOIN, (range(SMALL), none),
                       (range(LARGE), none)) - columns

    unit = scan / (cost.SCAN_COST_PER_ROW * cost.VECTORIZED_SCAN_FACTOR)
    print(f"{'cost':<28}{'ns/row':>8}{'units':>8}{'constant':>10}")
    for name, value, constant in (
            ("scan (rows materialised)", scan,
             cost.SCAN_COST_PER_ROW * cost.VECTORIZED_SCAN_FACTOR),
            ("column scan (subtracted)", columns, 0.0),
            ("HASH_BUILD_PER_ROW", build, cost.HASH_BUILD_PER_ROW),
            ("HASH_PROBE_PER_ROW", probe, cost.HASH_PROBE_PER_ROW),
            ("INDEX_PROBE_PER_LOOKUP", lookup, cost.INDEX_PROBE_PER_LOOKUP),
            ("OUTPUT_COST_PER_ROW", out, cost.OUTPUT_COST_PER_ROW),
            ("index fetch + output", fetch, 1.0 + cost.OUTPUT_COST_PER_ROW),
            ("semi-join build", semi_build, cost.HASH_BUILD_PER_ROW),
            ("semi-join probe", semi_probe, cost.HASH_PROBE_PER_ROW)):
        print(f"{name:<28}{value * 1e9:>8.0f}{value / unit:>8.2f}"
              f"{constant:>10.2f}")


if __name__ == "__main__":
    main()
