#!/usr/bin/env python3
"""Measure the per-row costs behind ``repro.planner.cost``'s join constants.

    PYTHONPATH=src python benchmarks/measure_join_costs.py [--check]

Times ``SELECT COUNT(*) FROM l JOIN r ON l.k = r.k`` over synthetic
INTEGER-keyed tables (no index declared: a join may probe any column)
with the join strategy forced through a ``PlanHint``, varying one thing
at a time so that each cost is a slope:

* the build side, with one probe row and no match, its keys unique and
  each held twice (priced as the build of unique keys and a lookup's);
* the probe side, with one build row and no match — for the hash join
  and for the index join's lookups;
* the inner column's lookup built afresh on every run, one outer row:
  more rows under the same keys, and as many rows under more keys;
* how many outer rows find their one row, every size held: a hash
  join's output, an index join's fetch.

A join reads its inputs as column batches and emits index vectors, so
where a slope grows an input that is scanned, the column scan of that
side (``SELECT COUNT(*)``, measured on its own) is subtracted.  Each
slope is the median of five estimates, each from the best of nine runs
per shape and read in the unit of the scan timed with it (the median of
three): the box's speed drifts between estimates, not within one.  The
unit is fixed by the scan, which this does not re-measure: one
materialised row of a columnar scan (``SELECT *``) is
``SCAN_COST_PER_ROW * VECTORIZED_SCAN_FACTOR``.  The semi join (``l.k IN
(SELECT k FROM r)``) is measured the same way beside the hash join whose
constants price it.

With ``--check`` the exit status is 1 when a gated constant is off its
measured slope by more than 2x either way.  The output and semi-join
slopes are noise around 0 on a ``COUNT(*)``, which gathers no column:
they are printed, not gated.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

from repro.planner import cost
from repro.relational import Database, ast
from repro.relational.executor import build_select
from repro.relational.parser import parse_sql

SMALL, LARGE = 10_000, 20_000
#: Distinct keys of an inner side whose rows repeat them.
KEYS = 500
JOIN = "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k"
SEMI_JOIN = "SELECT COUNT(*) FROM l WHERE l.k IN (SELECT k FROM r)"
#: A constant is off when it is more than this factor from its slope.
TOLERANCE = 2.0
#: Per measured cost, the constant it is printed against (a semi join
#: is priced as the hash join).
CONSTANTS = {
    "HASH_BUILD_PER_ROW": cost.HASH_BUILD_PER_ROW,
    "hash build, keys repeated": cost.HASH_BUILD_PER_ROW
    + cost.LOOKUP_BUILD_PER_ROW + cost.LOOKUP_BUILD_PER_KEY / 2,
    "HASH_PROBE_PER_ROW": cost.HASH_PROBE_PER_ROW,
    "INDEX_PROBE_PER_LOOKUP": cost.INDEX_PROBE_PER_LOOKUP,
    "INDEX_FETCH_PER_HIT": cost.INDEX_FETCH_PER_HIT,
    "LOOKUP_BUILD_PER_ROW": cost.LOOKUP_BUILD_PER_ROW,
    "LOOKUP_BUILD_PER_KEY": cost.LOOKUP_BUILD_PER_KEY,
    "OUTPUT_COST_PER_ROW": cost.OUTPUT_COST_PER_ROW,
    "semi-join build": cost.HASH_BUILD_PER_ROW,
    "semi-join probe": cost.HASH_PROBE_PER_ROW}
#: Slopes that are noise around 0: printed, not checked.
UNGATED = ("OUTPUT_COST_PER_ROW", "semi-join build", "semi-join probe")


def database(left: range, right: range) -> Database:
    db = Database()
    for name, keys in (("l", left), ("r", right)):
        db.execute(f"CREATE TABLE {name} (k INTEGER, v REAL)")
        db.insert_rows(name, ({"k": key, "v": float(key)} for key in keys))
    return db


def seconds(db: Database, sql: str, strategy: str | None = None,
            fresh_lookup: bool = False) -> float:
    """Best of nine runs of *sql*'s operator tree, freshly built — with
    ``r``'s on-demand paths dropped before each run when *fresh_lookup*."""
    query = parse_sql(sql)
    if strategy is not None:
        query.core.from_clause.hint = ast.PlanHint(strategy=strategy)
    inner = db.table("r")
    best = float("inf")
    for _ in range(9):
        root = build_select(query, db.catalog)
        if fresh_lookup:
            inner.paths.forget()
        gc.collect()
        started = time.perf_counter()
        root.run()
        best = min(best, time.perf_counter() - started)
    return best


def slope(sql: str, small: tuple, large: tuple, rows: int,
          strategy: str | None = None, fresh_lookup: bool = False
          ) -> float:
    """Seconds per row of the *rows* more that *large* holds than *small*
    (each a ``(left keys, right keys)`` shape)."""
    return (seconds(database(*large), sql, strategy, fresh_lookup)
            - seconds(database(*small), sql, strategy, fresh_lookup)) / rows


def estimate() -> dict[str, float]:
    """One estimate of every cost, in units of the scan measured with
    them."""
    grown = LARGE - SMALL
    none = range(-1, 0)     # one row no other table's key equals
    small, large = range(SMALL), range(LARGE)
    unmatched = range(LARGE, 2 * LARGE)   # as many keys, none in `large`
    repeated = ([key % KEYS for key in small], [key % KEYS for key in large])
    few = [key % (LARGE // 20) for key in large]   # as many rows, 1/20 keys
    twice = ([key // 2 for key in small], [key // 2 for key in large])
    # The unit every slope is read in: the median of three, as it
    # scales them all.
    scan = statistics.median(
        slope("SELECT * FROM l", (small, none), (large, none), grown)
        for _ in range(3))
    # What a join reads of its scanned inputs: column batches, no rows.
    columns = slope("SELECT COUNT(*) FROM l", (small, none), (large, none),
                    grown)
    costs = {
        "HASH_BUILD_PER_ROW": slope(JOIN, (none, small), (none, large),
                                    grown, "hash-join") - columns,
        # Keys held twice: the one dict of unique keys is tried, then
        # each key's rows are listed, as a lookup lists them.
        "hash build, keys repeated": slope(
            JOIN, (none, twice[0]), (none, twice[1]), grown,
            "hash-join") - columns,
        "HASH_PROBE_PER_ROW": slope(JOIN, (small, none), (large, none),
                                    grown, "hash-join") - columns,
        "INDEX_PROBE_PER_LOOKUP": slope(JOIN, (small, none), (large, none),
                                        grown, "index-join") - columns,
        # Every size held, LARGE more outer rows finding their one row.
        "INDEX_FETCH_PER_HIT": slope(JOIN, (large, unmatched),
                                     (large, large), LARGE, "index-join"),
        # An index join never scans its inner side; it builds the lookup
        # of more rows under as many keys, or as many rows, more keys.
        "LOOKUP_BUILD_PER_ROW": slope(JOIN, (none, repeated[0]),
                                      (none, repeated[1]), grown,
                                      "index-join", True),
        "LOOKUP_BUILD_PER_KEY": slope(JOIN, (none, few), (none, large),
                                      LARGE - LARGE // 20, "index-join",
                                      True),
        "OUTPUT_COST_PER_ROW": slope(JOIN, (large, unmatched),
                                     (large, large), LARGE, "hash-join"),
        "semi-join build": slope(SEMI_JOIN, (none, small), (none, large),
                                 grown) - columns,
        "semi-join probe": slope(SEMI_JOIN, (small, none), (large, none),
                                 grown) - columns}
    unit = scan / (cost.SCAN_COST_PER_ROW * cost.VECTORIZED_SCAN_FACTOR)
    return {name: value / unit for name, value in costs.items()}


def measure(repeats: int = 5) -> dict[str, float]:
    """The median of *repeats* estimates of every cost, in units."""
    estimates = [estimate() for _ in range(repeats)]
    return {name: statistics.median(found[name] for found in estimates)
            for name in estimates[0]}


def off(value: float, constant: float) -> bool:
    """Whether *constant* is more than ``TOLERANCE`` x from *value*."""
    return not constant / TOLERANCE <= value <= constant * TOLERANCE


def main(argv: list[str]) -> int:
    check = "--check" in argv
    failed = []
    print(f"{'cost':<26}{'units':>8}{'constant':>10}")
    for name, value in measure().items():
        constant = CONSTANTS[name]
        gated = name not in UNGATED
        flag = ""
        if gated and off(value, constant):
            failed.append(name)
            flag = f"  off by more than {TOLERANCE:g}x"
        elif not gated:
            flag = "  (not gated)"
        print(f"{name:<26}{value:>8.2f}{constant:>10.2f}{flag}")
    if check and failed:
        print("off their constants: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
