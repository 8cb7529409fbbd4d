#!/usr/bin/env python3
"""Apply the bounds of BENCHMARK.json to two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appends, one JSON line per
run; A is the baseline (the parent commit, or the first set of runs of
one commit), B the candidate.  For every (workload, end-to-end metric)
pair one row is printed with both medians and a verdict:

* ``unresolved`` — the baseline's own spread (distance between its
  quartiles, as a share of its median) is wider than the metric's
  bound, so nothing can be said;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's spread;
* ``same`` — otherwise.

The declared timings are normalised to a reference machine speed (see
``speed.py``), so each timed-loop row also carries the verdict of the
same metric by the wall clock, as ``run.py`` records it beside the
declared one.  Where exactly one of the two reads ``worse`` the row is
marked ``DIVERGES``: either the box drifted between the two sets (the
wall-clock spread shows it) or the change slowed the speed kernel along
with the program, and the normalisation divided part of the loss away.

A run that is not ``correct`` makes its whole workload ``worse``.  The
exit status is 1 if any declared metric reads ``worse``, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced records of a results file, per workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def verdict(base: list[float], candidate: list[float], better: str,
            bound: float) -> tuple[str, float, float, float]:
    base_median = statistics.median(base)
    candidate_median = statistics.median(candidate)
    change = (candidate_median - base_median) / base_median
    loss = change if better == "lower" else -change
    base_spread = spread(base)
    if base_spread > bound:
        word = "unresolved"
    elif loss > bound:
        word = "worse"
    elif -loss > base_spread:
        word = "better"
    else:
        word = "same"
    return word, base_median, candidate_median, base_spread


def compare(base_path: str, candidate_path: str,
            benchmark_path: str = BENCHMARK_JSON) -> list[tuple]:
    with open(benchmark_path, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    base_runs = load_runs(base_path)
    candidate_runs = load_runs(candidate_path)
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        base = base_runs.get(workload, [])
        candidate = candidate_runs.get(workload, [])
        if not base or not candidate:
            continue
        broken = not all(record["correct"] for record in base + candidate)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            word, base_median, candidate_median, base_spread = verdict(
                [record["metrics"][name] for record in base],
                [record["metrics"][name] for record in candidate],
                metric["better"], metric["bound"])
            wall_word = ""
            if name in base[0].get("wall_clock", {}):
                wall_word = verdict(
                    [record["wall_clock"][name] for record in base],
                    [record["wall_clock"][name] for record in candidate],
                    metric["better"], metric["bound"])[0]
            rows.append((workload, name, "worse" if broken else word,
                         base_median, candidate_median, base_spread,
                         metric["bound"], metric["unit"], wall_word))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':18s} {'metric':18s} {'verdict':10s} "
          f"{'A median':>12s} {'B median':>12s} {'A spread':>9s} "
          f"{'bound':>6s} {'unit':6s} wall clock")
    for (workload, name, word, base_median, candidate_median,
         base_spread, bound, unit, wall_word) in rows:
        diverges = wall_word and (word == "worse") != (wall_word == "worse")
        print(f"{workload:18s} {name:18s} {word:10s} "
              f"{base_median:12.4f} {candidate_median:12.4f} "
              f"{base_spread:9.4f} {bound:6.2f} {unit:6s} {wall_word}"
              f"{' DIVERGES' if diverges else ''}")
    return 1 if any(row[2] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
