"""E13 — parallel vs serial fragment shipping over latency-bound sources.

The same mediated query is shipped to 6 sources whose ``query()`` pays
a simulated network hop (sleep-based, so the measured ratio is
scale-robust and asserts at smoke scale too):

* **serial** — ``FederationOptions(max_workers=1)``: fragments run
  inline in dispatch order, the shipping behavior of earlier revisions.
  Wall-clock ≈ 6 hops.
* **parallel** — the default worker pool dispatches all 6 fragments at
  once; wall-clock ≈ 1 hop.  Gate: **≥3x** (the ideal is ~6x; the bar
  leaves room for shared-runner scheduling noise).
* **fragment cache** — a second ship of unchanged sources is served
  from the generation-keyed fragment-result cache: no source is
  consulted at all, so even the single overlapped hop disappears.
  Measured as a series (ungated: the win is effectively unbounded).

Both gated sides disable the fragment cache — the gate measures
shipping overlap, not recall.
"""

from __future__ import annotations

import time

from conftest import scaled
from repro.federation import FederationOptions, Mediator
from repro.relational import Database

N_SOURCES = 6
#: Simulated per-fragment network hop.  Dominates row handling at
#: either scale, so serial/parallel ≈ N_SOURCES even in smoke mode.
LATENCY_S = 0.04
ROWS_PER_SOURCE = scaled(400, floor=40)

QUERY = """SELECT city, COUNT(*) AS n, AVG(size) AS avg_size
           FROM eu_landfill GROUP BY city ORDER BY n DESC, city"""

SERIAL = FederationOptions(max_workers=1, fragment_cache_size=0)
PARALLEL = FederationOptions(fragment_cache_size=0)
CACHED = FederationOptions()


class LatencySource(Database):
    """A source Database whose query() pays a simulated network hop."""

    def __init__(self, name: str, latency_s: float) -> None:
        super().__init__(name)
        self.latency_s = latency_s

    def query(self, sql, params=None):
        time.sleep(self.latency_s)
        return super().query(sql, params)


def _mediator(options: FederationOptions) -> Mediator:
    mediator = Mediator(options)
    fragments = []
    for index in range(N_SOURCES):
        name = f"src{index}"
        db = LatencySource(name, LATENCY_S)
        db.execute(
            "CREATE TABLE landfill (name TEXT, city TEXT, size REAL)")
        db.insert_rows("landfill", (
            {"name": f"lf{index}_{i:05d}",
             "city": f"city{(index + i) % 25:02d}",
             "size": float((index * ROWS_PER_SOURCE + i) % 997)}
            for i in range(ROWS_PER_SOURCE)))
        mediator.register_source(name, db)
        fragments.append((name, "SELECT name, city, size FROM landfill"))
    mediator.define_view("eu_landfill", fragments)
    return mediator


def _ship_once(mediator: Mediator) -> float:
    """Wall-clock of one cold mediated query (fresh session)."""
    started = time.perf_counter()
    mediator.connect().execute(QUERY)
    return time.perf_counter() - started


# -- measured series ---------------------------------------------------------


def test_e13_serial_shipping(benchmark):
    mediator = _mediator(SERIAL)
    _result, report = benchmark(lambda: mediator.query(QUERY))
    assert sum(report.rows_per_source.values()) \
        == N_SOURCES * ROWS_PER_SOURCE


def test_e13_parallel_shipping(benchmark):
    mediator = _mediator(PARALLEL)
    _result, report = benchmark(lambda: mediator.query(QUERY))
    assert sum(report.rows_per_source.values()) \
        == N_SOURCES * ROWS_PER_SOURCE


def test_e13_fragment_cache_recall(benchmark):
    mediator = _mediator(CACHED)
    mediator.query(QUERY)                      # warm the fragment cache
    _result, report = benchmark(lambda: mediator.query(QUERY))
    assert report.fragment_cache_hits == N_SOURCES


# -- acceptance gate ----------------------------------------------------------


def test_e13_parallel_shipping_wins():
    """The acceptance gate: identical results and report shape, ≥3x
    faster than serial shipping across 6 latency-simulated sources."""
    serial = _mediator(SERIAL)
    parallel = _mediator(PARALLEL)
    serial_result, serial_report = serial.query(QUERY)
    parallel_result, parallel_report = parallel.query(QUERY)
    assert parallel_result.rows == serial_result.rows
    assert parallel_report.rows_per_source == serial_report.rows_per_source

    serial_s = min(_ship_once(serial) for _ in range(3))
    parallel_s = min(_ship_once(parallel) for _ in range(3))
    speedup = serial_s / parallel_s
    print(f"\nE13 shipping: serial={serial_s * 1000:.0f}ms "
          f"parallel={parallel_s * 1000:.0f}ms speedup={speedup:.1f}x "
          f"({N_SOURCES} sources, {LATENCY_S * 1000:.0f}ms hop, "
          f"{ROWS_PER_SOURCE} rows/source)")
    assert speedup >= 3.0, (
        f"parallel shipping speedup {speedup:.2f}x below the 3x bar")


def test_e13_cached_ship_skips_sources():
    """Fragment-cache sanity: a warm ship consults no source and a
    source-side write invalidates exactly that source's entry."""
    mediator = _mediator(CACHED)
    session = mediator.connect()
    session.execute(QUERY)
    warm = mediator.connect()                  # fresh session, warm cache
    started = time.perf_counter()
    _result, report = warm.execute(QUERY)
    warm_s = time.perf_counter() - started
    assert report.fragment_cache_hits == N_SOURCES
    assert warm_s < LATENCY_S                  # not even one hop paid
    mediator.source("src0").execute(
        "INSERT INTO landfill VALUES ('fresh', 'city00', 1.0)")
    _result, after = mediator.connect().execute(QUERY)
    assert after.fragment_cache_hits == N_SOURCES - 1
