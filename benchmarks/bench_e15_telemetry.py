"""E15 — telemetry overhead on the hot prepared-execution path.

The telemetry subsystem promises two things about cost:

* **disabled is free** — every instrumented layer guards its hooks
  with one ``telemetry is None`` test, so a session built with
  telemetry off (the default) must run the E9 prepared workload
  within **1%** (plus a per-call noise floor) of a baseline session;
* **enabled is cheap** — with the full bundle attached (metrics,
  tracer, slow-query log) the same workload must stay within **5%**
  (plus a per-call floor that absorbs timer noise on sub-millisecond
  queries).

Shared-runner timing drifts by double-digit percentages round to
round, so each gate uses the **minimum paired delta**: every round
times baseline and candidate back-to-back (same drift regime), and the
candidate passes if *any* round shows it within the budget of its
paired baseline.  Genuine overhead slows every round and still fails;
one-sided scheduler stalls cannot fake a regression.  The measured
series (per-call seconds for baseline / off / on) lands in
``benchmark.extra_info`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.smartground import synthetic_kb
from repro.telemetry import Telemetry, TelemetryOptions
from repro.workloads import bench_engine

from conftest import SMOKE, scaled

KB_TRIPLES = scaled(20_000)
CALLS = 50 if SMOKE else 300
ROUNDS = 7

#: Absolute per-call slack added to each relative gate: the E9 query
#: runs in well under a millisecond, where timer + allocator jitter is
#: a real fraction of the signal.
ON_FLOOR_S = 60e-6
OFF_FLOOR_S = 20e-6

ON_GATE = 0.05
OFF_GATE = 0.01

SESQL = """
    SELECT elem_name, amount FROM elem_contained WHERE amount > 5.0
    ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
           BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)
"""


@pytest.fixture(scope="module")
def kb_20k():
    return synthetic_kb(KB_TRIPLES)


def _prepared(databank_150, kb_20k, telemetry=None):
    session = repro.connect(
        bench_engine(databank_150, kb_20k),
        telemetry=telemetry)
    prepared = session.prepare(SESQL)
    prepared.execute()          # warm plan + extraction caches
    return session, prepared


def _run(prepared) -> float:
    started = time.perf_counter()
    for _ in range(CALLS):
        prepared.execute()
    return (time.perf_counter() - started) / CALLS


def test_e15_telemetry_overhead(benchmark, databank_150, kb_20k):
    _, baseline = _prepared(databank_150, kb_20k)
    off_session, disabled = _prepared(
        databank_150, kb_20k,
        telemetry=TelemetryOptions(enabled=False))
    # Bounded tracer ring + no slow-log writes: steady-state cost, not
    # an ever-growing trace history.
    on_session, enabled = _prepared(
        databank_150, kb_20k,
        telemetry=Telemetry(TelemetryOptions(
            trace_retention=32, slow_query_threshold_s=None)))
    assert on_session.telemetry is not None
    assert off_session.telemetry is None

    rounds = []                 # (base_i, off_i, on_i) per round
    for _ in range(ROUNDS):     # back-to-back: drift hits all three
        rounds.append((_run(baseline), _run(disabled), _run(enabled)))
    base = min(b for b, _, _ in rounds)
    off_delta = min(o - b for b, o, _ in rounds)
    on_delta = min(n - b for b, _, n in rounds)

    benchmark(lambda: None)
    benchmark.extra_info["calls"] = CALLS * ROUNDS
    benchmark.extra_info["baseline_percall_s"] = base
    benchmark.extra_info["off_percall_s"] = min(o for _, o, _ in rounds)
    benchmark.extra_info["on_percall_s"] = min(n for _, _, n in rounds)
    benchmark.extra_info["on_delta_s"] = on_delta
    benchmark.extra_info["off_delta_s"] = off_delta

    assert off_delta <= max(OFF_GATE * base, OFF_FLOOR_S), (
        f"telemetry-disabled path costs +{off_delta * 1e6:.1f}µs over "
        f"baseline ({base * 1e6:.1f}µs) in its best paired round; the "
        f"disabled hooks must stay within {OFF_GATE:.0%}")
    assert on_delta <= max(ON_GATE * base, ON_FLOOR_S), (
        f"telemetry-enabled path costs +{on_delta * 1e6:.1f}µs over "
        f"baseline ({base * 1e6:.1f}µs) in its best paired round; the "
        f"instrumented path must stay within {ON_GATE:.0%}")

    # The enabled run really did trace: one root per call, ring bounded.
    tracer = on_session.telemetry.tracer
    assert len(tracer.traces()) == 32
    metrics = on_session.telemetry.metrics.to_dict()
    assert metrics["repro_query_seconds"]["series"][0]["count"] \
        >= CALLS * ROUNDS


def test_e15_span_lifecycle_cost(benchmark):
    """Micro-series: the cost of one traced span open/close pair."""
    telemetry = Telemetry(TelemetryOptions(trace_retention=16))
    tracer = telemetry.tracer

    def one_root():
        with tracer.query_span("bench", statement="x"):
            with tracer.span("child", db="main"):
                pass

    benchmark(one_root)
    assert 1 <= len(tracer.traces()) <= 16
