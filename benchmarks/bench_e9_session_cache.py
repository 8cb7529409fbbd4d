"""E9 — session-layer speedup for repeated SESQL execution.

Three ways to run the same enriched query N times against a 20k-triple
knowledge base (the regime where parse + SPARQL extraction are a real
share of the per-call cost):

* **cold**: a fresh engine per call — what ``CrossePlatform.run_sesql``
  used to do for every request;
* **engine**: one engine reused, but ``execute`` re-parses and re-runs
  every SPARQL extraction per call;
* **prepared**: one session, one ``prepare()`` — the plan cache skips
  the SQP and the extraction cache (keyed on the KB's mutation
  generation) skips unchanged SPARQL.

Expected shape: prepared < engine ≈ cold, with the gap growing with KB
size and enrichment count, since parse + extraction are exactly the
per-call costs the session API amortises; the combine step is the same
prepared hash probe on all three.
"""

from __future__ import annotations

import pytest

import repro
from repro.smartground import synthetic_kb
from repro.workloads import bench_engine

from conftest import scaled

KB_TRIPLES = scaled(20_000)

SESQL = """
    SELECT elem_name, amount FROM elem_contained WHERE amount > 5.0
    ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
           BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)
"""


@pytest.fixture(scope="module")
def kb_20k():
    return synthetic_kb(KB_TRIPLES)


@pytest.fixture(scope="module")
def engine_e9(databank_150, kb_20k):
    return bench_engine(databank_150, kb_20k)


@pytest.fixture(scope="module")
def session_e9(databank_150, kb_20k):
    return repro.connect(
        bench_engine(databank_150, kb_20k))


def test_e9_cold_engine_per_call(benchmark, databank_150, kb_20k):
    # The KB is shared (as the platform's statement store would be) so
    # the measured cost is engine construction + parse + extractions.
    result = benchmark(lambda: bench_engine(
        databank_150, kb_20k).execute(SESQL))
    assert result.columns


def test_e9_reused_engine_no_caches(benchmark, engine_e9):
    result = benchmark(lambda: engine_e9.execute(SESQL))
    assert result.columns


def test_e9_session_prepared_cached(benchmark, session_e9):
    prepared = session_e9.prepare(SESQL)
    prepared.execute()  # warm the extraction cache once
    result = benchmark(prepared.execute)
    assert result.columns
    assert result.cache_hits == 2       # both extractions memoized
    assert result.timings["parse"] == 0.0


def test_e9_session_adhoc_still_cached(benchmark, session_e9):
    session_e9.execute(SESQL)  # warm plan + extraction caches
    result = benchmark(lambda: session_e9.execute(SESQL))
    assert result.cache_hits == 2
