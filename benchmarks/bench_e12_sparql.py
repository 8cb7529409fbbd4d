"""E12 — the dictionary-encoded KB engine vs the seed's naive paths.

Two workloads, each measured against a **pinned** naive baseline so the
comparison cannot drift as the production code evolves:

* **multi-pattern BGP join** — a four-pattern join over a synthetic KB
  (``?a relatedTo ?b . ?b relatedTo ?c . ?a dangerLevel ?l .
  ?c dangerLevel ?l``).  The production evaluator hash-joins id-encoded
  solution batches in planner-chosen order; the pinned baseline is the
  in-tree :class:`~repro.sparql.NaiveEvaluator` (the seed's
  solution-at-a-time interpreter).  Gate: **≥5x**, asserted at smoke
  scale too (the ratio is scale-robust, unlike absolute times).
* **bulk load** — load a parsed graph into a fresh store, the shape of
  ``copy``/``union``/``update``.  The production path shares the
  source's term dictionary and moves raw id structures under one
  write-lock acquisition with one generation bump; the pinned baseline (``_SeedTripleStore`` below,
  a faithful replica of the seed's hot path — ``update`` *was*
  ``add_all(other.triples())``) materializes every triple and re-hashes
  full terms into its indexes, re-entering the lock and bumping the
  generation once per triple.  Gate: **≥3x**.  The raw
  list-of-triples ``add_all`` ingest is also measured as a series
  (batched interning beats per-triple adds by ~2.3x, ungated).

Gate timings run best-of-N with the cyclic GC paused (symmetrically for
both sides): generational collections triggered by the benchmark
process's own object graph would otherwise add identical absolute
noise to both paths and compress the measured ratio.
"""

from __future__ import annotations

import gc
import itertools
import time

import pytest

from conftest import scaled
from repro.rdf import TripleStore
from repro.rwlock import RWLock
from repro.smartground import synthetic_kb
from repro.sparql import NaiveEvaluator, SparqlEngine, parse_sparql

TRIPLES = scaled(50_000, floor=5_000)
LOAD_TRIPLES = scaled(20_000, floor=5_000)

BGP_QUERY = """PREFIX smg: <http://smartground.eu/ns#>
SELECT ?a ?c WHERE {
    ?a smg:relatedTo ?b .
    ?b smg:relatedTo ?c .
    ?a smg:dangerLevel ?l .
    ?c smg:dangerLevel ?l }"""


# -- pinned naive bulk-load baseline -----------------------------------------


class _SeedTripleStore:
    """The seed store's mutation path, pinned for the E12 baseline.

    Term-keyed SPO/POS/OSP dicts; ``add_all`` delegates to ``add`` per
    triple, re-entering the write lock and bumping the generation N
    times per logical batch — exactly the shape the batched loader
    replaced.
    """

    def __init__(self) -> None:
        self._generations = itertools.count(1)
        self.generation = next(self._generations)
        self.rwlock = RWLock()
        self._spo = {}
        self._pos = {}
        self._osp = {}
        self._size = 0

    def add(self, triple) -> bool:
        s, p, o = triple
        with self.rwlock.write_locked():
            objects = self._spo.setdefault(s, {}).setdefault(p, set())
            if o in objects:
                return False
            objects.add(o)
            self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
            self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
            self._size += 1
            self.generation = next(self._generations)
            return True

    def add_all(self, triples) -> int:
        with self.rwlock.write_locked():
            count = 0
            for triple in triples:
                if self.add(triple):
                    count += 1
            return count


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def kb():
    return synthetic_kb(TRIPLES)


@pytest.fixture(scope="module")
def load_source():
    return synthetic_kb(LOAD_TRIPLES)


@pytest.fixture(scope="module")
def load_triples(load_source):
    return list(load_source.triples())


# -- measured series ---------------------------------------------------------


def test_e12_bgp_join_planned(benchmark, kb):
    engine = SparqlEngine(kb)
    results = benchmark(lambda: engine.query(BGP_QUERY))
    assert len(results) > 0


def test_e12_bgp_join_naive(benchmark, kb):
    results = benchmark(
        lambda: NaiveEvaluator(kb).select(parse_sparql(BGP_QUERY)))
    assert len(results) > 0


def test_e12_bulk_load_batched(benchmark, load_triples):
    store = benchmark(lambda: _loaded(TripleStore(), load_triples))
    assert len(store) == len(load_triples)


def test_e12_bulk_load_naive(benchmark, load_triples):
    store = benchmark(lambda: _loaded(_SeedTripleStore(), load_triples))
    assert store._size == len(load_triples)


def _loaded(store, triples):
    store.add_all(triples)
    return store


# -- acceptance gates --------------------------------------------------------


def _best_of(fn, repeats: int = 5) -> float:
    """Best wall-clock of N runs with the cyclic GC paused (see module
    docstring); the pause is symmetric across compared measurements."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
            gc.enable()
            gc.collect()
            gc.disable()
    finally:
        gc.enable()
    return best


def _multiset(results):
    counts = {}
    for row in results.tuples():
        key = tuple(term.n3() if term is not None else None for term in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_e12_set_at_a_time_evaluator_wins(kb):
    """The acceptance gate: identical solutions, ≥5x faster than the
    pinned naive interpreter on the multi-pattern BGP join."""
    planned = SparqlEngine(kb)
    def naive():
        return NaiveEvaluator(kb).select(parse_sparql(BGP_QUERY))

    fast = planned.query(BGP_QUERY)
    slow = naive()
    assert _multiset(fast) == _multiset(slow)

    planned_s = _best_of(lambda: planned.query(BGP_QUERY), repeats=3)
    naive_s = _best_of(naive, repeats=3)
    speedup = naive_s / planned_s
    print(f"\nE12 bgp-join: naive={naive_s * 1000:.1f}ms "
          f"planned={planned_s * 1000:.1f}ms speedup={speedup:.1f}x "
          f"({TRIPLES} triples, {len(fast)} solutions)")
    assert speedup >= 5.0, (
        f"set-at-a-time speedup {speedup:.2f}x below the 5x bar")


def test_e12_batched_bulk_load_wins(load_source, load_triples):
    """The acceptance gate: same store contents, one generation bump,
    ≥3x faster than the seed's per-triple bulk-load path."""
    def batched_load():
        target = TripleStore(dictionary=load_source.dictionary)
        target.update(load_source)
        return target

    batched = batched_load()
    assert len(batched) == len(load_source)
    assert set(batched.triples()) == set(load_triples)
    naive = _SeedTripleStore()
    assert naive.add_all(load_source.triples()) == len(batched)
    # One write-lock acquisition, one generation bump per logical batch:
    # the naive path stamps once per triple, so extraction-cache keys
    # churn N times for one logical load.
    stamp = batched.generation
    assert batched.update(load_source) == 0     # idempotent re-load
    assert batched.generation == stamp
    fresh = TripleStore()
    generation_before = fresh.generation
    assert fresh.add_all(load_triples) == len(load_triples)
    assert fresh.generation != generation_before

    batched_s = _best_of(batched_load)
    naive_s = _best_of(
        lambda: _SeedTripleStore().add_all(load_source.triples()))
    speedup = naive_s / batched_s
    print(f"\nE12 bulk-load: naive={naive_s * 1000:.1f}ms "
          f"batched={batched_s * 1000:.1f}ms speedup={speedup:.1f}x "
          f"({len(load_triples)} triples)")
    assert speedup >= 3.0, (
        f"bulk-load speedup {speedup:.2f}x below the 3x bar")
