"""Tier-1 smoke test of the end-to-end benchmark (a few seconds).

Runs the four workloads at about 1/100 of their size, in this process,
and checks what later PRs rely on: the names in ``BENCHMARK.json`` are
exactly the names the harness emits, answers are a function of the seed
alone, the traced run covers every layer and leaves the program as it
found it, and nothing is left running.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from time import monotonic

import pytest

from . import compare, run as harness, trace as tracing

SCALE = 0.02
OPS = 60

with open(compare.BENCHMARK_JSON, encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOAD_NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(name: str, seed: int = 1, trace: bool = False) -> dict:
    return harness.run_workload(name, seed, trace=trace, scale=SCALE,
                                ops=OPS, setup_repeats=2)


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    return {name: _run(name) for name in WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: _run(name, trace=True) for name in WORKLOAD_NAMES}


def test_workloads_are_the_declared_ones():
    assert WORKLOAD_NAMES == list(harness.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"][-1] == "benchmarks/e2e/run.py"


def test_end_to_end_metrics_match_benchmark_json(records):
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["end_to_end"]}
    for name, record in records.items():
        line = harness.report(record)
        assert record["correct"], record["problems"]
        assert record["failed"] == 0
        assert record["attempted"] == OPS
        assert {metric: entry["unit"]
                for metric, entry in line["metrics"].items()} == declared
        assert all(entry["value"] > 0
                   for entry in line["metrics"].values()), line


def test_traced_run_emits_every_per_layer_metric(traced):
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["per_layer"]}
    for record in traced.values():
        line = harness.report(record)
        assert record["correct"], record["problems"]
        assert {metric: entry["unit"]
                for metric, entry in line["metrics"].items()} == declared


def test_layers_are_isolated_as_designed(traced):
    share = {name: {layer: record["metrics"][f"{layer}.share"]
                    for layer in tracing.LAYERS}
             for name, record in traced.items()}
    for name in ("sql_analytic", "enrich_hot", "social_mix"):
        assert share[name]["federation"] == 0
    assert share["federated_enrich"]["federation"] > 0.25
    assert share["federated_enrich"]["rest"] == 0
    assert share["sql_analytic"]["sparql"] == 0
    assert share["sql_analytic"]["core.sqm"] == 0
    assert traced["social_mix"]["metrics"]["durability.records"] > 0
    assert traced["enrich_hot"]["metrics"]["durability.records"] == 0
    for record in traced.values():
        assert record["metrics"]["trace.unattributed_share"] <= 0.15


def test_answers_depend_on_the_seed_alone(records):
    for name, record in records.items():
        assert _run(name)["digest"] == record["digest"]
        assert _run(name, seed=2)["digest"] != record["digest"]


def test_tracing_leaves_the_program_as_it_found_it():
    def current() -> list:
        return [vars(tracing._resolve(owner))[attr]
                for owner, attr, *_rest in tracing.ENTRY_POINTS]

    before = current()
    with tracing.installed(tracing.Tracer()):
        assert all(now is not then
                   for now, then in zip(current(), before))
    assert all(now is then for now, then in zip(current(), before))


def test_nothing_is_left_running(records, traced):
    assert harness.leftovers() == []
    workload = harness.WORKLOADS["social_mix"](1, SCALE)
    workload.setup()
    wal_dir = workload._wal_dir
    assert os.path.isdir(wal_dir)
    workload.teardown()
    assert not os.path.exists(wal_dir)


@pytest.mark.stress
@pytest.mark.xfail(strict=False, reason=(
    "ROADMAP 4 finding: the CrossePlatform / KnowledgeBaseStore registries "
    "are not synchronised, so a listing or effective_kb rebuild that "
    "iterates the statements while another client inserts one answers "
    "422 'dictionary changed size during iteration'.  This is why "
    "social_mix drives one client; the test passes once the race is fixed."))
def test_a_second_client_writing_beside_reads_gets_no_error():
    workload = harness.WORKLOADS["social_mix"](1, SCALE)
    workload.setup()
    service, (reader, writer) = workload.service, workload.users[:2]
    refused: list[tuple] = []
    deadline = monotonic() + 2.0

    def client(method: str, path: str, body: dict | None) -> None:
        serial = 0
        while monotonic() < deadline and not refused:
            serial += 1
            if body is not None:
                body = {**body, "object": f"level-{serial}"}
            response = service.request(method, path, body)
            if response.status != 200:
                refused.append((response.status, response.payload))

    threads = [
        threading.Thread(target=client, args=(
            "POST", "/api/v1/annotations",
            {"username": writer, "subject": "Lead",
             "property": "dangerLevel"})),
        threading.Thread(target=client, args=(
            "GET", f"/api/v1/annotations/{reader}?limit=50", None))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        alive = [thread for thread in threads if thread.is_alive()]
        workload.teardown()
    assert not alive
    assert not refused, refused[0]


def test_compare_applies_the_bounds(tmp_path):
    def write(path, throughput, wall=None):
        with open(path, "w", encoding="utf-8") as handle:
            for value, by_wall in zip(throughput, wall or throughput):
                handle.write(json.dumps({
                    "workload": "enrich_hot", "trace": 0, "correct": True,
                    "metrics": {"setup_s": 1.0, "throughput_ops_s": value,
                                "latency_p50_ms": 1.0,
                                "latency_p99_ms": 9.0,
                                "peak_rss_mb": 100.0},
                    "wall_clock": {"throughput_ops_s": by_wall,
                                   "latency_p50_ms": 1.0,
                                   "latency_p99_ms": 9.0}}) + "\n")

    base, slow, noisy = (tmp_path / name for name in "abc")
    write(base, [100, 101, 99, 100, 102])
    write(slow, [70, 71, 69, 70, 72])
    write(noisy, [100, 160, 60, 130, 80])
    verdicts = {(row[1], row[2]) for row in compare.compare(base, slow)}
    assert ("throughput_ops_s", "worse") in verdicts
    assert ("latency_p50_ms", "same") in verdicts
    assert compare.main([str(base), str(slow)]) == 1
    assert ("throughput_ops_s", "better") in {
        (row[1], row[2]) for row in compare.compare(slow, base)}
    assert ("throughput_ops_s", "unresolved") in {
        (row[1], row[2]) for row in compare.compare(noisy, base)}
    # The same normalised throughput from a much slower wall clock: the
    # row carries both verdicts, so the divergence shows.
    hidden = tmp_path / "d"
    write(hidden, [100, 101, 99, 100, 102], wall=[70, 71, 69, 70, 72])
    assert ("throughput_ops_s", "same", "worse") in {
        (row[1], row[2], row[8]) for row in compare.compare(base, hidden)}
