"""Shared fixtures for the E1-E17 benchmark harness.

Run per experiment file: ``pytest benchmarks/bench_e10_planner.py
--benchmark-only``.  Each file regenerates one experiment and asserts
its speed-up ratio; absolute end-to-end numbers come from
``benchmarks/e2e`` (see its README).

Setting ``BENCH_SMOKE=1`` shrinks every workload to a fraction of its
measured size: CI runs each benchmark end-to-end on tiny data (with
``--benchmark-disable``) so the perf scripts cannot silently rot, while
real measurement runs keep the published scales.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.smartground.ontology import researcher_kb
from repro.workloads import bench_engine, scaled_databank

# E17's reference is the tier-1 suite's ``generic_kernels`` seam: one
# definition, loaded from tests/conftest.py and registered here as well.
_spec = importlib.util.spec_from_file_location(
    "tests_conftest", Path(__file__).parent.parent / "tests" / "conftest.py")
_tests_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tests_conftest)
generic_kernels = _tests_conftest.generic_kernels

#: CI smoke mode: run everything, measure nothing meaningful.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def scaled(n: int, floor: int = 30) -> int:
    """The workload size to use: *n*, or a floored fraction in smoke
    mode (import via ``from conftest import scaled`` in bench modules)."""
    return max(n // 40, floor) if SMOKE else n


@pytest.fixture(scope="session")
def databank_1200():
    """~1200 elem_contained rows (the default E1 working set)."""
    return scaled_databank(scaled(1200))


@pytest.fixture(scope="session")
def databank_150():
    """Small databank for the quadratic self-join query (ex4.6)."""
    return scaled_databank(scaled(150, floor=60))


@pytest.fixture(scope="session")
def engine_1200(databank_1200):
    return bench_engine(databank_1200)


@pytest.fixture(scope="session")
def engine_150(databank_150):
    return bench_engine(databank_150)


@pytest.fixture(scope="session")
def kb_researcher():
    return researcher_kb()
