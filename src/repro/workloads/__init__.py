"""Shared builders for the benchmark harness."""

from .builders import bench_engine, scaled_databank, seeded_tracker

__all__ = ["scaled_databank", "bench_engine", "seeded_tracker"]
