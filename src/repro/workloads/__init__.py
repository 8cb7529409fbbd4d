"""Shared builders for the benchmark harness."""

from .builders import (bench_engine, peer_network, scaled_databank,
                       seeded_tracker)

__all__ = ["scaled_databank", "bench_engine", "seeded_tracker",
           "peer_network"]
