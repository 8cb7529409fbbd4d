"""Spawn-importable shard builders for tests and benchmarks.

``start_cluster`` ships builders across the process boundary **by
name** (``"repro.cluster.testing:build_shard"``), so anything a test or
benchmark wants a worker to run must live in an importable module —
this one.  The builders here cover the two deployment shapes the suite
exercises:

* :func:`build_shard` — a worker with a :class:`ReadReplica` tailing a
  primary's durability directory, plus a platform slice over the
  replica's database (the production-shaped topology);
* :func:`build_platform_shard` — a self-contained platform with its own
  empty databank (no replica; for routing/scatter tests that don't
  involve the shared store).

``latency_s`` injects a fixed per-statement *simulated source latency*
(a GIL-releasing sleep inside ``stream_ast``/``query``), the same
technique the federation benchmarks use to model remote I/O: it makes
pool slots and processes the scarce resource rather than this
machine's CPU count.
"""

from __future__ import annotations

import time

from ..crosse.platform import CrossePlatform
from ..relational.engine import Database
from .replica import ReadReplica
from .worker import ShardRuntime


class LatencyDatabase(Database):
    """A databank whose reads take a fixed simulated I/O time."""

    latency_s = 0.0

    def query(self, sql: str):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().query(sql)

    def stream_ast(self, query, params=None, views=None):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().stream_ast(query, params, views)


def _make_database(name: str, latency_s: float) -> Database:
    if latency_s:
        database = LatencyDatabase(name=name)
        database.latency_s = latency_s
        return database
    return Database(name=name)


def seed_readings(database: Database, rows: int = 50) -> None:
    """The deterministic table every cluster test/bench queries."""
    database.execute(
        "CREATE TABLE readings (id INTEGER, sensor TEXT, value INTEGER)")
    for index in range(rows):
        database.execute(
            f"INSERT INTO readings VALUES ({index}, "
            f"'sensor-{index % 5}', {index * 7 % 101})")


def build_shard(shard_id: int, n_shards: int, *, directory: str,
                database_name: str = "main",
                store_names: tuple | list = (),
                telemetry: bool = False,
                latency_s: float = 0.0) -> ShardRuntime:
    """A worker slice with a WAL-tailing replica of the shared stores."""
    replica = ReadReplica(
        directory, database_name=database_name,
        store_names=tuple(store_names),
        database_factory=lambda name: _make_database(name, latency_s))
    replica.refresh()
    platform = CrossePlatform(replica.database,
                              telemetry=True if telemetry else None)
    if telemetry:
        replica.attach_telemetry(platform.telemetry)
    return ShardRuntime(platform=platform, replica=replica)


def build_platform_shard(shard_id: int, n_shards: int, *,
                         telemetry: bool = False,
                         latency_s: float = 0.0,
                         seed_rows: int = 0) -> ShardRuntime:
    """A self-contained shard: own databank, no replica."""
    database = _make_database(f"shard-{shard_id}", latency_s)
    if seed_rows:
        seed_readings(database, seed_rows)
    platform = CrossePlatform(database,
                              telemetry=True if telemetry else None)
    return ShardRuntime(platform=platform)
