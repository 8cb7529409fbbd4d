"""Spinning up a multi-process cluster on one machine.

:func:`start_cluster` spawns N worker processes (one
:class:`~repro.cluster.ShardServer` each, built by an importable
``module:function`` builder so the spec survives the ``spawn`` start
method), waits for every shard to answer a ping, and hands back a
:class:`Cluster` wrapping a ready :class:`ClusterCoordinator`.

Workers default to AF_UNIX sockets under a fresh ``tempfile.mkdtemp``
directory — unix socket paths are capped at ~100 bytes, so the socket
directory is deliberately *not* derived from the (possibly deep) test
or data directory.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile

from .coordinator import ClusterCoordinator, ClusterOptions
from .hashring import HashRing
from .protocol import unix_address
from .worker import run_worker


class Cluster:
    """A running fleet: worker processes + the coordinator over them."""

    def __init__(self, coordinator: ClusterCoordinator,
                 processes: list, socket_dir: str | None) -> None:
        self.coordinator = coordinator
        self.processes = processes
        self._socket_dir = socket_dir

    def connect(self):
        return self.coordinator.connect()

    def request(self, method: str, path: str, body: dict | None = None):
        return self.coordinator.request(method, path, body)

    def close(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: shutdown RPCs, join, then terminate stragglers."""
        self.coordinator.shutdown_shards()
        self.coordinator.close()
        for process in self.processes:
            process.join(timeout=timeout_s)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def start_cluster(n_shards: int, builder: str, *,
                  builder_args: dict | None = None,
                  primary=None, primary_stores=None, durability=None,
                  options: ClusterOptions | None = None,
                  telemetry=None, pool_capacity: int = 8,
                  socket_dir: str | None = None,
                  start_timeout_s: float = 60.0) -> Cluster:
    """Spawn *n_shards* workers and return a ready :class:`Cluster`.

    *builder* is a ``"module:function"`` spec resolved **inside** each
    worker; it is called as ``builder(shard_id, n_shards,
    **builder_args)`` and must return a
    :class:`~repro.cluster.ShardRuntime` (or a bare platform).
    *builder_args* must be JSON-able — it crosses the spawn boundary.
    """
    owns_dir = socket_dir is None
    if owns_dir:
        socket_dir = tempfile.mkdtemp(prefix="repro-cluster-")
    opts = options or ClusterOptions()
    addresses = [unix_address(f"{socket_dir}/shard-{shard}.sock")
                 for shard in range(n_shards)]
    # ``spawn`` rather than the platform default: workers must build
    # their state from the spec, not inherit half-initialised locks and
    # sockets through fork.
    ctx = multiprocessing.get_context("spawn")
    processes = []
    for shard_id, address in enumerate(addresses):
        spec = {
            "shard_id": shard_id,
            "n_shards": n_shards,
            "address": address,
            "builder": builder,
            "builder_args": builder_args or {},
            "pool_capacity": pool_capacity,
            "freshness_timeout_s": opts.freshness_timeout_s,
        }
        process = ctx.Process(target=run_worker, args=(spec,),
                              name=f"repro-shard-{shard_id}",
                              daemon=True)
        process.start()
        processes.append(process)
    coordinator = ClusterCoordinator(
        addresses, primary=primary, primary_stores=primary_stores,
        durability=durability, ring=HashRing(n_shards), options=opts,
        telemetry=telemetry)
    cluster = Cluster(coordinator, processes,
                      socket_dir if owns_dir else None)
    try:
        coordinator.ping_all(timeout_s=start_timeout_s)
    except Exception:
        cluster.close()
        raise
    return cluster
