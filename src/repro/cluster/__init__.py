"""``repro.cluster`` — sharded multi-process deployment of the platform.

The single-process platform scales users until one Python process runs
out of lock bandwidth.  This package shards it:

* a :class:`HashRing` consistently hashes usernames onto N shards;
* each shard is a worker process (:class:`ShardServer` /
  :func:`run_worker`) hosting a full platform slice — contexts, KBs,
  a per-shard session pool — behind a length-prefixed JSON RPC
  protocol;
* a :class:`ClusterCoordinator` terminates the ``/api/v1`` surface,
  routing user-scoped calls to the owning shard and scatter-gathering
  cross-user calls under the federation layer's fail/skip/retry
  policies;
* each worker can host a :class:`ReadReplica` of the shared relational
  databank / triple stores, kept fresh by tailing the primary's WAL
  (:class:`WalTailer`) and serving a read **iff** its generation stamp
  has caught up — stale reads forward to the primary, never lie, and a
  stale shard's users get a ``replica_stale`` error from a scattered
  query, not rows.  Tailing *is* crash recovery's replay: both drive
  one :class:`~repro.durability.replay.ReplayCursor`, so a caught-up
  replica holds exactly what a recovered primary would.

:func:`start_cluster` wires all of it up on one machine.
"""

from .coordinator import (ClusterCoordinator, ClusterOptions,
                          ClusterSession, ShardClient)
from .errors import (ClusterError, ProtocolError, ReplicaGapError,
                     ReplicaStaleError, ShardUnavailableError)
from .hashring import DEFAULT_VNODES, HashRing
from .launch import Cluster, start_cluster
from .protocol import (connect_socket, format_address, listen_socket,
                       recv_message, send_message, unix_address)
from .replica import ReadReplica, WalTailer
from .worker import ShardRuntime, ShardServer, resolve_builder, run_worker

__all__ = [
    "Cluster",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterOptions",
    "ClusterSession",
    "DEFAULT_VNODES",
    "HashRing",
    "ProtocolError",
    "ReadReplica",
    "ReplicaGapError",
    "ReplicaStaleError",
    "ShardClient",
    "ShardRuntime",
    "ShardServer",
    "ShardUnavailableError",
    "WalTailer",
    "connect_socket",
    "format_address",
    "listen_socket",
    "recv_message",
    "resolve_builder",
    "run_worker",
    "send_message",
    "start_cluster",
    "unix_address",
]
