"""The shard worker: one process hosting a full platform slice.

Each worker owns a :class:`~repro.crosse.CrossePlatform` for the users
the ring assigns to it (contexts, KBs, session state), a per-shard
:class:`~repro.api.SessionPool` fronted by the same
:class:`~repro.federation.CrosseRestService` surface the single-process
deployment exposes, and (optionally) a :class:`ReadReplica` of the
shared relational/triple stores kept fresh from the primary's WAL.

The server is deliberately small: a listening socket, a thread per
connection, and a dict-in/dict-out op handler over the length-prefixed
JSON protocol.  Ops:

``ping``         liveness + shard identity
``rest``         terminate one ``/api/v1`` call against this shard's
                 service (optionally waiting for replica freshness and
                 returning the query's span tree for grafting)
``sql``          a raw read against the replica, served iff fresh
                 (stale → a marker the coordinator turns into a
                 primary forward — never a stale answer)
``multi_query``  the scatter-gather leg: run one query as each of N
                 local users through the session pool
``usernames``    this shard's registered users (scatter merge)
``stats``        pool/replica/user counters
``metrics``      this shard's telemetry registry (per-shard labels are
                 applied coordinator-side)
``shutdown``     stop accepting and exit the serve loop
"""

from __future__ import annotations

import importlib
import socket
import threading
from dataclasses import dataclass
from typing import Any

from ..crosse.platform import CrossePlatform
from ..federation.rest import CrosseRestService, error_payload
from .errors import ClusterError, ReplicaStaleError, ShardUnavailableError
from .protocol import listen_socket, recv_message, send_message
from .replica import ReadReplica


@dataclass
class ShardRuntime:
    """What a builder hands the server: the platform slice + replica."""

    platform: CrossePlatform
    replica: ReadReplica | None = None


def resolve_builder(spec: str):
    """Import a ``"module:function"`` builder spec.

    Builders are addressed by name (not pickled) so spawned workers can
    re-import them — the function must live in an importable module.
    """
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ClusterError(
            f"builder spec must look like 'module:function', got {spec!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ClusterError(
            f"module {module_name!r} has no attribute {attr!r}") from None


class ShardServer:
    """Serves one shard's RPC endpoint (usable in-process or spawned)."""

    def __init__(self, shard_id: int, address: dict,
                 runtime: ShardRuntime, *, pool_capacity: int = 8,
                 freshness_timeout_s: float = 5.0) -> None:
        self.shard_id = shard_id
        self.address = address
        self.runtime = runtime
        self.service = CrosseRestService(runtime.platform,
                                         pool_capacity=pool_capacity)
        self.freshness_timeout_s = freshness_timeout_s
        self.requests_served = 0
        self._listener: socket.socket | None = None
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------------

    def bind(self) -> None:
        self._listener = listen_socket(self.address)
        self._listener.settimeout(0.5)   # poll the stop flag

    def serve_forever(self) -> None:
        if self._listener is None:
            self.bind()
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break                    # listener closed under us
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"shard-{self.shard_id}-conn", daemon=True)
            thread.start()
        self._close_listener()
        self.service.close()

    def start_background(self) -> threading.Thread:
        """Bind now, serve in a daemon thread (in-process clusters)."""
        self.bind()
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"shard-{self.shard_id}",
                                  daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._stop.set()
        self._close_listener()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass

    # -- connection loop -------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(None)
            while not self._stop.is_set():
                try:
                    request = recv_message(conn)
                except ShardUnavailableError:
                    break                # client went away
                if self._stop.is_set():
                    break   # shut down while blocked in recv: a kept-
                    # alive connection must not serve one more request
                try:
                    response = self._handle(request)
                except Exception as exc:
                    response = {"ok": False,
                                "error": {"code": type(exc).__name__,
                                          "message": str(exc)}}
                send_message(conn, response)
                if request.get("op") == "shutdown":
                    self.shutdown()
                    break
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- op handlers -----------------------------------------------------------

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        self.requests_served += 1
        if op == "ping":
            return {"ok": True, "shard": self.shard_id}
        if op == "rest":
            return self._handle_rest(request)
        if op == "sql":
            return self._handle_sql(request)
        if op == "multi_query":
            return self._handle_multi_query(request)
        if op == "usernames":
            return {"ok": True,
                    "usernames": self.runtime.platform.users.usernames()}
        if op == "stats":
            return {"ok": True, "stats": self._stats()}
        if op == "metrics":
            telemetry = getattr(self.runtime.platform, "telemetry", None)
            metrics = (telemetry.metrics.to_dict()
                       if telemetry is not None else None)
            return {"ok": True, "metrics": metrics}
        if op == "shutdown":
            return {"ok": True, "shard": self.shard_id}
        raise ClusterError(f"unknown op {op!r}")

    def _wait_fresh(self, expect: dict | None) -> bool:
        replica = self.runtime.replica
        if replica is None or not expect:
            return True
        return replica.wait_fresh(expect,
                                  timeout_s=self.freshness_timeout_s)

    def _stale_message(self) -> str:
        return (f"shard {self.shard_id} replica did not reach the "
                f"expected generation within {self.freshness_timeout_s}s")

    def _handle_rest(self, request: dict) -> dict:
        expect = request.get("expect")
        if not self._wait_fresh(expect):
            # The coordinator decides what to do with a stale shard
            # (retry, forward, or surface the 503) — the worker only
            # refuses to serve it.
            replica = self.runtime.replica
            return {"ok": True, "status": 503, "stale": True,
                    "body": error_payload(
                        "replica_stale", self._stale_message(),
                        {"have": replica.generations(),
                         "want": expect})}
        response = self.service.request(request.get("method", "GET"),
                                        request["path"],
                                        request.get("body"))
        out = {"ok": True, "status": response.status,
               "body": response.payload}
        if request.get("trace"):
            trace = self._trace_for(response.payload)
            if trace is not None:
                out["trace"] = trace
        return out

    def _trace_for(self, payload: Any) -> dict | None:
        telemetry = getattr(self.runtime.platform, "telemetry", None)
        if telemetry is None or not isinstance(payload, dict):
            return None
        query_id = payload.get("query_id")
        if not query_id:
            return None
        root = telemetry.tracer.trace(query_id)
        return root.to_dict() if root is not None else None

    def _handle_sql(self, request: dict) -> dict:
        replica = self.runtime.replica
        if replica is None:
            raise ClusterError(
                f"shard {self.shard_id} hosts no read replica")
        try:
            result = replica.query(request["sql"],
                                   request.get("expect_db"))
        except ReplicaStaleError as exc:
            return {"ok": True, "stale": True,
                    "have": exc.have, "want": exc.want}
        return {"ok": True, "stale": False,
                "columns": result.columns,
                "rows": [list(row) for row in result.rows]}

    def _handle_multi_query(self, request: dict) -> dict:
        usernames = request.get("usernames", ())
        if not self._wait_fresh(request.get("expect")):
            # Same refusal as a routed read: no user of a stale shard
            # gets rows.
            return {"ok": True, "results": {
                username: {"error": self._stale_message(),
                           "code": "replica_stale"}
                for username in usernames}}
        query = request["query"]
        params = request.get("params")
        results: dict[str, dict] = {}
        for username in usernames:
            try:
                with self.service.pool.checkout(username) as session:
                    cursor = session.stream(query, params)
                    columns = list(cursor.columns)
                    rows = [list(row) for row in cursor.fetchall()]
                results[username] = {"columns": columns, "rows": rows}
            except Exception as exc:
                results[username] = {
                    "error": str(exc) or type(exc).__name__}
        return {"ok": True, "results": results}

    def _stats(self) -> dict:
        platform = self.runtime.platform
        replica = self.runtime.replica
        stats = {
            "shard": self.shard_id,
            "users": len(platform.users.usernames()),
            "pool": self.service.pool.stats(),
            "requests_served": self.requests_served,
        }
        if replica is not None:
            stats["replica"] = {
                "generations": replica.generations(),
                "local_reads": replica.local_reads,
                "forwarded_reads": replica.forwarded_reads,
                "frames_applied": replica.tailer.frames_applied,
            }
        return stats


def run_worker(spec: dict) -> None:
    """Spawned-process entry point: build the slice, serve until told
    to stop.  *spec* must be JSON-able (it crosses the spawn boundary):

    ``shard_id``, ``n_shards``, ``address``, ``builder``
    (``"module:function"``), ``builder_args`` (JSON-able kwargs),
    ``pool_capacity``, ``freshness_timeout_s``.
    """
    builder = resolve_builder(spec["builder"])
    runtime = builder(spec["shard_id"], spec["n_shards"],
                      **(spec.get("builder_args") or {}))
    if isinstance(runtime, CrossePlatform):
        runtime = ShardRuntime(platform=runtime)
    server = ShardServer(
        spec["shard_id"], spec["address"], runtime,
        pool_capacity=spec.get("pool_capacity", 8),
        freshness_timeout_s=spec.get("freshness_timeout_s", 5.0))
    server.bind()
    server.serve_forever()
