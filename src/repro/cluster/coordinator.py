"""The coordinator: one ``/api/v1`` front door over N shards.

The coordinator owns three responsibilities and nothing else:

* **routing** — user-scoped requests (queries, annotations, statement
  acceptance, registration) go to the shard the hash ring assigns that
  user; the response passes through unchanged, so a client cannot tell
  one shard from a single-process deployment.  Knowledge communities
  are **per-shard**: statements live on their author's shard, so
  acceptance routes by the accepting user and reaches the statement
  iff author and acceptor co-locate — cross-shard knowledge exchange
  is future work (it needs globally unique statement ids);
* **scatter-gather** — cross-user requests (user listings, fleet-wide
  queries, stats/metrics) fan out to every shard concurrently under the
  federation layer's fail/skip/retry policies and merge
  deterministically (sorted by username / shard id), so a scattered
  result is byte-identical to the serial single-process answer;
* **primary state** — the shared relational databank (and optional
  triple stores) live in the coordinator's process behind the
  durability manager; writes commit here, ``sync()`` flushes the WAL so
  worker replicas can tail them, and reads either go to a replica
  (generation-checked, forwarded back here when stale) or run locally.

Telemetry crosses the RPC boundary: every routed call opens a
``cluster.rpc`` span, the worker returns its slice of the trace in the
RPC response, and :meth:`~repro.telemetry.Tracer.graft` rebuilds it
under the coordinator's span — one query, one span tree, even across
processes.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from ..api.cursor import paginate_sequence, request_signature
from ..api.prepared import parameter_row
from ..federation.executor import (FAIL, FAILURE_POLICIES, SKIP,
                                   run_with_policy)
from ..federation.rest import (MAX_PAGE_LIMIT, Response, _page_args,
                               error_payload)
from ..relational.engine import Database
from ..telemetry import create_telemetry
from .errors import ClusterError, ShardUnavailableError
from .hashring import HashRing
from .protocol import connect_socket, format_address, recv_message, \
    send_message


@dataclass(frozen=True)
class ClusterOptions:
    """Knobs for coordinator ↔ shard conversations."""

    #: Per-RPC socket timeout (covers the worker's freshness wait).
    rpc_timeout_s: float = 30.0
    connect_timeout_s: float = 10.0
    #: Default per-shard failure policy (``fail``/``skip``/``retry``)
    #: and per-shard overrides keyed ``"shard-<id>"`` — the same
    #: machinery federation applies per source.
    failure_policy: str = FAIL
    shard_policies: dict[str, str] = field(default_factory=dict)
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: How long a worker may wait for its replica to catch up before
    #: reporting the request stale.
    freshness_timeout_s: float = 5.0
    #: Concurrently in-flight shards during a scatter.
    scatter_workers: int = 8
    #: Idle sockets kept per shard.
    max_idle_sockets: int = 8

    def __post_init__(self) -> None:
        for policy in (self.failure_policy,
                       *self.shard_policies.values()):
            if policy not in FAILURE_POLICIES:
                raise ClusterError(
                    f"unknown failure policy {policy!r} (expected one "
                    f"of {', '.join(FAILURE_POLICIES)})")

    def policy_for(self, shard_id: int) -> str:
        return self.shard_policies.get(f"shard-{shard_id}",
                                       self.failure_policy)


class ShardClient:
    """A pooled RPC client for one shard endpoint."""

    def __init__(self, shard_id: int, address: dict,
                 options: ClusterOptions) -> None:
        self.shard_id = shard_id
        self.address = address
        self.options = options
        self._idle: list[Any] = []
        self._lock = threading.Lock()

    def call(self, payload: dict,
             timeout_s: float | None = None) -> dict:
        """One request/response round trip (reusing an idle socket)."""
        timeout = timeout_s or self.options.rpc_timeout_s
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        if sock is None:
            sock = connect_socket(self.address,
                                  self.options.connect_timeout_s)
        try:
            sock.settimeout(timeout)
            send_message(sock, payload)
            response = recv_message(sock)
        except Exception:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise
        with self._lock:
            if len(self._idle) < self.options.max_idle_sockets:
                self._idle.append(sock)
            else:
                sock.close()
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ClusterError(
                f"shard {self.shard_id} ({format_address(self.address)}) "
                f"rejected {payload.get('op')!r}: "
                f"{error.get('code')}: {error.get('message')}")
        return response

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until the shard answers a ping (spawn warm-up)."""
        import time
        deadline = time.monotonic() + timeout_s
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self.call({"op": "ping"}, timeout_s=2.0)
                return
            except (ShardUnavailableError, OSError) as exc:
                last = exc
                time.sleep(0.05)
        raise ShardUnavailableError(
            f"shard {self.shard_id} at "
            f"{format_address(self.address)} did not become ready "
            f"within {timeout_s}s: {last}")

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


#: User-scoped routes: (method, path regex, where the username lives).
_ROUTED = [
    ("POST", re.compile(r"^/api(?:/v1)?/users$"), "body"),
    ("POST", re.compile(r"^/api(?:/v1)?/annotations$"), "body"),
    ("GET", re.compile(r"^/api(?:/v1)?/annotations/(?P<username>[^/]+)$"),
     "path"),
    ("POST", re.compile(r"^/api(?:/v1)?/statements/[^/]+/accept$"),
     "body"),
    ("POST", re.compile(r"^/api/v1/query$"), "body"),
    ("POST", re.compile(r"^/api/sesql$"), "body"),
    ("GET", re.compile(
        r"^/api(?:/v1)?/recommendations/(?:peers|resources)/"
        r"(?P<username>[^/]+)$"), "path"),
]

#: Routed reads that must observe replica freshness and want traces.
_READ_PATHS = re.compile(r"^(/api/v1/query|/api/sesql)$")


class ClusterCoordinator:
    """Routes, scatters and merges ``/api/v1`` calls across shards."""

    def __init__(self, addresses: list[dict], *,
                 primary: Database | None = None,
                 primary_stores: dict[str, Any] | None = None,
                 durability=None, ring: HashRing | None = None,
                 options: ClusterOptions | None = None,
                 telemetry=None) -> None:
        self.options = options or ClusterOptions()
        self.clients = [ShardClient(index, address, self.options)
                        for index, address in enumerate(addresses)]
        self.ring = ring or HashRing(len(self.clients))
        if len(self.ring) != len(self.clients):
            raise ClusterError(
                f"ring has {len(self.ring)} shards but "
                f"{len(self.clients)} addresses were given")
        self.primary = primary
        self.primary_stores = dict(primary_stores or {})
        self.durability = durability
        self.forwarded_reads = 0
        self._replica_rr = 0           # round-robin replica cursor
        self._rr_lock = threading.Lock()
        self.telemetry = create_telemetry(telemetry)
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            self._tm_rpcs = metrics.counter(
                "repro_cluster_rpcs_total",
                "RPCs issued to shard workers", labels=("shard", "op"))
            self._tm_rpc_seconds = metrics.histogram(
                "repro_cluster_rpc_seconds",
                "Round-trip time of shard RPCs", labels=("shard",))
            self._tm_retries = metrics.counter(
                "repro_cluster_rpc_retries_total",
                "Shard RPC retry attempts beyond the first",
                labels=("shard",))
            self._tm_skips = metrics.counter(
                "repro_cluster_shard_skips_total",
                "Shards skipped during a scatter under the skip policy",
                labels=("shard",))
            self._tm_forwards = metrics.counter(
                "repro_cluster_forwards_total",
                "Replica reads forwarded to the primary (stale stamp)")

    # -- placement -------------------------------------------------------------

    def shard_for(self, username: str) -> int:
        return self.ring.shard_for(username)

    def expected_generations(self) -> dict | None:
        """The primary stamps a fresh replica read must have reached."""
        if self.primary is None:
            return None
        return {"db": self.primary.generation,
                "stores": {name: store.generation
                           for name, store in self.primary_stores.items()}}

    # -- RPC plumbing ----------------------------------------------------------

    def _rpc(self, client: ShardClient, payload: dict) -> dict:
        """One policy-guarded RPC, with span + trace grafting."""
        import time
        policy = self.options.policy_for(client.shard_id)
        tel = self.telemetry
        started = time.perf_counter() if tel is not None else 0.0
        span_cm = (tel.span("cluster.rpc", shard=client.shard_id,
                            op=payload.get("op"))
                   if tel is not None else None)
        if span_cm is None:
            outcome = self._call_with_policy(client, payload, policy)
        else:
            with span_cm as span:
                outcome = self._call_with_policy(client, payload, policy)
                if span is not None:
                    span.attrs["attempts"] = outcome.attempts
                    if not outcome.failed:
                        trace = outcome.result.get("trace")
                        if trace:
                            tel.tracer.graft(span, trace)
        if tel is not None:
            self._tm_rpcs.labels(str(client.shard_id),
                                 str(payload.get("op"))).inc()
            self._tm_rpc_seconds.labels(str(client.shard_id)).observe(
                time.perf_counter() - started)
            if outcome.attempts > 1:
                self._tm_retries.labels(str(client.shard_id)).inc(
                    outcome.attempts - 1)
        if outcome.failed:
            raise ShardUnavailableError(
                f"shard {client.shard_id} failed after "
                f"{outcome.attempts} attempt(s): {outcome.error}"
            ) from outcome.exception
        return outcome.result

    def _call_with_policy(self, client: ShardClient, payload: dict,
                          policy: str):
        # SKIP is resolved by the *caller* (scatter omits the shard,
        # routed requests surface a 503) — here it just means "don't
        # retry".
        return run_with_policy(
            lambda: client.call(payload), policy=policy,
            max_retries=self.options.max_retries,
            backoff_s=self.options.backoff_s,
            backoff_cap_s=self.options.backoff_cap_s)

    def _scatter(self, payload_for: Callable[[ShardClient], dict | None]
                 ) -> tuple[dict[int, dict], list[str]]:
        """Fan one request out to every shard; returns per-shard
        responses plus warnings for shards the skip policy absorbed."""
        targets = [(client, payload_for(client))
                   for client in self.clients]
        targets = [(client, payload) for client, payload in targets
                   if payload is not None]
        if not targets:
            return {}, []
        responses: dict[int, dict] = {}
        warnings: list[str] = []
        lock = threading.Lock()

        def fan(client: ShardClient, payload: dict) -> None:
            try:
                response = self._rpc(client, payload)
            except ClusterError as exc:
                if self.options.policy_for(client.shard_id) == SKIP:
                    with lock:
                        warnings.append(
                            f"shard {client.shard_id} skipped: {exc}")
                    if self.telemetry is not None:
                        self._tm_skips.labels(str(client.shard_id)).inc()
                    return
                raise
            with lock:
                responses[client.shard_id] = response

        if len(targets) == 1:
            fan(*targets[0])
        else:
            workers = min(len(targets), self.options.scatter_workers)
            with ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="cluster-scatter") as pool:
                futures = [pool.submit(fan, client, payload)
                           for client, payload in targets]
                for future in futures:
                    future.result()
        return responses, warnings

    # -- the /api/v1 front door ------------------------------------------------

    def request(self, method: str, path: str,
                body: dict | None = None) -> Response:
        """Terminate one REST call — same signature as
        :meth:`~repro.federation.CrosseRestService.request`."""
        tel = self.telemetry
        if tel is None:
            return self._dispatch(method, path, body)
        with tel.tracer.query_span("cluster.request", method=method,
                                   path=path.partition("?")[0]) as root:
            response = self._dispatch(method, path, body)
            root.attrs["status"] = response.status
        tel.record_query(root, backend="cluster",
                         statement=f"{method} {path}",
                         user=(body or {}).get("username"))
        return response

    def _dispatch(self, method: str, path: str,
                  body: dict | None) -> Response:
        method = method.upper()
        bare = path.partition("?")[0]
        try:
            if bare.startswith("/api/v1/cluster/"):
                return self._cluster_endpoint(method, bare, path,
                                              body or {})
            if bare in ("/api/users", "/api/v1/users") \
                    and method == "GET":
                return self._list_users(bare, path, body or {})
            if bare == "/api/v1/batch" and method == "POST":
                return self._batch(body or {})
            if bare in ("/api/v1/metrics", "/api/v1/slow_queries") \
                    or bare.startswith("/api/v1/traces/"):
                return self._observability(method, bare, path)
            routed = self._route(method, bare, body)
            if routed is not None:
                return self._forward_routed(routed, method, path, body)
        except ShardUnavailableError as exc:
            return Response(503, error_payload(
                "shard_unavailable", str(exc)))
        return Response(404, error_payload(
            "not_found",
            f"no cluster route for {method} {bare}",
            "user-scoped /api/v1 calls are routed by username; "
            "cross-shard operations live under /api/v1/cluster/"))

    def _route(self, method: str, bare: str,
               body: dict | None) -> str | None:
        """The owning username for a user-scoped path, or None."""
        for route_method, pattern, source in _ROUTED:
            if route_method != method:
                continue
            match = pattern.match(bare)
            if match is None:
                continue
            if source == "path":
                return match.group("username")
            username = (body or {}).get("username")
            if not username:
                raise ClusterError(
                    f"{method} {bare} needs a username to route by")
            return username
        return None

    def _forward_routed(self, username: str, method: str, path: str,
                        body: dict | None) -> Response:
        client = self.clients[self.shard_for(username)]
        payload: dict[str, Any] = {"op": "rest", "method": method,
                                   "path": path, "body": body}
        if _READ_PATHS.match(path.partition("?")[0]):
            expect = self.expected_generations()
            if expect is not None:
                payload["expect"] = expect
            payload["trace"] = self.telemetry is not None
        try:
            response = self._rpc(client, payload)
        except ShardUnavailableError:
            if self.options.policy_for(client.shard_id) != SKIP:
                raise
            return Response(503, error_payload(
                "shard_unavailable",
                f"shard {client.shard_id} (owner of "
                f"{username!r}) is unavailable"))
        return Response(response.get("status", 500),
                        response.get("body"))

    # -- scattered listings ----------------------------------------------------

    def _list_users(self, bare: str, path: str, body: dict) -> Response:
        responses, warnings = self._scatter(
            lambda _client: {"op": "usernames"})
        merged: list[str] = []
        for shard_id in sorted(responses):
            merged.extend(responses[shard_id].get("usernames", []))
        # Deterministic merge: the single-process registry returns
        # usernames in registration order, which a scatter cannot
        # reconstruct — sorted order is the documented cluster contract
        # (and what the byte-identical check compares against).
        merged.sort()
        if bare == "/api/users":
            payload: dict[str, Any] = {"users": merged}
        else:
            params = _query_params(path)
            limit, token = _page_args(params, body)
            page = paginate_sequence(merged, limit, token,
                                     request_signature("users"))
            payload = {"users": page.items,
                       "next_token": page.next_token, "limit": limit}
        if warnings:
            payload["warnings"] = warnings
        return Response(200, payload)

    # -- batch -----------------------------------------------------------------

    def _batch(self, body: dict) -> Response:
        requests = body.get("requests")
        if not isinstance(requests, list):
            return Response(400, error_payload(
                "invalid_batch", "requests must be a list"))
        responses = []
        for entry in requests:
            if not isinstance(entry, dict) or "path" not in entry:
                return Response(400, error_payload(
                    "invalid_batch",
                    "each batch entry needs at least a path", entry))
            response = self._dispatch(entry.get("method", "GET"),
                                      entry["path"], entry.get("body"))
            responses.append({"status": response.status,
                              "body": response.payload})
        return Response(200, {"responses": responses})

    # -- coordinator-local observability --------------------------------------

    def _observability(self, method: str, bare: str,
                       path: str) -> Response:
        if self.telemetry is None:
            return Response(404, error_payload(
                "telemetry_disabled",
                "the coordinator was built without telemetry",
                "construct ClusterCoordinator(..., telemetry=True)"))
        if bare == "/api/v1/metrics":
            params = _query_params(path)
            if params.get("format") == "prometheus":
                return Response(
                    200, self.telemetry.metrics.render_prometheus())
            return Response(
                200, {"metrics": self.telemetry.metrics.to_dict()})
        if bare == "/api/v1/slow_queries":
            entries = [entry.to_dict()
                       for entry in self.telemetry.slow_queries.entries()]
            return Response(200, {"slow_queries": entries})
        query_id = bare.rsplit("/", 1)[-1]
        root = self.telemetry.tracer.trace(query_id)
        if root is None:
            return Response(404, error_payload(
                "trace_not_found",
                f"no trace retained for {query_id!r}"))
        return Response(200, {"trace": root.to_dict()})

    # -- /api/v1/cluster/* -----------------------------------------------------

    def _cluster_endpoint(self, method: str, bare: str, path: str,
                          body: dict) -> Response:
        if bare == "/api/v1/cluster/shards" and method == "GET":
            return Response(200, {"shards": [
                {"shard": client.shard_id,
                 "address": format_address(client.address),
                 "policy": self.options.policy_for(client.shard_id)}
                for client in self.clients]})
        if bare == "/api/v1/cluster/stats" and method == "GET":
            responses, warnings = self._scatter(
                lambda _client: {"op": "stats"})
            payload = {"shards": [responses[shard_id]["stats"]
                                  for shard_id in sorted(responses)],
                       "forwarded_reads": self.forwarded_reads}
            if warnings:
                payload["warnings"] = warnings
            return Response(200, payload)
        if bare == "/api/v1/cluster/metrics" and method == "GET":
            responses, warnings = self._scatter(
                lambda _client: {"op": "metrics"})
            payload = {
                "shards": {str(shard_id): responses[shard_id]["metrics"]
                           for shard_id in sorted(responses)},
                "coordinator": (self.telemetry.metrics.to_dict()
                                if self.telemetry is not None else None)}
            if warnings:
                payload["warnings"] = warnings
            return Response(200, payload)
        if bare == "/api/v1/cluster/execute" and method == "POST":
            return self._execute_primary(body)
        if bare == "/api/v1/cluster/sql" and method == "POST":
            return self._replica_sql(body)
        if bare == "/api/v1/cluster/query" and method == "POST":
            return self._scatter_query(body)
        return Response(404, error_payload(
            "not_found", f"no cluster route for {method} {bare}"))

    def _execute_primary(self, body: dict) -> Response:
        """A write against the primary, flushed so replicas can tail it."""
        if self.primary is None:
            return Response(404, error_payload(
                "no_primary", "this coordinator holds no primary store"))
        sql = body.get("sql")
        if not sql:
            return Response(400, error_payload(
                "missing_field", "missing field 'sql'"))
        try:
            result = self.primary.execute(sql)
        except Exception as exc:
            return Response(422, error_payload("unprocessable",
                                               str(exc)))
        if self.durability is not None:
            # Group-committed frames only become visible to tailing
            # replicas once flushed; a cluster write is not "done"
            # until every replica *can* catch up to it.
            self.durability.sync()
        payload: dict[str, Any] = {
            "generation": self.primary.generation}
        if hasattr(result, "columns"):
            payload["columns"] = result.columns
            payload["rows"] = [list(row) for row in result.rows]
        else:
            payload["rowcount"] = result
        return Response(200, payload)

    def _replica_sql(self, body: dict) -> Response:
        """A load-balanced replica read; forwarded here iff stale."""
        sql = body.get("sql")
        if not sql:
            return Response(400, error_payload(
                "missing_field", "missing field 'sql'"))
        expect = self.expected_generations()
        shard = body.get("shard")
        if shard is None:
            with self._rr_lock:
                shard = self._replica_rr % len(self.clients)
                self._replica_rr += 1
        client = self.clients[shard]
        try:
            response = self._rpc(client, {
                "op": "sql", "sql": sql,
                "expect_db": None if expect is None else expect["db"]})
        except ShardUnavailableError as exc:
            if self.primary is None:
                raise
            response = {"stale": True, "unavailable": str(exc)}
        if response.get("stale"):
            if self.primary is None:
                return Response(503, error_payload(
                    "replica_stale",
                    f"shard {client.shard_id} is stale and no primary "
                    f"is attached", response))
            # The freshness contract's other half: a stale replica
            # never answers — the primary does.
            self.forwarded_reads += 1
            if self.telemetry is not None:
                self._tm_forwards.inc()
            result = self.primary.query(sql)
            return Response(200, {
                "columns": result.columns,
                "rows": [list(row) for row in result.rows],
                "served_by": "primary", "forwarded": True})
        return Response(200, {"columns": response["columns"],
                              "rows": response["rows"],
                              "served_by": f"shard-{client.shard_id}",
                              "forwarded": False})

    def _scatter_query(self, body: dict) -> Response:
        """Run one query as many users at once, grouped by owner shard."""
        query = body.get("query")
        if not query:
            return Response(400, error_payload(
                "missing_field", "missing field 'query'"))
        usernames = body.get("usernames")
        if usernames is None:
            listing = self._list_users("/api/users", "/api/users", {})
            usernames = listing.payload["users"]
        by_shard: dict[int, list[str]] = {}
        for username in usernames:
            by_shard.setdefault(self.shard_for(username),
                                []).append(username)
        expect = self.expected_generations()

        def payload_for(client: ShardClient) -> dict | None:
            assigned = by_shard.get(client.shard_id)
            if not assigned:
                return None
            payload: dict[str, Any] = {
                "op": "multi_query", "usernames": assigned,
                "query": query, "params": body.get("params")}
            if expect is not None:
                payload["expect"] = expect
            return payload

        responses, warnings = self._scatter(payload_for)
        merged: dict[str, dict] = {}
        for shard_id in sorted(responses):
            merged.update(responses[shard_id].get("results", {}))
        payload = {"results": {username: merged[username]
                               for username in sorted(merged)}}
        missing = [username for username in usernames
                   if username not in merged]
        if missing:
            payload["missing"] = sorted(missing)
        if warnings:
            payload["warnings"] = warnings
        return Response(200, payload)

    # -- sessions / lifecycle --------------------------------------------------

    def connect(self) -> "ClusterSession":
        return ClusterSession(self)

    def ping_all(self, timeout_s: float = 30.0) -> None:
        for client in self.clients:
            client.wait_ready(timeout_s)

    def shutdown_shards(self) -> None:
        """Ask every worker to stop serving (best effort)."""
        for client in self.clients:
            try:
                client.call({"op": "shutdown"}, timeout_s=5.0)
            except ClusterError:
                pass

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _query_params(path: str) -> dict:
    from urllib.parse import parse_qs
    _bare, _sep, query_string = path.partition("?")
    return {key: values[-1]
            for key, values in parse_qs(query_string).items()}


class ClusterSession:
    """A session-flavoured facade over the coordinator.

    Mirrors the per-user surface of a platform session — ``execute``
    routes to the user's shard and drains the paginated result into one
    :class:`~repro.relational.ResultSet` — so embedders can swap a
    single-process platform for a cluster without changing call sites.
    """

    def __init__(self, coordinator: ClusterCoordinator) -> None:
        self.coordinator = coordinator

    def execute(self, username: str, text: str, params=None):
        from ..relational.result import ResultSet
        body: dict[str, Any] = {"username": username, "query": text,
                                "limit": MAX_PAGE_LIMIT}
        if params is not None:
            body["params"] = list(parameter_row(params))
        columns: list[str] = []
        rows: list[tuple] = []
        while True:
            response = self.coordinator.request(
                "POST", "/api/v1/query", body)
            if response.status != 200:
                error = (response.payload or {}).get("error", {})
                raise ClusterError(
                    f"query for {username!r} failed "
                    f"({response.status}): {error.get('code')}: "
                    f"{error.get('message')}")
            payload = response.payload
            columns = payload["columns"]
            rows.extend(tuple(row) for row in payload["rows"])
            if not payload.get("next_token"):
                break
            body["next_token"] = payload["next_token"]
        return ResultSet(columns, rows)

    def users(self) -> list[str]:
        response = self.coordinator.request("GET", "/api/users")
        return list(response.payload["users"])

    def register_user(self, username: str, display_name: str = "",
                      affiliation: str = "", interests=None) -> dict:
        body: dict[str, Any] = {"username": username,
                                "display_name": display_name,
                                "affiliation": affiliation}
        if interests is not None:
            body["interests"] = list(interests)
        response = self.coordinator.request("POST", "/api/v1/users",
                                            body)
        if response.status != 200:
            raise ClusterError(
                f"registering {username!r} failed: {response.payload}")
        return response.payload

    def close(self) -> None:
        """Sessions do not own the coordinator; nothing to release."""
