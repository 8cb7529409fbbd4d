"""In-process RESTful integration layer (Fig. 1: "the integration
between the two platforms is managed by means of RESTful APIs").

:class:`RestRouter` is a tiny request router (method + ``/path/{param}``
patterns, query strings, JSON bodies in/out); :class:`CrosseRestService`
mounts the platform's operations on it so the Main Platform <->
Semantic Platform interaction runs through the same API surface the
deployed system uses, without sockets.

Two route generations are mounted:

* the historical ``/api/*`` routes (same paths and success payloads;
  error responses now use the structured envelope below, router-wide);
* the versioned ``/api/v1`` surface: cursor-token pagination on every
  list/query endpoint (``limit`` + opaque ``next_token``), query
  execution streamed through a capacity-bounded
  :class:`~repro.api.SessionPool`, a ``POST /api/v1/batch`` endpoint
  that runs independent requests concurrently through the pool, and a
  structured error envelope ``{"error": {"code", "message", "detail"}}``
  on every failure (including ``405`` with an ``allow`` list when the
  path exists but the method does not).
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import parse_qs

from ..analysis import AnalysisReport
from ..api.cursor import (CursorTokenError, paginate_cursor,
                          paginate_sequence, request_signature,
                          token_offset)
from ..api.errors import PoolTimeoutError
from ..api.pool import SessionPool
from ..core.errors import SesqlError
from ..relational.errors import RelationalError
from ..crosse.platform import CrossePlatform
from ..rdf.namespace import SMG
from .errors import RestError

Handler = Callable[[dict, dict], Any]  # (params, body) -> payload

#: Pagination guard rails for the v1 list/query endpoints.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000


def error_payload(code: str, message: str, detail: Any = None) -> dict:
    """The structured error envelope of the v1 surface."""
    return {"error": {"code": code, "message": message, "detail": detail}}


@dataclass
class Response:
    status: int
    payload: Any

    def json(self) -> str:
        return json.dumps(self.payload, default=str)


class RestRouter:
    """Method + path-template dispatch (with query-string support)."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, str, re.Pattern, Handler]] = []

    def register(self, method: str, template: str,
                 handler: Handler) -> None:
        pattern = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template) + "$")
        self._routes.append((method.upper(), template, pattern, handler))

    def routes(self) -> list[tuple[str, str]]:
        """The route table: (method, template) pairs as registered."""
        return [(method, template)
                for method, template, _pattern, _handler in self._routes]

    def handle(self, method: str, path: str,
               body: dict | None = None) -> Response:
        path, _, query_string = path.partition("?")
        query = {key: values[-1]
                 for key, values in parse_qs(query_string).items()}
        allowed: set[str] = set()
        for route_method, _template, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method.upper():
                # The path exists; remember which methods it supports.
                allowed.add(route_method)
                continue
            params = {**query, **match.groupdict()}
            try:
                payload = handler(params, body or {})
            except RestError as exc:
                return Response(exc.status, error_payload(
                    exc.code, str(exc), exc.detail))
            except CursorTokenError as exc:
                return Response(400, error_payload(
                    "invalid_cursor", str(exc)))
            except PoolTimeoutError as exc:
                return Response(503, error_payload(
                    "pool_exhausted", str(exc)))
            except KeyError as exc:
                return Response(400, error_payload(
                    "missing_field", f"missing field {exc}"))
            except Exception as exc:
                return Response(422, error_payload(
                    "unprocessable", str(exc)))
            return Response(200, payload)
        if allowed:
            allow = sorted(allowed)
            payload = error_payload(
                "method_not_allowed",
                f"{method.upper()} not allowed for {path}",
                {"allow": allow})
            payload["allow"] = allow
            return Response(405, payload)
        return Response(404, error_payload(
            "not_found", f"no route for {method.upper()} {path}"))


def _page_args(params: dict, body: dict) -> tuple[int, str | None]:
    """Validated ``limit`` / ``next_token`` from query string or body."""
    raw_limit = params.get("limit", body.get("limit", DEFAULT_PAGE_LIMIT))
    try:
        # A JSON bool is an int and 2.7 truncates: neither is a count.
        if isinstance(raw_limit, bool) or (
                isinstance(raw_limit, float) and not raw_limit.is_integer()):
            raise TypeError
        limit = int(raw_limit)
    except (TypeError, ValueError):
        raise RestError(f"limit must be an integer, got {raw_limit!r}",
                        code="invalid_limit") from None
    if limit < 1 or limit > MAX_PAGE_LIMIT:
        raise RestError(
            f"limit must be between 1 and {MAX_PAGE_LIMIT}, got {limit}",
            code="invalid_limit")
    token = params.get("next_token") or body.get("next_token") or None
    return limit, token


class CrosseRestService:
    """The platform's REST facade used by the integration layer."""

    def __init__(self, platform: CrossePlatform,
                 pool_capacity: int = 8) -> None:
        self.platform = platform
        #: Query execution checks per-user sessions out of this pool.
        self.pool = SessionPool(platform, capacity=pool_capacity)
        self.router = RestRouter()
        self._mount()

    # -- transport entry point -------------------------------------------------

    def request(self, method: str, path: str,
                body: dict | None = None) -> Response:
        return self.router.handle(method, path, body)

    def close(self) -> None:
        self.pool.close()

    # -- routes -----------------------------------------------------------------

    def _mount(self) -> None:
        register = self.router.register
        # Historical (unversioned) surface — paths/payloads unchanged.
        register("POST", "/api/users", self._create_user)
        register("GET", "/api/users", self._list_users)
        register("POST", "/api/annotations", self._create_annotation)
        register("GET", "/api/annotations/{username}",
                 self._list_annotations)
        register("POST", "/api/statements/{statement_id}/accept",
                 self._accept_statement)
        register("POST", "/api/sesql", self._run_sesql)
        register("GET", "/api/recommendations/peers/{username}",
                 self._peer_recommendations)
        register("GET", "/api/recommendations/resources/{username}",
                 self._resource_recommendations)
        # Versioned v1 surface: paginated lists, pooled streaming
        # queries, batch.
        register("POST", "/api/v1/users", self._create_user)
        register("GET", "/api/v1/users", self._list_users_v1)
        register("POST", "/api/v1/annotations", self._create_annotation)
        register("GET", "/api/v1/annotations/{username}",
                 self._list_annotations_v1)
        register("POST", "/api/v1/statements/{statement_id}/accept",
                 self._accept_statement)
        register("POST", "/api/v1/query", self._query_v1)
        register("POST", "/api/v1/analyze", self._analyze_v1)
        register("GET", "/api/v1/recommendations/peers/{username}",
                 self._peer_recommendations_v1)
        register("GET", "/api/v1/recommendations/resources/{username}",
                 self._resource_recommendations_v1)
        register("POST", "/api/v1/batch", self._batch_v1)
        register("GET", "/api/v1/routes", self._list_routes)
        # Observability surface (404 with code=telemetry_disabled when
        # the platform was built without telemetry).
        register("GET", "/api/v1/metrics", self._metrics_v1)
        register("GET", "/api/v1/traces/{query_id}", self._trace_v1)
        register("GET", "/api/v1/slow_queries", self._slow_queries_v1)

    # -- shared handlers ---------------------------------------------------------

    def _create_user(self, _params: dict, body: dict) -> dict:
        user = self.platform.register_user(
            body["username"],
            body.get("display_name", ""),
            body.get("affiliation", ""),
            body.get("interests"))
        return {"username": user.username,
                "display_name": user.display_name}

    def _list_users(self, _params: dict, _body: dict) -> dict:
        return {"users": self.platform.users.usernames()}

    def _create_annotation(self, _params: dict, body: dict) -> dict:
        username = body["username"]
        prop = SMG[body["property"]]
        if body.get("scenario", "independent") == "integrated":
            record = self.platform.annotate_concept(
                username, body["table"], body["column"], body["value"],
                prop, body["object"])
        else:
            subject = SMG[body["subject"]]
            record = self.platform.annotate_free(
                username, subject, prop, body["object"])
        return {"statement_id": record.statement_id,
                "author": record.author}

    @staticmethod
    def _annotation_dict(record) -> dict:
        return {"statement_id": record.statement_id,
                "author": record.author,
                "subject": str(record.triple.subject),
                "property": str(record.triple.predicate),
                "object": str(record.triple.object),
                "accepted_by": list(record.accepted_by)}

    def _list_annotations(self, params: dict, _body: dict) -> dict:
        return {"annotations": [
            self._annotation_dict(record) for record in
            self.platform.explore_annotations(params["username"])]}

    def _accept_statement(self, params: dict, body: dict) -> dict:
        record = self.platform.accept_statement(
            body["username"], int(params["statement_id"]))
        return {"statement_id": record.statement_id,
                "accepted_by": list(record.accepted_by)}

    def _run_sesql(self, _params: dict, body: dict) -> dict:
        outcome = self.platform.run_sesql(body["username"], body["query"])
        return {
            "columns": outcome.columns,
            "rows": [list(row) for row in outcome.rows],
            "sparql_queries": outcome.sparql_queries,
        }

    def _peer_recommendations(self, params: dict, _body: dict) -> dict:
        peers = self.platform.recommend_peers(params["username"])
        return {"peers": [{"username": username, "similarity": score}
                          for username, score in peers]}

    def _resource_recommendations(self, params: dict, _body: dict) -> dict:
        resources = self.platform.recommend_resources(params["username"])
        return {"resources": [{"resource": name, "score": score}
                              for name, score in resources]}

    # -- v1: paginated listings ---------------------------------------------------

    def _paginated(self, items: list | Callable[[int], list], key: str,
                   params: dict, body: dict, *signature_parts: Any) -> dict:
        """One page of *items*.  *items* may be a function of a stop:
        only the first ``offset + limit + 1`` items decide a page and
        whether a ``next_token`` follows, so it is asked for no more
        (and a forged token is refused before it is asked)."""
        limit, token = _page_args(params, body)
        signature = request_signature(key, *signature_parts)
        if callable(items):
            items = items(token_offset(token, signature) + limit + 1)
        page = paginate_sequence(items, limit, token, signature)
        return {key: page.items, "next_token": page.next_token,
                "limit": limit}

    def _list_users_v1(self, params: dict, body: dict) -> dict:
        return self._paginated(self.platform.users.usernames(),
                               "users", params, body)

    def _list_annotations_v1(self, params: dict, body: dict) -> dict:
        # Walk the records in the platform's one order (which the
        # signature-bound token indexes) up to the page's end, and
        # project only the page.
        username = params["username"]
        payload = self._paginated(
            lambda stop: self.platform.explore_annotations(
                username, limit=stop),
            "annotations", params, body, username)
        payload["annotations"] = [self._annotation_dict(record)
                                  for record in payload["annotations"]]
        return payload

    def _peer_recommendations_v1(self, params: dict, body: dict) -> dict:
        # Pagination, not a fixed count, bounds what one response
        # carries; the ranking is paged before it is projected.
        username = params["username"]
        payload = self._paginated(
            lambda stop: self.platform.recommend_peers(username, stop),
            "peers", params, body, username)
        payload["peers"] = [{"username": name, "similarity": score}
                            for name, score in payload["peers"]]
        return payload

    def _resource_recommendations_v1(self, params: dict,
                                     body: dict) -> dict:
        username = params["username"]
        resources = [{"resource": name, "score": score}
                     for name, score in self.platform.recommend_resources(
                         username, count=None)]
        return self._paginated(resources, "resources", params, body,
                               username)

    def _list_routes(self, _params: dict, _body: dict) -> dict:
        return {"routes": [{"method": method, "path": template}
                           for method, template in self.router.routes()]}

    # -- v1: observability ----------------------------------------------------------

    def _telemetry(self):
        telemetry = getattr(self.platform, "telemetry", None)
        if telemetry is None:
            raise RestError(
                "telemetry is not enabled on this platform",
                status=404, code="telemetry_disabled",
                detail="construct CrossePlatform(..., telemetry=...) or "
                       "call platform.enable_telemetry()")
        return telemetry

    def _metrics_v1(self, params: dict, _body: dict) -> Any:
        telemetry = self._telemetry()
        fmt = params.get("format", "json")
        if fmt == "prometheus":
            # Text exposition format 0.0.4; the payload is the raw text
            # (a socket transport would serve it as text/plain).
            return telemetry.metrics.render_prometheus()
        if fmt != "json":
            raise RestError(
                f"unknown metrics format {fmt!r}; use json or prometheus",
                code="invalid_format")
        return {"metrics": telemetry.metrics.to_dict()}

    def _trace_v1(self, params: dict, _body: dict) -> dict:
        telemetry = self._telemetry()
        root = telemetry.tracer.trace(params["query_id"])
        if root is None:
            raise RestError(
                f"no trace retained for {params['query_id']!r}",
                status=404, code="trace_not_found")
        return {"trace": root.to_dict()}

    def _slow_queries_v1(self, params: dict, body: dict) -> dict:
        telemetry = self._telemetry()
        log = telemetry.slow_queries
        payload = self._paginated(
            [entry.to_dict() for entry in log.entries()],
            "slow_queries", params, body)
        payload["threshold_s"] = log.threshold_s
        payload["recorded"] = log.recorded
        return payload

    # -- v1: pooled streaming query ------------------------------------------------

    def _query_v1(self, params: dict, body: dict) -> dict:
        username = body["username"]
        text = body["query"]
        query_params = body.get("params")
        if query_params is not None and not isinstance(query_params, list):
            raise RestError(
                "params must be a JSON array of values, got "
                f"{type(query_params).__name__}", code="invalid_params")
        limit, token = _page_args(params, body)
        signature = request_signature("query", username, text,
                                      query_params)
        # Reject a bad token before checking out a session and running
        # the pipeline: a forged continuation must cost nothing.
        token_offset(token, signature)
        with self.pool.checkout(username) as session:
            cursor = session.stream(text, query_params)
            columns = list(cursor.columns)
            page = paginate_cursor(cursor, limit, token, signature)
            trace = session.last_trace()
        payload = {
            "columns": columns,
            "rows": [list(row) for row in page.items],
            "next_token": page.next_token,
            "limit": limit,
        }
        if trace is not None:
            # Join handle to GET /api/v1/traces/{query_id}.
            payload["query_id"] = trace.query_id
        return payload

    def _analyze_v1(self, _params: dict, body: dict) -> dict:
        """Static analysis of a SESQL statement, without executing it.

        Always answers 200 with a report: an unparsable statement
        yields one ``E-SYNTAX`` diagnostic rather than a transport
        error, so linting clients can treat every outcome uniformly.
        """
        username = body["username"]
        text = body["query"]
        with self.pool.checkout(username) as session:
            try:
                prepared = session.prepare(text)
            except (SesqlError, RelationalError) as exc:
                report = AnalysisReport(statement=text)
                report.add("E-SYNTAX", str(exc))
                return {"report": report.to_dict()}
            report = prepared.diagnostics
        if report is None:  # analysis disabled on this session
            report = AnalysisReport(statement=text)
        return {"report": report.to_dict()}

    # -- v1: batch ------------------------------------------------------------------

    def _batch_v1(self, _params: dict, body: dict) -> dict:
        requests = body["requests"]
        if not isinstance(requests, list):
            raise RestError("requests must be a list",
                            code="invalid_batch")
        for entry in requests:
            if not isinstance(entry, dict) or "path" not in entry:
                raise RestError(
                    "each batch entry needs at least a path",
                    code="invalid_batch", detail=entry)
            if entry["path"].partition("?")[0] == "/api/v1/batch":
                raise RestError("batch requests cannot nest",
                                code="invalid_batch")
        if not requests:
            return {"responses": []}

        def dispatch(entry: dict) -> Response:
            return self.request(entry.get("method", "GET"),
                                entry["path"], entry.get("body"))

        def is_read_only(entry: dict) -> bool:
            method = entry.get("method", "GET").upper()
            path = entry["path"].partition("?")[0]
            return method == "GET" or path == "/api/v1/query"

        # Wave execution: consecutive read/query sub-requests run
        # concurrently (contending on the session pool and the
        # databank's reader-writer lock like independent top-level
        # requests); anything else is an in-order barrier — a query
        # after a mutation (users, annotations, acceptance) in the same
        # batch must observe it, and legacy ``/api/sesql`` runs on the
        # platform's one unpooled default session and writes the
        # user's context profile, neither of which two threads may
        # share.
        responses: list[Response] = []
        index = 0
        while index < len(requests):
            if not is_read_only(requests[index]):
                responses.append(dispatch(requests[index]))
                index += 1
                continue
            wave = [requests[index]]
            while index + len(wave) < len(requests) \
                    and is_read_only(requests[index + len(wave)]):
                wave.append(requests[index + len(wave)])
            workers = min(len(wave), self.pool.capacity)
            with ThreadPoolExecutor(max_workers=workers) as executor:
                responses.extend(executor.map(dispatch, wave))
            index += len(wave)
        return {"responses": [
            {"status": response.status, "body": response.payload}
            for response in responses]}
