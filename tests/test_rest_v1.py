"""The versioned REST surface: routing, errors, pagination, batch.

Covers the route table, the structured error envelope on every failure
path (400/404/405/422), pagination-token round trips on list and query
endpoints, and the concurrent batch endpoint running through the
session pool.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.api.cursor import paginate_sequence, request_signature
from repro.crosse.platform import CrossePlatform
from repro.rdf import SMG
from repro.relational import Database
from repro.federation import CrosseRestService, RestError
from repro.federation.rest import RestRouter
from repro.smartground.datagen import SmartGroundConfig, generate_databank


@pytest.fixture
def service():
    platform = CrossePlatform(
        generate_databank(SmartGroundConfig(n_landfills=12, seed=7)))
    service = CrosseRestService(platform, pool_capacity=4)
    yield service
    service.close()


def _register_users(service, names):
    for name in names:
        response = service.request("POST", "/api/v1/users",
                                   {"username": name})
        assert response.status == 200


# -- route table ---------------------------------------------------------------


def test_route_table_lists_both_generations(service):
    response = service.request("GET", "/api/v1/routes")
    assert response.status == 200
    routes = {(entry["method"], entry["path"])
              for entry in response.payload["routes"]}
    assert ("POST", "/api/sesql") in routes               # legacy kept
    assert ("POST", "/api/v1/query") in routes
    assert ("POST", "/api/v1/batch") in routes
    assert ("GET", "/api/v1/annotations/{username}") in routes


# -- error paths ---------------------------------------------------------------


def test_404_uses_structured_envelope(service):
    response = service.request("GET", "/api/v1/nothing")
    assert response.status == 404
    error = response.payload["error"]
    assert error["code"] == "not_found"
    assert "/api/v1/nothing" in error["message"]


def test_405_lists_allowed_methods(service):
    response = service.request("DELETE", "/api/v1/users")
    assert response.status == 405
    assert response.payload["allow"] == ["GET", "POST"]
    assert response.payload["error"]["code"] == "method_not_allowed"
    assert response.payload["error"]["detail"]["allow"] == ["GET", "POST"]


def test_405_on_legacy_routes_too(service):
    response = service.request("PUT", "/api/sesql")
    assert response.status == 405
    assert response.payload["allow"] == ["POST"]


def test_400_missing_field(service):
    response = service.request("POST", "/api/v1/users", {})
    assert response.status == 400
    assert response.payload["error"]["code"] == "missing_field"
    assert "username" in response.payload["error"]["message"]


def test_400_bad_limit(service):
    _register_users(service, ["anna"])
    for bad in ("0", "-3", "nope", str(10_000)):
        response = service.request("GET", f"/api/v1/users?limit={bad}")
        assert response.status == 400
        assert response.payload["error"]["code"] == "invalid_limit"


def test_400_limit_that_is_no_count(service):
    """A JSON bool is an int and 2.7 truncates to 2: the limit is the
    engine's demand, so neither may pass for one.  Query-string digits
    and an integral JSON number still do."""
    _register_users(service, ["anna"])
    query = {"username": "anna", "query": "SELECT name FROM landfill"}
    for bad in (True, False, 2.7, float("inf"), "2.7", [3]):
        response = service.request("POST", "/api/v1/query",
                                   {**query, "limit": bad})
        assert response.status == 400, bad
        assert response.payload["error"]["code"] == "invalid_limit"
    for good in (3, 3.0, "3"):
        response = service.request("POST", "/api/v1/query",
                                   {**query, "limit": good})
        assert response.status == 200
        assert len(response.payload["rows"]) == 3
    response = service.request("GET", "/api/v1/users?limit=3")
    assert response.status == 200


def test_422_handler_error(service):
    _register_users(service, ["anna"])
    response = service.request("POST", "/api/v1/query", {
        "username": "anna", "query": "SELECT FROM WHERE"})
    assert response.status == 422
    assert response.payload["error"]["code"] == "unprocessable"


@pytest.mark.parametrize("params", [{"lf0000": 1}, "lf0000", 5, True])
def test_400_params_that_are_not_an_array(service, params):
    # An object used to bind its keys, a string its characters.
    _register_users(service, ["anna"])
    response = service.request("POST", "/api/v1/query", {
        "username": "anna", "params": params,
        "query": "SELECT name FROM landfill WHERE name = ?"})
    assert response.status == 400
    assert response.payload["error"]["code"] == "invalid_params"


def test_params_array_binds_and_null_means_none(service):
    _register_users(service, ["anna"])
    bound = service.request("POST", "/api/v1/query", {
        "username": "anna", "params": ["lf0000"],
        "query": "SELECT name FROM landfill WHERE name = ?"})
    assert bound.status == 200 and bound.payload["rows"] == [["lf0000"]]
    unbound = service.request("POST", "/api/v1/query", {
        "username": "anna", "params": None,
        "query": "SELECT COUNT(*) FROM landfill"})
    assert unbound.status == 200 and unbound.payload["rows"] == [[12]]


def test_analyze_shows_placeholders_as_written(service):
    _register_users(service, ["anna"])
    response = service.request("POST", "/api/v1/analyze", {
        "username": "anna",
        "query": "SELECT name FROM landfill WHERE name = ? LIMIT 5"})
    assert response.status == 200
    statement = response.payload["report"]["statement"]
    assert "name = ?" in statement and "__sesql_param" not in statement


def test_rest_error_maps_status_and_detail():
    router = RestRouter()

    def boom(_params, _body):
        raise RestError("gone", status=410, code="gone",
                        detail={"hint": "x"})

    router.register("GET", "/boom", boom)
    response = router.handle("GET", "/boom")
    assert response.status == 410
    assert response.payload["error"] == {
        "code": "gone", "message": "gone", "detail": {"hint": "x"}}


# -- pagination ----------------------------------------------------------------


def test_user_listing_paginates_round_trip(service):
    names = [f"user{i:02d}" for i in range(7)]
    _register_users(service, names)
    seen, token = [], None
    for _ in range(10):
        path = "/api/v1/users?limit=3"
        if token:
            path += f"&next_token={token}"
        response = service.request("GET", path)
        assert response.status == 200
        seen.extend(response.payload["users"])
        token = response.payload["next_token"]
        if token is None:
            break
    assert seen == sorted(names)


@pytest.mark.parametrize("query", [
    "SELECT name FROM landfill ORDER BY name",
    # A multi-valued SCHEMAEXTENSION emits more rows than the page of
    # base rows it combined: a page edge may fall inside one base row.
    "SELECT landfill_name, elem_name FROM elem_contained "
    "ORDER BY landfill_name, elem_name "
    "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
], ids=["plain", "enriched"])
def test_query_pagination_round_trip_matches_single_shot(service, query):
    _register_users(service, ["anna"])
    for subject, level in (("Mercury", "high"), ("Mercury", "extreme"),
                           ("Lead", "medium")):
        service.request("POST", "/api/v1/annotations", {
            "username": "anna", "subject": subject,
            "property": "dangerLevel", "object": level})
    single = service.request("POST", "/api/v1/query", {
        "username": "anna", "query": query, "limit": 1000})
    assert single.status == 200
    assert single.payload["next_token"] is None

    for limit in (1, 5, 100):
        paged, token = [], None
        for _ in range(200):
            body = {"username": "anna", "query": query, "limit": limit}
            if token:
                body["next_token"] = token
            response = service.request("POST", "/api/v1/query", body)
            assert response.status == 200
            assert response.payload["columns"] == single.payload["columns"]
            assert len(response.payload["rows"]) <= limit
            paged.extend(response.payload["rows"])
            token = response.payload["next_token"]
            if token is None:
                break
        assert paged == single.payload["rows"]


def test_query_token_bound_to_request(service):
    _register_users(service, ["anna", "bob"])
    first = service.request("POST", "/api/v1/query", {
        "username": "anna", "query": "SELECT name FROM landfill",
        "limit": 2})
    token = first.payload["next_token"]
    assert token is not None
    # Same token, different user: rejected instead of paginating the
    # wrong result.
    response = service.request("POST", "/api/v1/query", {
        "username": "bob", "query": "SELECT name FROM landfill",
        "limit": 2, "next_token": token})
    assert response.status == 400
    assert response.payload["error"]["code"] == "invalid_cursor"


def test_annotation_listing_paginates(service):
    # Exploration lists statements authored by *other* users, so anna
    # annotates and bob paginates.
    _register_users(service, ["anna", "bob"])
    for index in range(5):
        response = service.request("POST", "/api/v1/annotations", {
            "username": "anna", "subject": f"Elem{index}",
            "property": "dangerLevel", "object": "high"})
        assert response.status == 200
    response = service.request("GET", "/api/v1/annotations/bob?limit=2")
    assert response.status == 200
    assert len(response.payload["annotations"]) == 2
    assert response.payload["next_token"] is not None


def test_annotation_listing_projects_only_its_page(service, monkeypatch):
    """The records are paged, then projected: a 50-row page of a
    500-statement platform builds 50 dicts, and pages and tokens are
    what paginating the full projection (the legacy listing) gives."""
    _register_users(service, ["anna", "bob"])
    for index in range(500):
        service.request("POST", "/api/v1/annotations", {
            "username": "anna", "subject": f"Elem{index}",
            "property": "dangerLevel", "object": "high"})
    everything = service.request(
        "GET", "/api/annotations/bob").payload["annotations"]
    assert len(everything) == 500

    built = []
    project = CrosseRestService._annotation_dict
    monkeypatch.setattr(
        CrosseRestService, "_annotation_dict",
        staticmethod(lambda record: built.append(1) or project(record)))
    signature = request_signature("annotations", "bob")
    token = None
    for _page in range(3):
        response = service.request(
            "GET", "/api/v1/annotations/bob",
            {"limit": 50, "next_token": token})
        expected = paginate_sequence(everything, 50, token, signature)
        assert response.payload["annotations"] == expected.items
        assert response.payload["next_token"] == expected.next_token
        token = expected.next_token
    assert token is not None and len(built) == 150


USERS = st.sampled_from(["ann", "bob", "cy"])
PROPERTIES = st.sampled_from(["dangerLevel", "isA"])


class ListingModel(RuleBasedStateMachine):
    """Statements by random authors, public or not, accepted, rejected
    and retracted; a listing walks the platform's one order and stops at
    its page's end.  Every page and ``next_token`` must be what
    ``paginate_sequence`` makes of the full filtered list, which must be
    the model's."""

    @initialize()
    def setup(self):
        self.platform = CrossePlatform(Database())
        self.service = CrosseRestService(self.platform, pool_capacity=1)
        for name in ("ann", "bob", "cy"):
            self.platform.register_user(name)
        #: statement id -> [author, public, property, acceptors], in
        #: the order the statements were made.
        self.model = {}

    def teardown(self):
        if hasattr(self, "service"):
            self.service.close()

    @rule(author=USERS, prop=PROPERTIES, public=st.booleans(),
          subject=st.integers(0, 3))
    def annotate(self, author, prop, public, subject):
        record = self.platform.tagging.annotate_free(
            author, SMG[f"S{subject}"], SMG[prop], "high", public=public)
        self.model[record.statement_id] = [author, public, prop, set()]

    def _draw(self, data, condition):
        ids = [statement_id for statement_id, entry in self.model.items()
               if condition(*entry)]
        return data.draw(st.sampled_from(ids)) if ids else None

    @precondition(lambda self: self.model)
    @rule(data=st.data(), username=USERS)
    def accept(self, data, username):
        statement_id = self._draw(
            data, lambda author, public, _p, _a: public and author != username)
        if statement_id is not None:
            self.platform.accept_statement(username, statement_id)
            self.model[statement_id][3].add(username)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), username=USERS)
    def reject(self, data, username):
        statement_id = self._draw(
            data, lambda _a, _p, _q, acceptors: username in acceptors)
        if statement_id is not None:
            self.platform.reject_statement(username, statement_id)
            self.model[statement_id][3].discard(username)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def retract(self, data):
        statement_id = data.draw(st.sampled_from(sorted(self.model)))
        author = self.model.pop(statement_id)[0]
        self.platform.retract_statement(author, statement_id)

    def _expected(self, username, prop=None, author=None):
        return [statement_id
                for statement_id, (by, public, predicate, _acceptors)
                in self.model.items()
                if public and by != username
                and (prop is None or predicate == prop)
                and (author is None or by == author)]

    @rule(username=USERS, prop=st.none() | PROPERTIES,
          author=st.none() | USERS, limit=st.integers(0, 5))
    def walk_stops_at_its_limit(self, username, prop, author, limit):
        everything = self.platform.explore_annotations(
            username, prop=None if prop is None else SMG[prop],
            author=author)
        expected = self._expected(username, prop, author)
        assert [record.statement_id for record in everything] == expected
        walked = self.platform.explore_annotations(
            username, prop=None if prop is None else SMG[prop],
            author=author, limit=limit)
        assert walked == everything[:limit]

    @rule(username=USERS, limit=st.integers(1, 4))
    def pages_are_the_full_listing_paginated(self, username, limit):
        everything = self.service.request(
            "GET", f"/api/annotations/{username}").payload["annotations"]
        assert [entry["statement_id"] for entry in everything] \
            == self._expected(username)
        for entry in everything:
            assert entry["accepted_by"] == sorted(
                self.model[entry["statement_id"]][3])
        signature = request_signature("annotations", username)
        token = None
        for _page in range(len(everything) // limit + 2):
            response = self.service.request(
                "GET", f"/api/v1/annotations/{username}",
                {"limit": limit, "next_token": token})
            expected = paginate_sequence(everything, limit, token,
                                         signature)
            assert response.payload["annotations"] == expected.items
            assert response.payload["next_token"] == expected.next_token
            token = expected.next_token
            if token is None:
                break
        assert token is None


ListingModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
test_listing_walk_is_filter_then_paginate = ListingModel.TestCase


# -- batch ----------------------------------------------------------------------


def test_batch_runs_independent_requests(service):
    _register_users(service, ["anna", "bob"])
    response = service.request("POST", "/api/v1/batch", {"requests": [
        {"method": "GET", "path": "/api/v1/users?limit=10"},
        {"method": "POST", "path": "/api/v1/query",
         "body": {"username": "anna",
                  "query": "SELECT COUNT(*) AS n FROM landfill"}},
        {"method": "POST", "path": "/api/v1/query",
         "body": {"username": "bob",
                  "query": "SELECT COUNT(*) AS n FROM landfill"}},
        {"method": "GET", "path": "/api/v1/missing"},
    ]})
    assert response.status == 200
    statuses = [entry["status"]
                for entry in response.payload["responses"]]
    assert statuses == [200, 200, 200, 404]
    bodies = response.payload["responses"]
    assert bodies[0]["body"]["users"] == ["anna", "bob"]
    assert bodies[1]["body"]["rows"] == bodies[2]["body"]["rows"]
    assert service.pool.stats()["checkouts"] >= 2


def test_batch_mutations_are_in_order_barriers(service):
    """A query after a mutation in the same batch observes it: reads
    run concurrently only within waves between mutating requests."""
    response = service.request("POST", "/api/v1/batch", {"requests": [
        {"method": "POST", "path": "/api/v1/users",
         "body": {"username": "anna"}},
        {"method": "GET", "path": "/api/v1/users?limit=10"},
        {"method": "POST", "path": "/api/v1/users",
         "body": {"username": "bob"}},
        {"method": "GET", "path": "/api/v1/users?limit=10"},
    ]})
    assert [entry["status"]
            for entry in response.payload["responses"]] == [200] * 4
    bodies = response.payload["responses"]
    assert bodies[1]["body"]["users"] == ["anna"]
    assert bodies[3]["body"]["users"] == ["anna", "bob"]


def test_batch_runs_legacy_sesql_entries_in_order(service):
    """``/api/sesql`` goes through the platform's one unpooled session
    and feeds the user's context profile, so it is a barrier, not part
    of a concurrent read wave: the caller's thread runs each in turn."""
    import threading
    _register_users(service, ["anna", "bob"])
    platform = service.platform
    ran = []
    run_sesql = platform.run_sesql

    def recording(username, sesql, *args, **kwargs):
        ran.append((username, threading.get_ident()))
        return run_sesql(username, sesql, *args, **kwargs)

    platform.run_sesql = recording
    query = ("SELECT DISTINCT elem_name FROM elem_contained "
             "ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)")
    response = service.request("POST", "/api/v1/batch", {"requests": [
        {"method": "POST", "path": "/api/sesql",
         "body": {"username": user, "query": query}}
        for user in ("anna", "bob")]})
    assert [entry["status"]
            for entry in response.payload["responses"]] == [200, 200]
    here = threading.get_ident()
    assert ran == [("anna", here), ("bob", here)]
    for user in ("anna", "bob"):
        assert platform.context.profile(user).weight("dangerLevel") > 0


def test_batch_rejects_nesting_and_bad_entries(service):
    response = service.request("POST", "/api/v1/batch", {"requests": [
        {"method": "POST", "path": "/api/v1/batch", "body": {}}]})
    assert response.status == 400
    assert response.payload["error"]["code"] == "invalid_batch"

    response = service.request("POST", "/api/v1/batch",
                               {"requests": ["nope"]})
    assert response.status == 400

    response = service.request("POST", "/api/v1/batch", {"requests": []})
    assert response.status == 200
    assert response.payload["responses"] == []


def test_batch_requires_requests_field(service):
    response = service.request("POST", "/api/v1/batch", {})
    assert response.status == 400
    assert response.payload["error"]["code"] == "missing_field"
