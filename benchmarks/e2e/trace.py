"""Span recorder for the traced benchmark run.

Nothing under ``src/`` is edited: :func:`installed` wraps a fixed table
of public entry points (``ENTRY_POINTS``) with span recorders and puts
the originals back on exit.  A span is ``(id, parent, name, start, end,
self_s, op, n, source_side)``; spans of one op share its op id; a
span's parent is whatever span was open when it started.  Self time is
the span's duration minus the time its child spans cover (everything
runs on one thread, so children never overlap and coverage is the sum
of their durations).

The program's own ``repro.telemetry`` stays off; these spans come from
the benchmark's side of each layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Layers, in request order.  ``driver`` is the op root the harness
#: opens itself; its self time is the unattributed remainder.
LAYERS = (
    "rest", "api.pool", "api.session", "analysis", "core.sqp",
    "core.engine", "core.sqm", "core.join_manager", "sparql", "rdf",
    "crosse.kb", "crosse.platform", "relational", "planner",
    "federation", "durability",
)

#: Bucket for ``relational`` and ``planner`` spans that run under
#: ``federation.ship``: source-side statements are federation's cost,
#: not the local engine's.
SOURCE_SIDE = "federation.source"


def _len_result(_args: tuple, result: Any) -> int:
    return len(result)


def _len_first_arg(args: tuple, _result: Any) -> int:
    return len(args[1])  # args[0] is self


def _int_result(_args: tuple, result: Any) -> int:
    return int(result or 0)


def _from_cache(_args: tuple, result: Any) -> int:
    return 1 if result.from_cache else 0


def _one_or_none(_args: tuple, result: Any) -> int:
    return 0 if result is None else 1


def _rows_of(_args: tuple, result: Any) -> int:
    """Rows of a SELECT's ResultSet (DML returns a count, DDL None)."""
    return len(result.rows) if hasattr(result, "rows") else 0


#: (owner, attribute, span name, layer, kind, measure).  *owner* is a
#: dotted path to a module or class; *kind* is ``call`` (plain),
#: ``fetch`` (a cursor drain: per-row ``__next__`` calls under it are
#: not recorded one by one) or ``next`` (recorded only outside a
#: fetch).  *measure* turns (args, result) into the span's ``n``.
ENTRY_POINTS: tuple[tuple[str, str, str, str, str, Callable | None], ...] = (
    ("repro.federation.rest.CrosseRestService", "request",
     "rest.request", "rest", "call", None),
    ("repro.federation.rest.Response", "json",
     "rest.encode", "rest", "call", None),
    ("repro.api.pool.SessionPool", "checkout",
     "api.pool.checkout", "api.pool", "call", None),
    ("repro.api.session.Session", "prepare",
     "api.session.prepare", "api.session", "call", _from_cache),
    ("repro.api.session.Session", "execute",
     "api.session.execute", "api.session", "call", None),
    ("repro.api.session.Session", "stream",
     "api.session.stream", "api.session", "call", None),
    # Public constructor: PlatformSession builds one engine per user and
    # again after every invalidation, so its calls are the rebuilds.
    ("repro.core.engine.SESQLEngine", "__init__",
     "api.session.engine_build", "api.session", "call", None),
    # Looked up as a module global of repro.api.session at call time.
    ("repro.api.session", "analyze_enriched",
     "analysis.analyze_enriched", "analysis", "call", None),
    ("repro.core.sqp.SemanticQueryParser", "parse",
     "core.sqp.parse", "core.sqp", "call", None),
    ("repro.core.engine.SESQLEngine", "execute_parsed",
     "core.engine.execute_parsed", "core.engine", "call", None),
    ("repro.core.engine.SESQLEngine", "stream_parsed",
     "core.engine.stream_parsed", "core.engine", "call", None),
    ("repro.core.engine.SESQLEngine", "apply_where_rewrites",
     "core.engine.where_rewrite", "core.engine", "call", None),
    ("repro.core.engine.SESQLEngine", "combine_enrichments",
     "core.engine.combine_enrichments", "core.engine", "call", None),
    ("repro.core.sqm.SemanticQueryModule", "pairs_for",
     "core.sqm.pairs_for", "core.sqm", "call", None),
    ("repro.core.sqm.SemanticQueryModule", "values_for",
     "core.sqm.values_for", "core.sqm", "call", None),
    ("repro.core.sqm.SemanticQueryModule", "subjects_for",
     "core.sqm.subjects_for", "core.sqm", "call", None),
    ("repro.core.join_manager.JoinManager", "combine",
     "core.join_manager.combine", "core.join_manager", "call",
     _len_first_arg),
    # The streaming path (REST) never calls JoinManager.combine: it
    # prepares a combiner once per cursor and applies it per page.
    ("repro.core.join_manager.JoinManager", "prepare",
     "core.join_manager.prepare", "core.join_manager", "call", None),
    ("repro.core.join_manager.PreparedPairCombine", "combine",
     "core.join_manager.page_combine", "core.join_manager", "call",
     _len_first_arg),
    ("repro.core.join_manager.PreparedFlagCombine", "combine",
     "core.join_manager.page_combine", "core.join_manager", "call",
     _len_first_arg),
    ("repro.sparql.evaluator.SparqlEngine", "query",
     "sparql.query", "sparql", "call", None),
    ("repro.sparql.evaluator.SparqlEngine", "stream",
     "sparql.stream", "sparql", "call", None),
    # The SQM does not go through SparqlEngine: it parses with
    # parse_sparql (a module global of repro.core.sqm) and runs
    # Evaluator.select itself.
    ("repro.core.sqm", "parse_sparql",
     "sparql.parse", "sparql", "call", None),
    ("repro.sparql.evaluator.Evaluator", "select",
     "sparql.select", "sparql", "call", _len_result),
    ("repro.rdf.store.TripleStore", "add_all",
     "rdf.add_all", "rdf", "call", _int_result),
    ("repro.rdf.store.TripleStore", "update",
     "rdf.update", "rdf", "call", _int_result),
    ("repro.crosse.kb.KnowledgeBaseStore", "effective_kb",
     "crosse.kb.effective_kb", "crosse.kb", "call", None),
    ("repro.crosse.kb.KnowledgeBaseStore", "insert",
     "crosse.kb.insert", "crosse.kb", "call", None),
    ("repro.crosse.kb.KnowledgeBaseStore", "accept",
     "crosse.kb.accept", "crosse.kb", "call", None),
    ("repro.crosse.platform.CrossePlatform", "annotate_free",
     "crosse.platform.annotate_free", "crosse.platform", "call", None),
    ("repro.crosse.platform.CrossePlatform", "accept_statement",
     "crosse.platform.accept_statement", "crosse.platform", "call", None),
    ("repro.crosse.platform.CrossePlatform", "recommend_peers",
     "crosse.platform.recommend_peers", "crosse.platform", "call", None),
    ("repro.crosse.platform.CrossePlatform", "explore_annotations",
     "crosse.platform.explore_annotations", "crosse.platform", "call",
     None),
    ("repro.relational.engine.Database", "stream_ast",
     "relational.stream_ast", "relational", "call", None),
    ("repro.relational.engine.Database", "execute_ast",
     "relational.execute_ast", "relational", "call", _rows_of),
    ("repro.relational.engine.Database", "create_temp_table",
     "relational.create_temp_table", "relational", "call", None),
    ("repro.relational.engine.Database", "drop_temp_table",
     "relational.drop_temp_table", "relational", "call", None),
    ("repro.relational.result.Cursor", "fetchone",
     "relational.fetch", "relational", "fetch", _one_or_none),
    ("repro.relational.result.Cursor", "fetchmany",
     "relational.fetch", "relational", "fetch", _len_result),
    ("repro.relational.result.Cursor", "fetchall",
     "relational.fetch", "relational", "fetch", _len_result),
    ("repro.relational.result.Cursor", "close",
     "relational.close", "relational", "fetch", None),
    ("repro.relational.result.Cursor", "__next__",
     "relational.fetch", "relational", "next", _one_or_none),
    # Imported from repro.planner.plan inside Database._plan_and_compile
    # on every call, so patching the module attribute takes effect.
    ("repro.planner.plan", "plan_select",
     "planner.plan_select", "planner", "call", None),
    ("repro.federation.databank.MediatedDatabank", "execute_ast",
     "federation.execute_ast", "federation", "call", None),
    ("repro.federation.databank.MediatedDatabank", "stream_ast",
     "federation.stream_ast", "federation", "call", None),
    ("repro.federation.databank.MediatedDatabank", "refresh",
     "federation.refresh", "federation", "call", None),
    ("repro.federation.executor.FederationExecutor", "ship",
     "federation.ship", "federation", "call", None),
    # DurabilityManager has no log(); every component's mutation hook
    # logs through its ComponentJournal.
    ("repro.durability.manager.ComponentJournal", "log",
     "durability.log", "durability", "call", None),
)

#: A cursor call with no other cursor call open around it is on the
#: cursor SESQLEngine.stream_parsed returned (every cursor in these
#: workloads comes from there): its own time is the engine's page loop.
#: The databank's cursor is drained from inside it.
OUTER_CURSOR = "core.engine.drain"

LAYER_OF = {name: layer for _o, _a, name, layer, _k, _m in ENTRY_POINTS}
LAYER_OF["op"] = "driver"
LAYER_OF[OUTER_CURSOR] = "core.engine"


class Tracer:
    """Collects the spans of wrapped calls.

    One open-span stack: the harness drives every workload from one
    thread and the mediator ships its fragments inline, so no wrapped
    call ever runs anywhere else.
    """

    def __init__(self) -> None:
        #: Open frames: [child seconds, span id, under federation.ship].
        self.stack: list[list] = []
        self.finished: list[tuple] = []
        #: Stream index of the op in progress (-1 between ops).
        self.current_op = -1
        #: Cursor ``fetch*`` calls open (per-row ``__next__`` calls under
        #: one are not recorded).
        self.fetching = 0
        self.last_id = 0

    def new_id(self) -> int:
        self.last_id += 1
        return self.last_id

    # -- the op root, opened by the harness ----------------------------------

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        self.current_op = op_id
        frame = [0.0, self.new_id(), False]
        self.stack.append(frame)
        started = perf_counter()
        try:
            yield
        finally:
            ended = perf_counter()
            self.stack.pop()
            self.finished.append((frame[1], 0, "op", started, ended,
                                  ended - started - frame[0], op_id, 0,
                                  False))
            self.current_op = -1

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, kind: str,
             measure: Callable | None) -> Callable:
        is_ship = name == "federation.ship"
        # Planning and execution at a source are both the source's.
        at_source = LAYER_OF[name] in ("relational", "planner")
        on_cursor = kind != "call"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "next" and self.fetching:
                return fn(*args, **kwargs)
            stack = self.stack
            parent = stack[-1] if stack else None
            under_ship = is_ship or (parent is not None and parent[2])
            frame = [0.0, self.new_id(), under_ship]
            stack.append(frame)
            span_name = name
            if on_cursor:
                if not self.fetching:
                    span_name = OUTER_CURSOR
                self.fetching += 1
            result = None
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = perf_counter()
                if on_cursor:
                    self.fetching -= 1
                stack.pop()
                duration = ended - started
                if parent is not None:
                    parent[0] += duration
                n = 0
                if measure is not None and result is not None:
                    n = measure(args, result)
                # A tuple of plain values: the collector stops tracking
                # it, so a million spans do not slow collections down.
                self.finished.append((
                    frame[1], parent[1] if parent is not None else 0,
                    span_name, started, ended, duration - frame[0],
                    self.current_op, n, at_source and under_ship))

        return wrapper

    # -- results --------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """The finished spans, by start time."""
        return sorted(self.finished, key=lambda span: span[3])

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as JSON: a header plus one row per span."""
        document = {
            "meta": meta,
            "columns": ["id", "parent", "name", "start_s", "end_s",
                        "self_s", "op", "n", "source_side"],
            "spans": self.spans(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _resolve(path: str) -> Any:
    """Import the longest module prefix of *path*, getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            owner = getattr(owner, part)
        return owner
    raise ImportError(path)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block.

    Each name must be defined on its owner itself (not inherited), so a
    renamed entry point fails here instead of silently tracing nothing.
    On exit every owner gets back exactly the object it held before.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner_path, attr, name, _layer, kind, measure in ENTRY_POINTS:
            owner = _resolve(owner_path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, kind, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- aggregation ---------------------------------------------------------------


def summarize(spans: list[tuple]) -> dict:
    """Per-layer and per-span-name totals of a span list.

    Returns ``{"layers": {layer: {"calls", "self_s"}}, "names": {name:
    {"calls", "self_s", "n"}}, "total_s": sum of op-root durations,
    "children": {(parent name, child name): count}}``.
    """
    layers = {layer: {"calls": 0, "self_s": 0.0}
              for layer in (*LAYERS, SOURCE_SIDE, "driver")}
    names: dict[str, dict] = {}
    name_of = {span[0]: span[2] for span in spans}
    children: dict[tuple[str, str], int] = {}
    total = 0.0
    for _id, parent, name, start, end, self_s, _op, n, source_side in spans:
        if source_side:
            name = SOURCE_SIDE
        layer = SOURCE_SIDE if source_side else LAYER_OF[name]
        bucket = layers[layer]
        bucket["calls"] += 1
        bucket["self_s"] += self_s
        entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "n": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["n"] += n
        if name == "op":
            total += end - start
        elif parent:
            key = (name_of.get(parent, "?"), name)
            children[key] = children.get(key, 0) + 1
    return {"layers": layers, "names": names, "total_s": total,
            "children": children}
