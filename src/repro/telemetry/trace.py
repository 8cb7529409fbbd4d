"""Per-query span trees with ``contextvars`` propagation.

A :class:`Span` is one timed region (name, attributes, wall/CPU time,
children).  The *current* span lives in a :class:`contextvars.ContextVar`
so nesting works naturally across generator-based streaming — the
context travels with whoever resumes the generator — and across worker
threads when the submitter ships a ``contextvars.copy_context()`` along
with the job (the federation executor and durability snapshot thread do
exactly that; see ``Tracer.attach``).

Root spans are registered in the tracer's ring buffer **at start**, not
at finish, so an open streaming query's trace is already retrievable by
``query_id`` while rows are still being drained.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar

#: Hard cap on spans recorded under one root — guards memory on
#: pathological queries.  Excess spans are counted but not kept.
MAX_SPANS_PER_TRACE = 512

#: The innermost open span for this context, or None outside any query.
_CURRENT: ContextVar = ContextVar("repro_telemetry_span", default=None)


class Span:
    """One timed, attributed node in a query's trace tree."""

    __slots__ = ("name", "attrs", "children", "wall_s", "cpu_s", "error",
                 "query_id", "_start_wall", "_start_cpu", "_root",
                 "_budget", "_dropped", "_span_count", "_lock")

    def __init__(self, name: str, attrs=None, *, root=None,
                 max_spans: int = 0) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children = []
        self.wall_s = None          # None while the span is open
        self.cpu_s = None
        self.error = None
        self.query_id = None        # set on root spans only
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        self._root = root if root is not None else self
        if root is None:            # this IS a root: owns the budget
            self._budget = max_spans
            self._dropped = 0
            self._span_count = 1
            self._lock = threading.Lock()
        else:
            self._budget = 0
            self._dropped = 0
            self._span_count = 0
            self._lock = None

    # -- tree building --------------------------------------------------

    def _adopt(self, child: "Span") -> bool:
        """Attach *child* under self, honouring the root's span budget.

        Returns False (and counts a drop) when the budget is exhausted;
        the child still times itself, it just isn't kept.
        """
        root = self._root
        if root._budget:
            with root._lock:
                if root._dropped or root._span_count >= root._budget:
                    root._dropped += 1
                    return False
                root._span_count += 1
                self.children.append(child)
                return True
        self.children.append(child)
        return True

    def finish(self, error=None) -> None:
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self._start_wall
            self.cpu_s = time.process_time() - self._start_cpu
        if error is not None and self.error is None:
            self.error = f"{type(error).__name__}: {error}"

    @property
    def open(self) -> bool:
        return self.wall_s is None

    @property
    def dropped_spans(self) -> int:
        return self._root._dropped

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.query_id is not None:
            out["query_id"] = self.query_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.open:
            out["open"] = True
        if self._root is self and self._dropped:
            out["dropped_spans"] = self._dropped
        out["children"] = [c.to_dict() for c in self.children]
        return out

    def find(self, name: str):
        """Depth-first search for the first descendant named *name*."""
        for child in self.children:
            if child.name == name:
                return child
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def find_all(self, name: str) -> list:
        hits = []
        for child in self.children:
            if child.name == name:
                hits.append(child)
            hits.extend(child.find_all(name))
        return hits

    def format(self, indent: int = 0) -> str:
        """Human-readable tree rendering (for examples and debugging)."""
        wall = "open" if self.open else f"{self.wall_s * 1000:.3f} ms"
        attrs = ""
        if self.attrs:
            attrs = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(self.attrs.items()))
        lines = ["  " * indent + f"{self.name}  [{wall}]{attrs}"]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


class Tracer:
    """Builds span trees and keeps recent roots addressable by query id."""

    def __init__(self, *, retention: int = 128,
                 max_spans: int = MAX_SPANS_PER_TRACE) -> None:
        self._retention = retention
        self._max_spans = max_spans
        self._traces = OrderedDict()        # query_id -> root Span
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- context accessors ----------------------------------------------

    def current(self):
        """The innermost open span in this context, or None."""
        return _CURRENT.get()

    def trace(self, query_id: str):
        """The root span registered under *query_id*, or None."""
        with self._lock:
            return self._traces.get(query_id)

    def traces(self) -> list:
        """Recent root spans, oldest first."""
        with self._lock:
            return list(self._traces.values())

    # -- span creation --------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """A child span under the current context span.

        Outside any root span this is a no-op that yields None — so
        instrumented library code can open spans unconditionally once
        it has checked that telemetry is attached at all.
        """
        parent = _CURRENT.get()
        if parent is None:
            yield None
            return
        child = Span(name, attrs, root=parent._root)
        parent._adopt(child)
        token = _CURRENT.set(child)
        try:
            yield child
        except BaseException as exc:
            child.finish(error=exc)
            raise
        finally:
            _CURRENT.reset(token)
            child.finish()

    @contextmanager
    def query_span(self, name: str, **attrs):
        """A root span: registered immediately, finished on exit."""
        root = self.start_root(name, **attrs)
        token = _CURRENT.set(root)
        try:
            yield root
        except BaseException as exc:
            root.finish(error=exc)
            raise
        finally:
            _CURRENT.reset(token)
            root.finish()

    def start_root(self, name: str, **attrs) -> Span:
        """Open and register a root span (manual finish — streaming)."""
        root = Span(name, attrs, max_spans=self._max_spans)
        root.query_id = f"q-{next(self._ids):06d}"
        root.attrs.setdefault("query_id", root.query_id)
        with self._lock:
            self._traces[root.query_id] = root
            while len(self._traces) > self._retention:
                self._traces.popitem(last=False)
        return root

    @contextmanager
    def activate(self, span: Span):
        """Make an already-open *span* current in this context.

        Used with :meth:`start_root` for streaming queries: the cursor
        wrapper re-activates the root each time the consumer pulls a
        page, so spans opened during lazy execution still parent
        correctly.
        """
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)

    @contextmanager
    def attach(self, parent, name: str, **attrs):
        """A child span under an **explicit** parent, for code running
        where the context variable does not reach (worker threads whose
        submitter could not copy a context, the background snapshot
        thread).  No-op yielding None when *parent* is None."""
        if parent is None:
            yield None
            return
        child = Span(name, attrs, root=parent._root)
        parent._adopt(child)
        token = _CURRENT.set(child)
        try:
            yield child
        except BaseException as exc:
            child.finish(error=exc)
            raise
        finally:
            _CURRENT.reset(token)
            child.finish()

    def graft(self, parent, payload: dict):
        """Rebuild a remote span tree under *parent*.

        *payload* is a ``Span.to_dict()`` shipped across a process
        boundary (the cluster worker returns its slice of the trace in
        the RPC response); grafting it under the coordinator's RPC span
        keeps one query = one span tree even when the work crossed
        processes.  Honours the root's span budget like any locally
        opened span.  Returns the grafted top span, or None when
        *parent* is None / the payload is empty / the budget dropped it.
        """
        if parent is None or not payload:
            return None
        child = Span(payload.get("name", "remote"),
                     payload.get("attrs"), root=parent._root)
        child.wall_s = payload.get("wall_s")
        child.cpu_s = payload.get("cpu_s")
        child.error = payload.get("error")
        remote_id = payload.get("query_id")
        if remote_id is not None:
            child.attrs.setdefault("remote_query_id", remote_id)
        if not parent._adopt(child):
            return None
        for sub in payload.get("children", ()):
            self.graft(child, sub)
        return child

    def record_synthetic(self, name: str, wall_s: float, **attrs) -> None:
        """Attach a pre-measured child span under the current span.

        For work that happened before the root opened (e.g. parse time
        captured at ``prepare()`` long before ``execute()``)."""
        parent = _CURRENT.get()
        if parent is None:
            return
        child = Span(name, attrs, root=parent._root)
        child.wall_s = wall_s
        child.cpu_s = 0.0
        parent._adopt(child)
