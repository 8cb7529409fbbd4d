"""Ring-buffer slow-query log: full span tree + plan for slow queries."""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: Ring-buffer capacity of the slow-query log.
SLOW_QUERY_LOG_SIZE = 64


@dataclass
class SlowQueryEntry:
    """One logged slow query: when, who, what, how slow, and why."""

    query_id: str
    statement: str | None
    user: str | None
    wall_s: float
    recorded_at: float = field(default_factory=time.time)
    trace: dict | None = None       # root span tree (Span.to_dict())
    plan: str | None = None         # formatted plan, when one existed
    rows: int | None = None

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "statement": self.statement,
            "user": self.user,
            "wall_s": self.wall_s,
            "recorded_at": self.recorded_at,
            "rows": self.rows,
            "plan": self.plan,
            "trace": self.trace,
        }


class SlowQueryLog:
    """Bounded, thread-safe log of the slowest-path evidence.

    ``threshold_s`` of None disables recording entirely; 0 records
    every query (useful in tests and when diagnosing a live system).
    """

    def __init__(self, *, threshold_s: float | None = 0.25,
                 size: int = SLOW_QUERY_LOG_SIZE) -> None:
        self.threshold_s = threshold_s
        self._entries = deque(maxlen=size)
        self._lock = threading.Lock()
        self.recorded = 0

    def should_record(self, wall_s: float) -> bool:
        return self.threshold_s is not None and wall_s >= self.threshold_s

    def record(self, entry: SlowQueryEntry) -> None:
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1

    def entries(self) -> list[SlowQueryEntry]:
        """Newest first."""
        with self._lock:
            return list(reversed(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_dict(self) -> dict:
        return {
            "threshold_s": self.threshold_s,
            "recorded": self.recorded,
            "entries": [e.to_dict() for e in self.entries()],
        }
