"""The unified session API (DB-API-flavoured front door).

One entry point — :func:`connect` — covers every backend: a plain
databank, a per-user CroSSE context, or a federated mediator.  Sessions
add prepared queries with ``?`` parameters, an LRU plan cache, SPARQL
extraction memoization keyed by per-predicate KB stamps, batching and
``explain()`` observability on top of the Fig. 6 pipeline.
"""

from ..analysis import AnalysisError, AnalysisOptions, AnalysisReport
from .cache import ExtractionCache, LRUCache, PlanCache
from .cursor import (Cursor, Page, decode_token, encode_token,
                     paginate_cursor, paginate_sequence)
from .errors import CursorTokenError, PoolTimeoutError, SessionError
from .options import QueryOptions
from .plan import PlanStage, QueryPlan
from .pool import SessionLease, SessionPool
from .prepared import PreparedQuery
from .session import PlatformSession, Session, connect

__all__ = [
    "connect", "Session", "PlatformSession", "PreparedQuery",
    "QueryOptions", "QueryPlan", "PlanStage",
    "PlanCache", "ExtractionCache", "LRUCache",
    "Cursor", "Page", "encode_token", "decode_token",
    "paginate_sequence", "paginate_cursor",
    "SessionPool", "SessionLease",
    "SessionError", "PoolTimeoutError", "CursorTokenError",
    "AnalysisError", "AnalysisOptions", "AnalysisReport",
]
