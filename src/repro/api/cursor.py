"""Cursor plumbing for the service layer.

Re-exports the relational :class:`~repro.relational.Cursor` (the
streaming result handle ``Session.stream`` returns) and implements the
**opaque pagination tokens** the versioned REST surface uses: a token
encodes the continuation state of a paginated request (offset plus a
signature binding it to the request it belongs to) as URL-safe base64
JSON.  Tokens are deliberately opaque to clients — they round-trip them
verbatim via ``next_token`` — but stateless for the server: no cursor
registry is kept between requests.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Sequence

from ..relational.result import Cursor
from .errors import CursorTokenError

__all__ = [
    "Cursor", "Page", "encode_token", "decode_token", "token_offset",
    "request_signature", "paginate_sequence", "paginate_cursor",
]


def encode_token(payload: dict[str, Any]) -> str:
    """Serialize a continuation payload into an opaque token."""
    raw = json.dumps(payload, separators=(",", ":"),
                     sort_keys=True).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_token(token: str) -> dict[str, Any]:
    """Decode an opaque token; malformed input raises CursorTokenError."""
    if not isinstance(token, str) or not token:
        raise CursorTokenError(f"invalid cursor token {token!r}")
    padded = token + "=" * (-len(token) % 4)
    try:
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
    except (binascii.Error, UnicodeError, ValueError):
        raise CursorTokenError(f"invalid cursor token {token!r}") from None
    if not isinstance(payload, dict):
        raise CursorTokenError(f"invalid cursor token {token!r}")
    return payload


def request_signature(*parts: Any) -> str:
    """A short fingerprint binding a token to the request that made it.

    A token handed back with different request parameters (another
    query, another user) is rejected instead of silently paginating the
    wrong result.
    """
    canonical = json.dumps(parts, separators=(",", ":"), sort_keys=True,
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class Page:
    """One page of a paginated listing."""

    items: list
    next_token: str | None


def token_offset(token: str | None, signature: str) -> int:
    """The validated continuation offset a token carries (0 for none).

    Callers that open expensive resources (a streaming cursor holding
    the databank read lock) should validate the token *first* so a
    forged/expired token costs nothing.
    """
    if token is None:
        return 0
    payload = decode_token(token)
    if payload.get("sig") != signature:
        raise CursorTokenError(
            "cursor token does not belong to this request")
    offset = payload.get("offset")
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
        raise CursorTokenError(f"invalid cursor token offset {offset!r}")
    return offset


def paginate_sequence(items: Sequence, limit: int,
                      token: str | None, signature: str) -> Page:
    """Offset-paginate a materialized sequence with opaque tokens."""
    offset = token_offset(token, signature)
    window = list(items[offset:offset + limit])
    next_token = None
    if offset + limit < len(items):
        next_token = encode_token({"offset": offset + limit,
                                   "sig": signature})
    return Page(window, next_token)


def paginate_cursor(cursor: Cursor, limit: int,
                    token: str | None, signature: str) -> Page:
    """Offset-paginate a streaming cursor.

    One pull, a demand the cursor forwards to its producer: a page, its
    one-row lookahead — which decides whether a ``next_token`` is
    warranted — and, for a continuation, the ``offset`` rows it skips,
    so a SESQL page folds each enrichment in once.  The cursor is
    closed *whatever happens*: it may hold a database read lock, so
    even a malformed token must not leak it.
    """
    try:
        offset = token_offset(token, signature)
        rows = cursor.fetchmany(offset + limit + 1)
    finally:
        cursor.close()
    del rows[:offset]
    next_token = None
    if len(rows) > limit:
        del rows[limit:]
        next_token = encode_token({"offset": offset + limit,
                                   "sig": signature})
    return Page(rows, next_token)
