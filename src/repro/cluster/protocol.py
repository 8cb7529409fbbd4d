"""The cluster's wire protocol: length-prefixed JSON over sockets.

One message is a 4-byte big-endian length followed by a JSON body.  The
body is encoded with the durability layer's :func:`~repro.durability
.records.encode_json` codec, so RDF terms (IRIs, typed literals, blank
nodes) survive the process boundary exactly — the same property the WAL
relies on.

Addresses are plain dicts (they travel inside ``multiprocessing`` spawn
arguments and JSON payloads):

* ``{"kind": "unix", "path": "/tmp/.../shard-0.sock"}`` — the default;
  AF_UNIX paths are capped at ~100 bytes, so socket directories come
  from ``tempfile.mkdtemp`` rather than deep test directories.
* ``{"kind": "tcp", "host": "127.0.0.1", "port": 7401}`` — for hosts
  without AF_UNIX or for spreading shards across machines.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Any

from ..durability.records import decode_json, encode_json
from .errors import ProtocolError, ShardUnavailableError

HEADER = struct.Struct(">I")

#: Sanity cap mirroring the WAL's frame cap: a corrupted length prefix
#: must not make the reader attempt a multi-gigabyte allocation.
MAX_MESSAGE_BYTES = 1 << 28


def unix_address(path: str) -> dict:
    return {"kind": "unix", "path": path}


def format_address(address: dict) -> str:
    if address.get("kind") == "unix":
        return f"unix:{address['path']}"
    return f"tcp:{address.get('host')}:{address.get('port')}"


def listen_socket(address: dict, backlog: int = 64) -> socket.socket:
    """Bind + listen on *address*; unlinks a stale unix socket path."""
    kind = address.get("kind")
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if os.path.exists(address["path"]):
                os.unlink(address["path"])
            sock.bind(address["path"])
        except OSError:
            sock.close()
            raise
    elif kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((address["host"], address["port"]))
        except OSError:
            sock.close()
            raise
    else:
        raise ProtocolError(f"unknown address kind {kind!r}")
    sock.listen(backlog)
    return sock


def connect_socket(address: dict,
                   timeout: float | None = 10.0) -> socket.socket:
    """A connected client socket for *address*."""
    kind = address.get("kind")
    try:
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address["path"])
        elif kind == "tcp":
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=timeout)
        else:
            raise ProtocolError(f"unknown address kind {kind!r}")
    except OSError as exc:
        raise ShardUnavailableError(
            f"cannot connect to {format_address(address)}: {exc}") from exc
    return sock


def send_message(sock: socket.socket, payload: Any) -> None:
    body = encode_json(payload)
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the frame cap")
    try:
        sock.sendall(HEADER.pack(len(body)) + body)
    except OSError as exc:
        raise ShardUnavailableError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise ShardUnavailableError(f"recv failed: {exc}") from exc
        if not chunk:
            raise ShardUnavailableError(
                "peer closed the connection mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Any:
    (length,) = HEADER.unpack(_recv_exact(sock, HEADER.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"incoming message claims {length} bytes (cap "
            f"{MAX_MESSAGE_BYTES}); stream is corrupt")
    return decode_json(_recv_exact(sock, length))
