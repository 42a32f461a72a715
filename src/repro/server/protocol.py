"""The wire protocol: line-delimited JSON messages.

Every message — request, response, push — is one JSON object on one
``\\n``-terminated line (NDJSON), so any language with a JSON parser and a
socket can speak it.  Shapes:

Request (client -> server)::

    {"id": 7, "op": "query", "sql": "SELECT * FROM car PREFERRING ..."}

``id`` is the client's correlation token, echoed on every response to the
request.  Known ops: :data:`OPS`.

A ``query`` line that opens with ``{"id":<JSON integer>,"op":"query",``
(as :class:`~repro.server.client.PreferenceClient` writes it) may take
the server's fast path: once the bytes after the id have been seen
twice, a line repeating them is answered from the memoized resolution
without being decoded again.  The answer is the same, byte for byte.
Lines without that opening — another member order, a string id —
are served exactly as before.

Any request may carry ``deadline_ms`` — the client's latency budget in
milliseconds, measured from when the server parses the request.  A
request that cannot finish inside its budget is shed with a structured
``code="deadline"`` error (checked before *and* after the CPU work, so
an answer that arrived too late to matter is never sent).  Requests
past the server's admission watermark are refused with
``code="overloaded"`` instead of queueing unboundedly.

``health`` is the liveness/readiness op: catalog versions, storage and
circuit-breaker state, queue depth — cheap enough to poll.

Multi-tenant requests carry a ``tenant`` field; ``login`` binds a default
tenant to the connection so later requests may omit it.  ``profile``
manages the tenant's stored preference terms (``action``:
set/get/merge/delete).

Response (server -> client)::

    {"id": 7, "ok": true, ...}                  # op-specific payload
    {"id": 7, "ok": false, "error": "...", "code": "bad_request"}

Query results stream in bounded chunks so a million-row answer never
materializes in one message::

    {"id": 7, "ok": true, "kind": "rows", "seq": 0, "rows": [...], "done": false}
    {"id": 7, "ok": true, "kind": "rows", "seq": 1, "rows": [...], "done": true,
     "total": 1234, "source": "view", "elapsed_ns": 51000}

Push (server -> subscriber, no ``id``) — the BMO enter/exit delta stream
of a continuous view::

    {"kind": "delta", "subscription": 3, "relation": "car", "version": 9,
     "enter": [...], "exit": [...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: Protocol revision, exchanged in the ``hello`` response to ``ping``.
PROTOCOL_VERSION = 1

#: Hard cap on one message line; longer lines are a protocol error.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Rows per streamed result chunk (server default; not a protocol limit).
DEFAULT_CHUNK_ROWS = 500

#: Every request operation the server routes.
OPS = (
    "ping",
    "health",
    "login",
    "query",
    "explain",
    "insert",
    "delete",
    "subscribe",
    "unsubscribe",
    "revise",
    "profile",
    "checkpoint",
    "metrics",
    "relations",
    "close",
)


class ProtocolError(ValueError):
    """A malformed message: bad JSON, missing fields, unknown op."""


@dataclass(frozen=True)
class Request:
    """A parsed client request."""

    id: Any
    op: str
    params: dict[str, Any] = field(default_factory=dict)


def _jsonify(value: Any) -> Any:
    # Sets appear in preference payloads (POS sets); tuples in deltas.
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"unserializable value {value!r} in protocol message")


#: One encoder for every message: ``json.dumps`` with non-default
#: arguments builds a fresh ``JSONEncoder`` per call.  ``encode`` keeps
#: no state on the instance, so sharing it across threads is safe.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_jsonify)


def encode_message(message: dict[str, Any]) -> bytes:
    """One message as an NDJSON line (compact separators, ASCII-safe)."""
    return (_ENCODER.encode(message) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one NDJSON line into a message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"message exceeds {MAX_LINE_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"messages are JSON objects, got {type(message).__name__}"
        )
    return message


def parse_request(message: dict[str, Any]) -> Request:
    """Validate a decoded message as a request."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op'")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {list(OPS)}")
    params = {k: v for k, v in message.items() if k not in ("id", "op")}
    return Request(id=message.get("id"), op=op, params=params)


# -- message builders ----------------------------------------------------------


def ok_response(request_id: Any, **payload: Any) -> dict[str, Any]:
    return {"id": request_id, "ok": True, **payload}


def error_response(
    request_id: Any, error: str, code: str = "bad_request"
) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "error": error, "code": code}


def rows_chunks(
    request_id: Any,
    rows: list[dict[str, Any]],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    **final_fields: Any,
) -> Iterator[dict[str, Any]]:
    """Split a result into streamed ``kind="rows"`` chunk messages.

    Always yields at least one chunk (an empty result is one ``done``
    chunk); ``final_fields`` (source, elapsed_ns, ...) ride on the last.
    """
    chunk_rows = max(1, chunk_rows)
    chunks = [
        rows[i: i + chunk_rows] for i in range(0, len(rows), chunk_rows)
    ] or [[]]
    last = len(chunks) - 1
    for seq, chunk in enumerate(chunks):
        message = ok_response(
            request_id, kind="rows", seq=seq, rows=chunk, done=seq == last
        )
        if seq == last:
            message["total"] = len(rows)
            message.update(final_fields)
        yield message


def delta_message(
    subscription: Any,
    relation: str,
    version: int,
    enter: Iterable[dict[str, Any]],
    exit: Iterable[dict[str, Any]],
    error: str | None = None,
) -> dict[str, Any]:
    """A push notification for one continuous-view delta.

    ``error`` marks a broken stream: the view behind this subscription
    was quarantined by a failed refresh, so no further deltas will
    arrive until the client re-subscribes (which heals the view).
    """
    message = {
        "kind": "delta",
        "subscription": subscription,
        "relation": relation,
        "version": version,
        "enter": [dict(r) for r in enter],
        "exit": [dict(r) for r in exit],
    }
    if error is not None:
        message["error"] = error
    return message
