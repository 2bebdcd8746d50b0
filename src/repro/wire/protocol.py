"""The wire protocol: versioned newline-delimited JSON frames.

One frame per line.  Every frame is a JSON object carrying the
protocol version (``"v"``), a frame kind (``"kind"``), a request id
(``"id"``) for correlation, and kind-specific payload keys::

    {"id":7,"kind":"ACQUIRE","processor":3,"v":1}\\n
    {"id":7,"kind":"LEASE","lease_id":12,"resource":5,"v":1,"waited":0.0}\\n

Requests (client → server): ``ACQUIRE``, ``RELEASE``, ``END_TX``,
``PING``, ``STATS``.  Replies (server → client): ``LEASE``,
``REJECTED``, ``TIMEOUT``, ``REVOKED``, ``ERROR``, ``OK``, ``PONG``.
``REVOKED`` doubles as the server's *push* frame — a fault severing a
held lease reaches the connected holder unprompted, with
``request_id == PUSH_ID``.

Encode/decode are **pure functions** — no sockets, no state — so the
property suite round-trips every frame kind without a server.
Malformed input never raises past :class:`ProtocolError`; servers
answer it with an explicit ``ERROR`` frame instead of dropping the
connection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "Frame",
    "MAX_LINE",
    "ProtocolError",
    "PUSH_ID",
    "PUSH_KINDS",
    "REPLY_KINDS",
    "REPLY_SCHEMA",
    "REQUEST_KINDS",
    "WIRE_VERSION",
    "decode",
    "encode",
    "make_acquire",
    "make_end_tx",
    "make_error",
    "make_lease",
    "make_ok",
    "make_ping",
    "make_pong",
    "make_rejected",
    "make_release",
    "make_revoked",
    "make_stats",
    "make_timeout",
]

#: Protocol version stamped on (and demanded of) every frame.
WIRE_VERSION = 1

#: Request id reserved for server-initiated push frames (REVOKED).
#: Clients allocate ids from 1 upward.
PUSH_ID = 0

#: Longest frame line either end accepts; a longer one loses the connection.
MAX_LINE = 65536

REQUEST_KINDS: tuple[str, ...] = ("ACQUIRE", "RELEASE", "END_TX", "PING", "STATS")
REPLY_KINDS: tuple[str, ...] = (
    "LEASE", "REJECTED", "TIMEOUT", "REVOKED", "ERROR", "OK", "PONG",
)
KINDS: frozenset[str] = frozenset(REQUEST_KINDS) | frozenset(REPLY_KINDS)

#: The request→reply state machine: which correlated reply kinds each
#: request kind admits.  ``wire/server.py`` is checked against this
#: table by lint rule R008; keep it a literal so the rule can read it
#: from the AST without importing the module.
REPLY_SCHEMA: Mapping[str, tuple[str, ...]] = {
    "ACQUIRE": ("LEASE", "REJECTED", "TIMEOUT", "ERROR"),
    "RELEASE": ("OK", "REVOKED", "ERROR"),
    "END_TX": ("OK", "REVOKED", "ERROR"),
    "PING": ("PONG",),
    "STATS": ("OK", "ERROR"),
}

#: Kinds the server may send unprompted under ``PUSH_ID``: lease
#: revocations, and transport-level errors for undecodable frames
#: that carry no usable request id.
PUSH_KINDS: tuple[str, ...] = ("REVOKED", "ERROR")

#: Keys owned by the envelope; payloads may not shadow them.
_RESERVED_KEYS = frozenset({"v", "kind", "id"})


class ProtocolError(Exception):
    """A frame could not be encoded or decoded."""


@dataclass(frozen=True)
class Frame:
    """One protocol frame: a kind, a correlation id, and a payload.

    ``payload`` holds the kind-specific keys (``processor``,
    ``lease_id``, ``reason``, ...).  Frames are value objects —
    ``decode(encode(f)) == f`` for every well-formed frame.
    """

    kind: str
    request_id: int
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ProtocolError(f"unknown frame kind {self.kind!r}")
        if isinstance(self.request_id, bool) or not isinstance(self.request_id, int):
            raise ProtocolError(f"request id must be an int, got {self.request_id!r}")
        if self.request_id < 0:
            raise ProtocolError(f"request id must be >= 0, got {self.request_id}")
        shadowed = _RESERVED_KEYS & set(self.payload)
        if shadowed:
            raise ProtocolError(
                f"payload keys {sorted(shadowed)} shadow the frame envelope"
            )

    def get(self, key: str, default: Any = None) -> Any:
        """Payload lookup with a default (sugar for handlers)."""
        return self.payload.get(key, default)


def encode(frame: Frame) -> bytes:
    """``frame`` as one newline-terminated JSON line (UTF-8 bytes)."""
    document = {"v": WIRE_VERSION, "kind": frame.kind, "id": frame.request_id}
    document.update(frame.payload)
    try:
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable payload: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def decode(line: bytes | str) -> Frame:
    """Parse one frame line; raises :class:`ProtocolError` on any defect.

    Defects are reported with distinct messages (bad UTF-8, bad JSON,
    non-object, wrong/missing version, unknown kind, bad id) so the
    server's ``ERROR`` replies tell the client what to fix.
    """
    if isinstance(line, bytes):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    else:
        text = line
    text = text.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc.msg}") from exc
    if not isinstance(document, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(document).__name__}"
        )
    version = document.get("v")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this end speaks "
            f"v{WIRE_VERSION})"
        )
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    request_id = document.get("id")
    if isinstance(request_id, bool) or not isinstance(request_id, int) or request_id < 0:
        raise ProtocolError(f"bad request id {request_id!r}")
    payload = {k: v for k, v in document.items() if k not in _RESERVED_KEYS}
    return Frame(kind=kind, request_id=request_id, payload=payload)


# ----------------------------------------------------------------------
# Frame constructors (the documented payload shapes)
# ----------------------------------------------------------------------
def make_acquire(
    request_id: int,
    processor: int,
    *,
    resource_type: str | int = "default",
    priority: int = 1,
    timeout: float | None = None,
) -> Frame:
    """ACQUIRE: request one resource for ``processor``.

    ``timeout`` is the request's deadline in seconds (server-side,
    checked at tick boundaries); ``None`` defers to the service
    default.
    """
    payload: dict[str, Any] = {
        "processor": processor,
        "resource_type": resource_type,
        "priority": priority,
    }
    if timeout is not None:
        payload["timeout"] = timeout
    return Frame("ACQUIRE", request_id, payload)


def make_release(request_id: int, lease_id: int) -> Frame:
    """RELEASE: free the lease's resource (and circuit if held)."""
    return Frame("RELEASE", request_id, {"lease_id": lease_id})


def make_end_tx(request_id: int, lease_id: int) -> Frame:
    """END_TX: release only the circuit; the resource keeps serving."""
    return Frame("END_TX", request_id, {"lease_id": lease_id})


def make_ping(request_id: int) -> Frame:
    """PING: liveness probe; the server echoes with PONG."""
    return Frame("PING", request_id)


def make_stats(request_id: int) -> Frame:
    """STATS: ask for the service metrics snapshot (OK reply)."""
    return Frame("STATS", request_id)


def make_lease(
    request_id: int, lease_id: int, resource: int, waited: float
) -> Frame:
    """LEASE: the ACQUIRE was granted."""
    return Frame(
        "LEASE", request_id,
        {"lease_id": lease_id, "resource": resource, "waited": waited},
    )


def make_rejected(request_id: int, reason: str) -> Frame:
    """REJECTED: admission control (or drain) bounced the ACQUIRE."""
    return Frame("REJECTED", request_id, {"reason": reason})


def make_timeout(request_id: int, reason: str) -> Frame:
    """TIMEOUT: the request's deadline expired while queued."""
    return Frame("TIMEOUT", request_id, {"reason": reason})


def make_revoked(request_id: int, lease_id: int, reason: str) -> Frame:
    """REVOKED: a fault severed the lease (push uses ``PUSH_ID``)."""
    return Frame("REVOKED", request_id, {"lease_id": lease_id, "reason": reason})


def make_error(request_id: int, message: str) -> Frame:
    """ERROR: the request (or its framing) could not be served."""
    return Frame("ERROR", request_id, {"message": message})


def make_ok(request_id: int, **payload: Any) -> Frame:
    """OK: generic success reply (RELEASE/END_TX/STATS)."""
    return Frame("OK", request_id, dict(payload))


def make_pong(request_id: int) -> Frame:
    """PONG: reply to PING."""
    return Frame("PONG", request_id)
