"""The TCP front-end: :class:`WireServer` serves an allocation service.

One asyncio server, one task per connection and nothing per request:
each ``read()`` is split into every complete frame it carries, ACQUIREs
are admitted through :meth:`AllocationService.submit` and answered by
the ticket's callback inside the tick that settles them, and a
connection's replies leave in one ``write`` per loop turn.  Batching and
ticking stay inside the service; this layer translates frames to
service calls and leases back to frames.

Lease custody is **connection-scoped**: a disconnect (clean or not)
cancels the connection's queued ACQUIREs and auto-releases whatever it
held — a crashed client can never leak resources.  A fault that revokes
a held lease is *pushed* to the holder as a ``REVOKED`` frame under
:data:`~repro.wire.protocol.PUSH_ID`.  :meth:`WireServer.drain` rejects
new ACQUIREs while in-flight ones finish; :meth:`WireServer.close` then
tears connections down.  See ``docs/architecture.md`` Layer 9.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.requests import Request
from repro.service.server import (
    AllocationError,
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    Lease,
    LeaseRevoked,
    ServiceClosed,
    Ticket,
)
from repro.wire.protocol import (
    MAX_LINE,
    PUSH_ID,
    REQUEST_KINDS,
    Frame,
    ProtocolError,
    decode,
    encode,
    make_error,
    make_lease,
    make_ok,
    make_pong,
    make_rejected,
    make_revoked,
    make_timeout,
)

__all__ = ["WireServer"]

#: ACQUIRE payload: ``(field, accepted types, value when absent)``.  An
#: absent ``processor`` fails its own type check, so it alone is required.
_ACQUIRE_FIELDS: tuple[tuple[str, tuple[type, ...], Any], ...] = (
    ("processor", (int,), None),
    ("resource_type", (str, int), "default"),
    ("priority", (int,), 1),
    ("timeout", (int, float, type(None)), None),
)


@dataclass
class _Connection:
    """Per-connection state: stream ends, custody, unsent replies."""

    conn_id: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    leases: dict[int, Lease] = field(default_factory=dict)
    tickets: set[Ticket] = field(default_factory=set)
    revoked_ids: set[int] = field(default_factory=set)
    out: list[bytes] = field(default_factory=list)
    closed: bool = False


class WireServer:
    """Serve an :class:`AllocationService` over newline-framed TCP.

    Parameters
    ----------
    service:
        The service to front.  The caller owns its lifecycle (start it
        before :meth:`start`, close it after :meth:`close`); the wire
        layer never ticks it.
    host, port:
        Bind address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    max_connections:
        Guard on concurrent connections; excess connections get one
        ``ERROR`` frame and are closed before reading anything.
    """

    def __init__(
        self,
        service: AllocationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.service = service
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[int, _Connection] = {}
        self._conn_ids = 0
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._idle = asyncio.Event()  # set while no ACQUIRE is queued
        self._idle.set()
        # Observability counters (the soak test's invariants).
        self.protocol_errors = 0
        self.connections_accepted = 0
        self.connections_refused = 0
        self.frames_received = 0
        self.leases_granted = 0
        self.leases_auto_released = 0
        self.revocations_pushed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._closed:
            raise RuntimeError("WireServer is closed")
        if self._server is not None:
            raise RuntimeError("WireServer already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("WireServer not started")
        sockets = self._server.sockets
        if not sockets:
            raise RuntimeError("WireServer has no listening socket")
        name = sockets[0].getsockname()
        return (str(name[0]), int(name[1]))

    @property
    def open_connections(self) -> int:
        """Connections currently being served."""
        return len(self._connections)

    @property
    def draining(self) -> bool:
        """Whether new ACQUIREs are being rejected."""
        return self._draining

    def pending_acquires(self) -> int:
        """ACQUIREs queued in the service and not yet answered."""
        return self._inflight

    async def drain(self) -> None:
        """Stop admitting new ACQUIREs; wait out the in-flight ones.

        Connections stay open and RELEASE/END_TX/PING/STATS keep
        working — clients get to finish and tear down their own leases.
        The service must keep ticking while this awaits, or in-flight
        acquires can only end by deadline.
        """
        self._draining = True
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then drop every connection (releasing held leases)."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections.values()):
            await self._teardown(conn)
        if self._server is not None:
            await self._server.wait_closed()

    async def __aenter__(self) -> "WireServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed or len(self._connections) >= self.max_connections:
            self.connections_refused += 1
            try:
                writer.write(encode(make_error(
                    PUSH_ID,
                    f"server refusing connections "
                    f"({'closed' if self._closed else 'at max_connections'})",
                )))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._conn_ids += 1
        conn = _Connection(conn_id=self._conn_ids, reader=reader, writer=writer)
        self._connections[conn.conn_id] = conn
        self.connections_accepted += 1
        try:
            await self._serve_connection(conn)
        finally:
            await self._teardown(conn)

    async def _serve_connection(self, conn: _Connection) -> None:
        buffer = b""
        while not conn.closed:
            try:
                chunk = await conn.reader.read(MAX_LINE)
            except (ConnectionError, OSError):
                return
            if not chunk:
                return  # client closed its end
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                if line.strip():
                    self._on_line(conn, line)
            if len(buffer) > MAX_LINE:
                return  # the bound readline() enforced: drop the connection
            # One write and one drain per read batch: a client that
            # stops reading its replies stops being read.
            self._flush(conn)
            try:
                await conn.writer.drain()
            except (ConnectionError, OSError):
                conn.closed = True

    def _on_line(self, conn: _Connection, line: bytes) -> None:
        self.frames_received += 1
        try:
            frame = decode(line)
        except ProtocolError as exc:
            self.protocol_errors += 1
            self._send(conn, make_error(PUSH_ID, f"bad frame: {exc}"))
            return
        if frame.kind not in REQUEST_KINDS:
            self.protocol_errors += 1
            self._send(conn, make_error(
                frame.request_id,
                f"expected a request frame, got {frame.kind}",
            ))
            return
        self._dispatch(conn, frame)

    def _dispatch(self, conn: _Connection, frame: Frame) -> None:
        if frame.kind == "ACQUIRE":
            self._handle_acquire(conn, frame)
        elif frame.kind == "RELEASE":
            self._handle_release(conn, frame, end_tx=False)
        elif frame.kind == "END_TX":
            self._handle_release(conn, frame, end_tx=True)
        elif frame.kind == "PING":
            self._send(conn, make_pong(frame.request_id))
        elif frame.kind == "STATS":
            snapshot = self.service.snapshot()
            snapshot["wire"] = self.snapshot()
            self._send(conn, make_ok(frame.request_id, stats=snapshot))
        else:  # pragma: no cover - REQUEST_KINDS is closed
            self._send(conn, make_error(
                frame.request_id, f"unhandled request kind {frame.kind}"
            ))

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _handle_acquire(self, conn: _Connection, frame: Frame) -> None:
        if self._draining:
            self._send(conn, make_rejected(frame.request_id, "draining"))
            return
        fields: dict[str, Any] = {}
        for name, types, absent in _ACQUIRE_FIELDS:
            value = fields[name] = frame.get(name, absent)
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join(kind.__name__ for kind in types)
                self._send(conn, make_error(
                    frame.request_id, f"ACQUIRE {name} must be {expected}, got {value!r}"
                ))
                return
        timeout = fields.pop("timeout")
        try:
            ticket = self.service.submit(
                Request(**fields),
                timeout=None if timeout is None else float(timeout),
                on_done=partial(self._acquire_done, conn, frame.request_id),
            )
        except AllocationRejected as exc:
            self._send(conn, make_rejected(frame.request_id, str(exc)))
        except (ServiceClosed, ValueError) as exc:
            # ServiceFaulted subclasses ServiceClosed; both mean "this
            # server cannot grant anything anymore".
            self._send(conn, make_error(frame.request_id, str(exc)))
        else:
            conn.tickets.add(ticket)
            self._inflight += 1
            self._idle.clear()

    def _acquire_done(self, conn: _Connection, request_id: int, ticket: Ticket) -> None:
        """The ACQUIRE handler's continuation, run by the settling tick."""
        conn.tickets.discard(ticket)
        self._settled(1)
        lease = ticket.lease
        if lease is None:
            if isinstance(ticket.error, AllocationTimeout):
                self._send(conn, make_timeout(request_id, str(ticket.error)))
            else:
                self._send(conn, make_error(request_id, str(ticket.error)))
        elif conn.closed:
            # The client vanished while queued: the lease has no owner
            # and the transport no reader, so give it straight back and
            # owe no reply (test_grant_after_disconnect_is_auto_released).
            self._release_quietly(lease)
            self.leases_auto_released += 1
            return  # repro: noqa R008 -- connection closed: nobody left to reply to; the lease is auto-released instead
        else:
            conn.leases[lease.lease_id] = lease
            lease.on_revoke = partial(self._on_revoked, conn)
            self.leases_granted += 1
            self._send(conn, make_lease(
                request_id, lease.lease_id, lease.resource, lease.waited
            ))

    def _handle_release(
        self, conn: _Connection, frame: Frame, *, end_tx: bool
    ) -> None:
        lease_id = frame.get("lease_id")
        if isinstance(lease_id, bool) or not isinstance(lease_id, int):
            self._send(conn, make_error(
                frame.request_id, f"need an int lease_id, got {lease_id!r}"
            ))
            return
        if lease_id in conn.revoked_ids:
            conn.revoked_ids.discard(lease_id)
            self._send(conn, make_revoked(
                frame.request_id, lease_id, "lease was revoked by a fault"
            ))
            return
        lease = conn.leases.get(lease_id)
        if lease is None:
            self._send(conn, make_error(
                frame.request_id,
                f"unknown lease {lease_id} (not granted on this connection)",
            ))
            return
        try:
            if end_tx:
                self.service.end_transmission(lease)
            else:
                self.service.release(lease)
        except LeaseRevoked:
            conn.leases.pop(lease_id, None)
            self._send(conn, make_revoked(
                frame.request_id, lease_id, "lease was revoked by a fault"
            ))
        except (AllocationError, ServiceClosed) as exc:
            self._send(conn, make_error(frame.request_id, str(exc)))
        else:
            if not end_tx:
                conn.leases.pop(lease_id, None)
            self._send(conn, make_ok(frame.request_id, lease_id=lease_id))

    def _on_revoked(self, conn: _Connection, lease: Lease) -> None:
        """``lease.on_revoke``: push a REVOKED frame to the holder."""
        if conn.closed or lease.lease_id not in conn.leases:
            return
        del conn.leases[lease.lease_id]
        conn.revoked_ids.add(lease.lease_id)
        self.revocations_pushed += 1
        self._send(conn, make_revoked(
            PUSH_ID, lease.lease_id, "a fault severed this allocation"
        ))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _settled(self, count: int) -> None:
        """``count`` queued ACQUIREs were answered or cancelled."""
        self._inflight -= count
        if not self._inflight:
            self._idle.set()

    def _release_quietly(self, lease: Lease) -> None:
        """Release a lease nobody owns anymore; swallow dead-service errors."""
        try:
            if lease.active and not lease.revoked:
                self.service.release(lease)
        except (AllocationError, ServiceClosed):
            pass

    def _send(self, conn: _Connection, frame: Frame) -> None:
        """Queue one frame; everything queued in a loop turn is one write."""
        if conn.closed:
            return
        if not conn.out:
            asyncio.get_running_loop().call_soon(self._flush, conn)
        conn.out.append(encode(frame))

    def _flush(self, conn: _Connection) -> None:
        if conn.out and not conn.closed:
            conn.writer.write(b"".join(conn.out))
            conn.out.clear()

    async def _teardown(self, conn: _Connection) -> None:
        """Disconnect cleanup: cancel queued ACQUIREs, auto-release leases."""
        if conn.conn_id not in self._connections:
            return
        del self._connections[conn.conn_id]
        self._flush(conn)  # replies already owed still go out
        conn.closed = True
        for ticket in conn.tickets:
            ticket.cancel()
        self._settled(len(conn.tickets))
        conn.tickets.clear()
        for lease in conn.leases.values():
            self._release_quietly(lease)
            self.leases_auto_released += 1
        conn.leases.clear()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def snapshot(self) -> dict[str, Any]:
        """Wire-layer gauges and counters (JSON-safe)."""
        return {
            "open_connections": self.open_connections,
            "connections_accepted": self.connections_accepted,
            "connections_refused": self.connections_refused,
            "frames_received": self.frames_received,
            "protocol_errors": self.protocol_errors,
            "leases_granted": self.leases_granted,
            "leases_auto_released": self.leases_auto_released,
            "revocations_pushed": self.revocations_pushed,
            "draining": self._draining,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("draining" if self._draining else "open")
        return f"WireServer({state}, connections={self.open_connections})"
