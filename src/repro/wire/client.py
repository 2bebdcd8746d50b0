"""The TCP client: pipelined requests, timeouts, seeded reconnect backoff.

:class:`WireClient` speaks the :mod:`repro.wire.protocol` frames over
one connection.  Requests **pipeline**: any number of coroutines may
await :meth:`acquire`/:meth:`release`/... concurrently; a single
background reader task correlates replies to waiters by request id, so
one connection carries a whole load generator's traffic.

Failure surface:

- ``REJECTED`` / ``TIMEOUT`` / ``REVOKED`` / ``ERROR`` replies raise
  :class:`WireRejected` / :class:`WireTimeout` /
  :class:`WireLeaseRevoked` / :class:`WireRemoteError`;
- a reply not arriving within ``request_timeout`` raises
  :class:`WireTimeout`; if the server grants the lease *after* the
  client gave up, the reader answers the stale LEASE with an immediate
  RELEASE so the resource is not stranded until disconnect
  (``stale_replies`` counts every such late reply);
- a dropped connection fails every pending waiter with
  :class:`WireConnectionError` and marks held leases revoked locally
  (the server has already auto-released them).

:meth:`connect` retries with exponential backoff and **deterministic
jitter** (:mod:`repro.util.rng` discipline): the same seed reproduces
the same retry schedule.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.rng import make_rng
from repro.wire.protocol import (
    MAX_LINE,
    PUSH_ID,
    Frame,
    ProtocolError,
    decode,
    encode,
    make_acquire,
    make_end_tx,
    make_ping,
    make_release,
    make_stats,
)

__all__ = [
    "RemoteLease",
    "WireClient",
    "WireConnectionError",
    "WireError",
    "WireLeaseRevoked",
    "WireRejected",
    "WireRemoteError",
    "WireTimeout",
]

#: Seconds of the first reconnect backoff; each further attempt doubles
#: it, up to :data:`BACKOFF_MAX_S`.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


class WireError(Exception):
    """Base class for client-visible wire failures."""


class WireConnectionError(WireError):
    """The connection could not be established or was lost mid-request."""


class WireRejected(WireError):
    """The server rejected the ACQUIRE (queue full, or draining)."""


class WireTimeout(WireError):
    """The request deadline expired (server-side or awaiting the reply)."""


class WireLeaseRevoked(WireError):
    """The lease was revoked by a fault before/while it was touched."""


class WireRemoteError(WireError):
    """The server answered with an ERROR frame."""


@dataclass
class RemoteLease:
    """Client-side view of one granted lease.

    ``revoked`` turns true when the server pushes a REVOKED frame for
    this lease (or the connection is lost, which the server treats the
    same way: the lease is gone).
    """

    lease_id: int
    resource: int
    waited: float
    released: bool = False
    revoked: bool = False

    @property
    def active(self) -> bool:
        """Granted and neither released nor revoked."""
        return not self.released and not self.revoked


class WireClient:
    """One pipelined protocol connection to a :class:`WireServer`.

    Parameters
    ----------
    host, port:
        The server address.
    request_timeout:
        Seconds to await each reply (``None`` = wait forever).  For
        ACQUIRE this also rides the frame as the server-side deadline
        unless the call overrides it.
    reconnect_attempts:
        Extra :meth:`connect` attempts after the first failure.  Retry
        ``k`` (from 0) first waits
        ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2**k)`` scaled by a jitter
        factor in ``[0.5, 1.0)`` drawn from ``rng``.
    rng:
        Seed or generator for the jitter (deterministic retries).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        request_timeout: float | None = 30.0,
        reconnect_attempts: int = 0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        if reconnect_attempts < 0:
            raise ValueError(f"reconnect_attempts must be >= 0, got {reconnect_attempts}")
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.reconnect_attempts = reconnect_attempts
        self._rng = make_rng(rng)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task[None] | None = None
        self._pending: dict[int, asyncio.Future[Frame]] = {}
        #: Encoded frames queued this loop turn; they leave in one write.
        self._out: list[bytes] = []
        self._leases: dict[int, RemoteLease] = {}
        self._ids = itertools.count(1)
        self.protocol_errors = 0
        #: Replies that arrived after their waiter gave up (timed out).
        self.stale_replies = 0
        #: Request ids of auto-RELEASEs sent for stale LEASE grants;
        #: their OK replies are expected and not themselves stale.
        self._auto_release_ids: set[int] = set()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        """Whether a live connection is up."""
        return self._writer is not None

    async def connect(self) -> None:
        """Open the connection, retrying with seeded backoff."""
        if self.connected:
            return
        last_error: Exception | None = None
        for attempt in range(self.reconnect_attempts + 1):
            if attempt:
                delay = min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2.0 ** (attempt - 1))
                delay *= 0.5 + 0.5 * float(self._rng.random())
                await asyncio.sleep(delay)
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )
            return
        raise WireConnectionError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{self.reconnect_attempts + 1} attempt(s): {last_error}"
        ) from last_error

    async def close(self) -> None:
        """Drop the connection; pending requests fail as connection-lost."""
        reader_task = self._reader_task
        self._reader_task = None
        if reader_task is not None and not reader_task.done():
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass
        writer = self._writer
        self._writer = None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending("connection closed")

    async def __aenter__(self) -> "WireClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def acquire(
        self,
        processor: int,
        *,
        resource_type: str | int = "default",
        priority: int = 1,
        timeout: float | None = None,
    ) -> RemoteLease:
        """Request one resource; returns the granted :class:`RemoteLease`.

        ``timeout`` overrides the client's ``request_timeout`` for this
        call, both as the server-side deadline on the frame and as the
        local reply wait.
        """
        deadline = timeout if timeout is not None else self.request_timeout
        request_id = next(self._ids)
        reply = await self._request(
            make_acquire(
                request_id, processor,
                resource_type=resource_type, priority=priority, timeout=deadline,
            ),
            wait=deadline,
        )
        if reply.kind == "LEASE":
            lease = RemoteLease(
                lease_id=int(reply.get("lease_id", -1)),
                resource=int(reply.get("resource", -1)),
                waited=float(reply.get("waited", 0.0)),
            )
            self._leases[lease.lease_id] = lease
            return lease
        if reply.kind == "REJECTED":
            raise WireRejected(str(reply.get("reason", "rejected")))
        if reply.kind == "TIMEOUT":
            raise WireTimeout(str(reply.get("reason", "deadline expired")))
        raise self._unexpected(reply)

    async def release(self, lease: RemoteLease) -> None:
        """Free the lease's resource; raises on revoked/unknown leases."""
        await self._finish_lease(lease, end_tx=False)

    async def end_transmission(self, lease: RemoteLease) -> None:
        """Release only the circuit; the resource keeps serving."""
        await self._finish_lease(lease, end_tx=True)

    async def _finish_lease(self, lease: RemoteLease, *, end_tx: bool) -> None:
        if lease.revoked:
            raise WireLeaseRevoked(f"lease {lease.lease_id} was revoked")
        request_id = next(self._ids)
        frame = (
            make_end_tx(request_id, lease.lease_id)
            if end_tx
            else make_release(request_id, lease.lease_id)
        )
        reply = await self._request(frame, wait=self.request_timeout)
        if reply.kind == "OK":
            if not end_tx:
                lease.released = True
                self._leases.pop(lease.lease_id, None)
            return
        if reply.kind == "REVOKED":
            self._mark_revoked(lease.lease_id)
            raise WireLeaseRevoked(
                str(reply.get("reason", f"lease {lease.lease_id} was revoked"))
            )
        raise self._unexpected(reply)

    async def ping(self) -> None:
        """Round-trip a PING; raises if the server is unreachable."""
        reply = await self._request(
            make_ping(next(self._ids)), wait=self.request_timeout
        )
        if reply.kind != "PONG":
            raise self._unexpected(reply)

    async def stats(self) -> dict[str, Any]:
        """The server's metrics snapshot (service + wire layers)."""
        reply = await self._request(
            make_stats(next(self._ids)), wait=self.request_timeout
        )
        if reply.kind != "OK":
            raise self._unexpected(reply)
        stats = reply.get("stats")
        return dict(stats) if isinstance(stats, dict) else {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _request(self, frame: Frame, *, wait: float | None) -> Frame:
        writer = self._writer
        if writer is None:
            raise WireConnectionError("not connected; call connect() first")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Frame] = loop.create_future()
        self._pending[frame.request_id] = future
        timer = None if wait is None else loop.call_later(
            wait, self._expire, future, frame, wait
        )
        try:
            self._send(frame)
            # The write itself waits for the end of this loop turn, but
            # a transport already paused by earlier writes still blocks
            # this sender here.
            await writer.drain()
            return await future
        except (ConnectionError, OSError) as exc:
            raise WireConnectionError(f"connection lost while sending: {exc}") from exc
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(frame.request_id, None)

    @staticmethod
    def _expire(future: asyncio.Future[Frame], frame: Frame, wait: float) -> None:
        if not future.done():
            future.set_exception(WireTimeout(
                f"no reply to {frame.kind} #{frame.request_id} within {wait:g}s"
            ))

    def _send(self, frame: Frame) -> None:
        """Queue one frame; everything queued in a loop turn is one write."""
        if not self._out:
            asyncio.get_running_loop().call_soon(self._flush)
        self._out.append(encode(frame))

    def _flush(self) -> None:
        if self._out and self._writer is not None:
            self._writer.write(b"".join(self._out))
        self._out.clear()

    async def _read_loop(self) -> None:
        reader = self._reader
        if reader is None:  # pragma: no cover - connect() always sets it
            return
        buffer = b""
        while True:
            try:
                chunk = await reader.read(MAX_LINE)
            except (ConnectionError, OSError):
                break
            if not chunk:
                break
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                self._on_line(line)
            if len(buffer) > MAX_LINE:
                self.protocol_errors += 1
                break
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
        self._fail_pending("connection lost")

    def _on_line(self, line: bytes) -> None:
        try:
            frame = decode(line)
        except ProtocolError:
            self.protocol_errors += 1
            return
        if frame.request_id != PUSH_ID:
            waiter = self._pending.get(frame.request_id)
            if waiter is not None and not waiter.done():
                waiter.set_result(frame)
            elif frame.request_id in self._auto_release_ids:
                # The OK (or REVOKED) answering one of our own
                # auto-RELEASEs below; nobody is waiting for it.
                self._auto_release_ids.discard(frame.request_id)
            else:
                self._handle_stale(frame)
        elif frame.kind == "REVOKED":
            lease_id = frame.get("lease_id")
            if isinstance(lease_id, int) and not isinstance(lease_id, bool):
                self._mark_revoked(lease_id)
        # Unknown push frames are ignored (forward compatibility).

    def _handle_stale(self, frame: Frame) -> None:
        """A reply whose waiter already gave up (local timeout).

        Dropping it on the floor was the PR-7 bug: a LEASE granted just
        after the client's wait expired left the resource busy on the
        server with no one ever releasing it.  Answer the grant with an
        immediate RELEASE under a fresh request id (tracked so its OK
        is not counted stale in turn); every other late reply is only
        counted.  If the connection is already down, the server's
        disconnect auto-release covers the grant instead.
        """
        self.stale_replies += 1
        if frame.kind != "LEASE":
            return
        lease_id = frame.get("lease_id")
        if not isinstance(lease_id, int) or isinstance(lease_id, bool):
            return
        if self._writer is None:
            return
        release_id = next(self._ids)
        self._auto_release_ids.add(release_id)
        self._send(make_release(release_id, lease_id))

    def _mark_revoked(self, lease_id: int) -> None:
        lease = self._leases.pop(lease_id, None)
        if lease is not None and not lease.released:
            lease.revoked = True

    def _fail_pending(self, reason: str) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(WireConnectionError(reason))
        self._pending.clear()
        # Leases cannot outlive the connection: the server auto-released
        # them at disconnect, so reflect that locally.
        for lease_id in list(self._leases):
            self._mark_revoked(lease_id)

    def _unexpected(self, reply: Frame) -> WireError:
        if reply.kind == "ERROR":
            return WireRemoteError(str(reply.get("message", "remote error")))
        return WireRemoteError(f"unexpected {reply.kind} reply")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "disconnected"
        return f"WireClient({self.host}:{self.port}, {state}, pending={len(self._pending)})"
