"""Wire client and server failure paths: bad settings, lifecycle misuse,
and replies a correct server never sends (from a scripted one)."""

import asyncio
import contextlib

import pytest

from repro.core import MRSIN
from repro.networks import omega
from repro.service.server import AllocationService
from repro.wire import WireClient, WireConnectionError, WireLeaseRevoked, WireRemoteError, WireServer
from repro.wire import protocol
from repro.wire.protocol import Frame


@contextlib.asynccontextmanager
async def scripted(reply_to):
    """A client connected to a server that answers each request kind
    ``K`` with ``reply_to[K]``, a ``(kind, payload)`` pair."""

    async def serve(reader, writer):
        while line := await reader.readline():
            request = protocol.decode(line)
            kind, payload = reply_to[request.kind]
            writer.write(protocol.encode(Frame(kind, request.request_id, payload)))
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    async with server:
        host, port = server.sockets[0].getsockname()[:2]
        async with WireClient(host, port, request_timeout=2.0) as client:
            yield client


class TestClientAgainstAScriptedServer:
    def test_replies_of_the_wrong_kind_raise_remote_errors(self):
        async def scenario():
            reply_to = {"ACQUIRE": ("OK", {}), "PING": ("OK", {}), "STATS": ("ERROR", {"message": "boom"})}
            async with scripted(reply_to) as client:
                with pytest.raises(WireRemoteError, match="unexpected OK reply"):
                    await client.acquire(0)
                with pytest.raises(WireRemoteError, match="unexpected OK reply"):
                    await client.ping()
                with pytest.raises(WireRemoteError, match="boom"):
                    await client.stats()

        asyncio.run(scenario())

    def test_a_revoked_reply_to_release_marks_the_lease_revoked(self):
        async def scenario():
            reply_to = {
                "ACQUIRE": ("LEASE", {"lease_id": 5, "resource": 0, "waited": 0.0}),
                "RELEASE": ("REVOKED", {"lease_id": 5, "reason": "link failed"}),
            }
            async with scripted(reply_to) as client:
                lease = await client.acquire(0)
                with pytest.raises(WireLeaseRevoked, match="link failed"):
                    await client.release(lease)
            assert lease.revoked and not lease.released

        asyncio.run(scenario())

    def test_a_failed_send_is_a_connection_error(self):
        async def scenario():
            async with scripted({"PING": ("PONG", {})}) as client:

                async def reset():
                    raise ConnectionResetError("reset by peer")

                client._writer.drain = reset
                with pytest.raises(WireConnectionError, match="lost while sending: reset by peer"):
                    await client.ping()

        asyncio.run(scenario())

    def test_a_request_before_connect_is_a_connection_error(self):
        with pytest.raises(WireConnectionError, match="not connected"):
            asyncio.run(WireClient("127.0.0.1", 1).ping())


@pytest.mark.parametrize(
    "setting, complaint",
    [
        ({"request_timeout": 0}, "request_timeout must be positive"),
        ({"reconnect_attempts": -1}, "reconnect_attempts must be >= 0"),
    ],
)
def test_client_settings(setting, complaint):
    with pytest.raises(ValueError, match=complaint):
        WireClient("127.0.0.1", 1, **setting)


def test_server_settings():
    with pytest.raises(ValueError, match="max_connections must be >= 1"):
        WireServer(AllocationService(MRSIN(omega(8))), max_connections=0)


def test_server_lifecycle_misuse():
    async def scenario():
        server = WireServer(AllocationService(MRSIN(omega(8))))
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        async with server:
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
        with pytest.raises(RuntimeError, match="no listening socket"):
            server.address
        with pytest.raises(RuntimeError, match="WireServer is closed"):
            await server.start()

    asyncio.run(scenario())
