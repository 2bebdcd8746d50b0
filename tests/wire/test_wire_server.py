"""Wire server/client lifecycle tests: lease custody across
disconnects, graceful drain, revocation push, connection guards, and
error replies — all over real localhost TCP."""

import asyncio
import contextlib

import pytest

from repro.core import MRSIN
from repro.networks import omega
from repro.service.clock import VirtualClock
from repro.service.server import AllocationService, ServiceConfig
from repro.wire import (
    RemoteLease,
    WireClient,
    WireConnectionError,
    WireLeaseRevoked,
    WireRejected,
    WireRemoteError,
    WireServer,
    WireTimeout,
)
from repro.wire import protocol
from tests.helpers import FRACTIONAL_ROW4, fractional_row4_instance


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def stack(ports=8, tick=0.005, max_connections=64, **config_kwargs):
    """A running service + wire server on an ephemeral port."""
    defaults = dict(tick_interval=tick, queue_limit=256, default_timeout=2.0)
    defaults.update(config_kwargs)
    service = AllocationService(MRSIN(omega(ports)), config=ServiceConfig(**defaults))
    async with service:
        async with WireServer(service, max_connections=max_connections) as server:
            yield service, server


async def poll_until(predicate, timeout=2.0, interval=0.005):
    """Await a condition the tick loop will eventually make true."""
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


async def raw_connect(server):
    host, port = server.address
    return await asyncio.open_connection(host, port)


async def raw_roundtrip(reader, writer, frame, timeout=2.0):
    writer.write(protocol.encode(frame))
    await writer.drain()
    return protocol.decode(await asyncio.wait_for(reader.readline(), timeout))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestFractionalMinCostBatch:
    def test_each_acquire_gets_a_lease_or_a_timeout(self):
        """Eight typed, prioritised ACQUIREs whose joint min-cost LP
        optimum is fractional (Table II row 4).  The cycles run by hand,
        so all eight share one batch: branch and bound grants the
        optimum, the rest time out, and the next client is served.  The
        cycle used to raise on that batch, faulting the service."""
        topology, seed, served, _ = FRACTIONAL_ROW4[1]
        mrsin = fractional_row4_instance(topology, seed)
        requests = list(mrsin.pending)
        mrsin.pending.clear()  # the service owns the queue
        clock = VirtualClock()
        service = AllocationService(
            mrsin, config=ServiceConfig(queue_limit=64), clock=clock
        )

        async def scenario():
            async with WireServer(service) as server:
                host, port = server.address
                async with WireClient(host, port, request_timeout=4.0) as client:
                    tasks = [
                        asyncio.ensure_future(client.acquire(
                            r.processor, resource_type=r.resource_type,
                            priority=r.priority,
                        ))
                        for r in requests
                    ]
                    await poll_until(lambda: service.queue_depth == len(requests))
                    assert len(service.run_one_cycle()) == served
                    clock.step(4.0)
                    service.run_one_cycle()  # the unserved ones expire
                    replies = await asyncio.gather(*tasks, return_exceptions=True)
                    leases = [r for r in replies if isinstance(r, RemoteLease)]
                    assert len(leases) == served
                    assert all(isinstance(r, (RemoteLease, WireTimeout)) for r in replies)
                    for lease in leases:
                        await client.release(lease)
                async with WireClient(host, port, request_timeout=2.0) as other:
                    first = requests[0]
                    task = asyncio.ensure_future(other.acquire(
                        first.processor, resource_type=first.resource_type,
                    ))
                    await poll_until(lambda: service.queue_depth == 1)
                    service.run_one_cycle()
                    await other.release(await task)
                assert service.fault is None and service.active_leases == 0

        run(scenario())


class TestRoundTrips:
    def test_acquire_release_over_tcp(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    lease = await client.acquire(3)
                    assert lease.active
                    assert service.active_leases == 1
                    await client.release(lease)
                    assert lease.released and not lease.active
                    assert service.active_leases == 0
                    assert server.leases_granted == 1
                    assert server.protocol_errors == 0

        run(scenario())

    def test_end_transmission_then_release(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    lease = await client.acquire(0)
                    await client.end_transmission(lease)
                    assert lease.active  # resource still held
                    assert service.active_leases == 1
                    await client.release(lease)
                    assert service.active_leases == 0

        run(scenario())

    def test_ping_and_stats(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    await client.ping()
                    lease = await client.acquire(1)
                    stats = await client.stats()
                    assert stats["active_leases"] == 1
                    assert stats["wire"]["leases_granted"] == 1
                    assert stats["wire"]["open_connections"] == 1
                    await client.release(lease)

        run(scenario())

    def test_pipelined_acquires_on_one_connection(self):
        async def scenario():
            async with stack(ports=8) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    leases = await asyncio.gather(
                        *(client.acquire(p) for p in range(8))
                    )
                    assert len({l.lease_id for l in leases}) == 8
                    assert service.active_leases == 8
                    for lease in leases:
                        await client.release(lease)
                    assert service.active_leases == 0

        run(scenario())


# ----------------------------------------------------------------------
# Satellite: disconnect auto-releases every connection-held lease
# ----------------------------------------------------------------------
class TestDisconnectCustody:
    def test_client_disconnect_auto_releases(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                client = WireClient(host, port, request_timeout=2.0)
                await client.connect()
                for p in range(4):
                    await client.acquire(p)
                assert service.active_leases == 4
                await client.close()  # no releases sent
                await poll_until(lambda: service.active_leases == 0)
                assert server.leases_auto_released == 4
                assert server.open_connections == 0

        run(scenario())

    def test_grant_after_disconnect_is_auto_released(self):
        """The no-reply path in ``_acquire_done`` (R008-suppressed):
        when the transport dies while an ACQUIRE is queued — a failed
        ``drain()`` flips ``conn.closed`` before teardown has cancelled
        the ticket — the grant has no owner and no destination, so the
        ticket's callback gives it straight back instead of stranding
        it, and no reply frame is owed."""

        async def scenario():
            async with stack(ports=4) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as holder:
                    held = [await holder.acquire(p) for p in range(4)]
                    reader, writer = await raw_connect(server)
                    writer.write(protocol.encode(protocol.make_acquire(99, 1)))
                    await writer.drain()
                    await poll_until(lambda: service.queue_depth == 1)
                    (conn,) = (
                        c for c in server._connections.values() if c.tickets
                    )
                    conn.closed = True  # transport died mid-queue
                    await holder.release(held[1])  # frees processor 1's link
                    await poll_until(lambda: server.leases_auto_released == 1)
                    assert server.leases_granted == 4
                    assert server.pending_acquires() == 0
                    assert service.active_leases == 3
                    writer.close()

        run(scenario())

    def test_lost_connection_marks_client_leases_revoked(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                client = WireClient(host, port, request_timeout=2.0)
                await client.connect()
                lease = await client.acquire(0)
                # Server vanishes out from under the client.
                await server.close()
                await poll_until(lambda: lease.revoked)
                with pytest.raises(WireLeaseRevoked):
                    await client.release(lease)
                await client.close()

        run(scenario())


# ----------------------------------------------------------------------
# Satellite: graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_rejects_new_and_completes_in_flight(self):
        async def scenario():
            # omega(4): 4 resources.  Saturate them, queue one more.
            async with stack(ports=4) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=5.0) as client:
                    held = [await client.acquire(p) for p in range(4)]
                    queued = asyncio.ensure_future(client.acquire(0, timeout=5.0))
                    await poll_until(lambda: service.queue_depth == 1)
                    drain_task = asyncio.ensure_future(server.drain())
                    await poll_until(lambda: server.draining)
                    assert server.pending_acquires() == 1
                    # New ACQUIREs bounce immediately...
                    with pytest.raises(WireRejected, match="draining"):
                        await client.acquire(1)
                    # ...while the in-flight one is still pending.
                    assert not queued.done()
                    assert not drain_task.done()
                    # Freeing a resource lets the in-flight acquire finish,
                    # which is what drain() was waiting for.
                    await client.release(held[0])
                    lease = await asyncio.wait_for(queued, 2.0)
                    await asyncio.wait_for(drain_task, 2.0)
                    # drain() slept across the grant: it must not put back
                    # the in-flight count it saw before sleeping.
                    assert server.pending_acquires() == 0
                    assert lease.active
                    # Cleanup still works on a draining server.
                    await client.release(lease)
                    for l in held[1:]:
                        await client.release(l)
                    assert service.active_leases == 0

        run(scenario())


# ----------------------------------------------------------------------
# Satellite: revocation reaches the holder as a pushed REVOKED frame
# ----------------------------------------------------------------------
class TestRevocationPush:
    def test_fault_revocation_pushed_to_client(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    lease = await client.acquire(2)
                    service.mrsin.set_failed("resource", lease.resource)
                    service.reconcile_faults()
                    await asyncio.wait_for(lease.revocation.wait(), 2.0)
                    assert lease.revoked and not lease.active
                    assert server.revocations_pushed == 1
                    with pytest.raises(WireLeaseRevoked):
                        await client.release(lease)

        run(scenario())

    def test_release_racing_revocation_gets_revoked_reply(self):
        """A RELEASE crossing the REVOKED push on the wire is answered
        with REVOKED, not ERROR — the client learns the true outcome."""

        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                reply = await raw_roundtrip(
                    reader, writer, protocol.make_acquire(1, 0)
                )
                assert reply.kind == "LEASE"
                lease_id = reply.get("lease_id")
                service.mrsin.set_failed("resource", reply.get("resource"))
                service.reconcile_faults()
                push = protocol.decode(
                    await asyncio.wait_for(reader.readline(), 2.0)
                )
                assert push.kind == "REVOKED"
                assert push.request_id == protocol.PUSH_ID
                assert push.get("lease_id") == lease_id
                # Release the revoked lease anyway: REVOKED reply.
                reply = await raw_roundtrip(
                    reader, writer, protocol.make_release(2, lease_id)
                )
                assert reply.kind == "REVOKED"
                writer.close()
                await writer.wait_closed()

        run(scenario())


# ----------------------------------------------------------------------
# Satellite: late replies after a local timeout are not dropped
# ----------------------------------------------------------------------
class TestStaleReplies:
    def test_late_lease_grant_is_auto_released(self):
        """A LEASE arriving after the client's wait expired must be
        answered with a RELEASE — before this fix the grant was dropped
        and the resource stayed busy until disconnect."""

        async def scenario():
            released: asyncio.Future = asyncio.get_running_loop().create_future()

            async def handler(reader, writer):
                # Grant the ACQUIRE only after the client gave up.
                frame = protocol.decode(await reader.readline())
                assert frame.kind == "ACQUIRE"
                await asyncio.sleep(0.2)
                writer.write(
                    protocol.encode(
                        protocol.make_lease(frame.request_id, 77, 3, 0.2)
                    )
                )
                await writer.drain()
                follow_up = protocol.decode(await reader.readline())
                if not released.done():
                    released.set_result(follow_up)
                # Answer the RELEASE so the id-tracking path runs too.
                writer.write(
                    protocol.encode(
                        protocol.Frame("OK", follow_up.request_id, {})
                    )
                )
                await writer.drain()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                client = WireClient(host, port, request_timeout=0.05)
                await client.connect()
                with pytest.raises(WireTimeout):
                    await client.acquire(0)
                follow_up = await asyncio.wait_for(released, 2.0)
                assert follow_up.kind == "RELEASE"
                assert follow_up.get("lease_id") == 77
                assert client.stale_replies == 1
                # The stale grant never became a client-side lease.
                assert client._leases == {}
                # The OK answering our auto-RELEASE is not stale.
                await asyncio.sleep(0.05)
                assert client.stale_replies == 1
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_late_non_lease_reply_only_counted(self):
        """Over the real stack: a server-side TIMEOUT reply landing
        after the local wait expired bumps the counter and nothing
        else — no RELEASE is owed for a reply that grants nothing."""

        async def scenario():
            async with stack(ports=4, tick=0.02) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    held = [await client.acquire(p) for p in range(4)]
                    # Saturated: the server queues this ACQUIRE and
                    # answers TIMEOUT at ~0.1s, after the 0.05s local
                    # wait has already raised.
                    with pytest.raises(WireTimeout):
                        await client._request(
                            protocol.make_acquire(
                                next(client._ids), 0, timeout=0.1
                            ),
                            wait=0.05,
                        )
                    await poll_until(lambda: client.stale_replies == 1)
                    for lease in held:
                        await client.release(lease)
                    assert service.active_leases == 0

        run(scenario())


# ----------------------------------------------------------------------
# Batch-per-read framing: what one read() carries is not the protocol
# ----------------------------------------------------------------------
async def read_frames(reader, count, timeout=2.0):
    return [
        protocol.decode(await asyncio.wait_for(reader.readline(), timeout))
        for _ in range(count)
    ]


class TestBatching:
    def test_pipelined_frames_in_one_segment_answered_in_order(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                burst = [protocol.make_ping(i) for i in range(1, 9)]
                burst.insert(4, protocol.make_release(100, 12345))  # unknown lease
                writer.write(b"".join(protocol.encode(f) for f in burst))
                await writer.drain()
                replies = await read_frames(reader, len(burst))
                assert [r.request_id for r in replies] == [f.request_id for f in burst]
                assert [r.kind for r in replies] == ["PONG"] * 4 + ["ERROR"] + ["PONG"] * 4
                assert server.frames_received == len(burst)
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_frame_split_across_segments(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                line = protocol.encode(protocol.make_ping(7))
                tail = protocol.encode(protocol.make_ping(8))
                writer.write(line[:9])
                await writer.drain()
                await asyncio.sleep(0.02)
                assert server.frames_received == 0  # half a frame is no frame
                writer.write(line[9:] + tail[:5])
                await writer.drain()
                (first,) = await read_frames(reader, 1)
                writer.write(tail[5:])
                await writer.drain()
                (second,) = await read_frames(reader, 1)
                assert (first.kind, first.request_id) == ("PONG", 7)
                assert (second.kind, second.request_id) == ("PONG", 8)
                assert server.protocol_errors == 0
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_overlong_line_drops_the_connection(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                assert (await raw_roundtrip(reader, writer, protocol.make_ping(1))).kind == "PONG"
                writer.write(b"x" * (protocol.MAX_LINE + 4096))  # no newline, ever
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 2.0) == b""  # EOF
                await poll_until(lambda: server.open_connections == 0)
                writer.close()

        run(scenario())

    def test_reply_owed_at_close_is_written_before_the_transport_closes(self):
        """close() drains, and the TIMEOUT that ends the drain is still
        in the connection's unsent batch when teardown starts."""

        async def scenario():
            async with stack(ports=4) as (service, server):
                host, port = server.address
                # First to connect is first torn down: nothing else
                # yields to the loop between the drain and its teardown.
                reader, writer = await raw_connect(server)
                assert (await raw_roundtrip(reader, writer, protocol.make_ping(1))).kind == "PONG"
                async with WireClient(host, port, request_timeout=2.0) as holder:
                    for p in range(4):
                        await holder.acquire(p)
                    writer.write(protocol.encode(protocol.make_acquire(5, 0, timeout=0.05)))
                    await writer.drain()
                    await poll_until(lambda: server.pending_acquires() == 1)
                    await asyncio.wait_for(server.close(), 2.0)
                    (reply,) = await read_frames(reader, 1)
                    assert (reply.kind, reply.request_id) == ("TIMEOUT", 5)
                    assert await asyncio.wait_for(reader.read(), 2.0) == b""
                    writer.close()

        run(scenario())

    def test_pipelined_burst_creates_no_task_per_request(self):
        async def scenario():
            async with stack(ports=4) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as holder:
                    held = [await holder.acquire(p) for p in range(4)]
                    reader, writer = await raw_connect(server)
                    assert (await raw_roundtrip(reader, writer, protocol.make_ping(1))).kind == "PONG"
                    before = len(asyncio.all_tasks())
                    writer.write(b"".join(
                        protocol.encode(protocol.make_acquire(10 + i, i % 4))
                        for i in range(64)
                    ))
                    await writer.drain()
                    await poll_until(lambda: service.queue_depth == 64)
                    assert server.pending_acquires() == 64
                    assert len(asyncio.all_tasks()) == before
                    # Disconnect: the queued tickets are cancelled, not leaked.
                    writer.close()
                    await poll_until(lambda: service.queue_depth == 0)
                    assert server.pending_acquires() == 0
                    for lease in held:
                        await holder.release(lease)
                    assert service.active_leases == 0

        run(scenario())

    def test_replies_follow_service_completion_order(self):
        """Two queued ACQUIREs complete in the order the service settles
        them (deadline first, grant later), not the order they arrived."""

        async def scenario():
            async with stack(ports=4) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as holder:
                    held = [await holder.acquire(p) for p in range(4)]
                    reader, writer = await raw_connect(server)
                    writer.write(
                        protocol.encode(protocol.make_acquire(1, 0, timeout=5.0))
                        + protocol.encode(protocol.make_acquire(2, 1, timeout=0.03))
                    )
                    await writer.drain()
                    (first,) = await read_frames(reader, 1)
                    await holder.release(held[0])
                    (second,) = await read_frames(reader, 1)
                    assert (first.kind, first.request_id) == ("TIMEOUT", 2)
                    assert (second.kind, second.request_id) == ("LEASE", 1)
                    writer.close()

        run(scenario())


# ----------------------------------------------------------------------
# One request, exactly one reply (lint rule R008's contract, at run time)
# ----------------------------------------------------------------------
async def replies_to(reader, writer, request_id, line):
    """Every frame carrying ``request_id`` that arrives before the PONG
    of a PING sent right behind ``line``: a doubled reply is counted,
    and a dropped one is an empty list instead of a hung read."""
    fence = request_id + 1000
    writer.write(line + protocol.encode(protocol.make_ping(fence)))
    await writer.drain()
    answers = []
    while True:
        frame = protocol.decode(await asyncio.wait_for(reader.readline(), 2.0))
        if (frame.kind, frame.request_id) == ("PONG", fence):
            return answers
        if frame.request_id == request_id:
            answers.append(frame)


async def raw_lease(reader, writer, request_id=1, processor=0):
    reply = await raw_roundtrip(
        reader, writer, protocol.make_acquire(request_id, processor)
    )
    assert reply.kind == "LEASE"
    return reply.get("lease_id")


class TestExactlyOneReply:
    """Each case fails under one single-edit mutant of ``wire/server.py``
    (reply dropped or doubled) that the rest of the suite let through."""

    def test_release_success_is_answered_once(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                lease_id = await raw_lease(reader, writer)
                answers = await replies_to(
                    reader, writer, 7, protocol.encode(protocol.make_release(7, lease_id))
                )
                assert [a.kind for a in answers] == ["OK"]
                assert service.active_leases == 0
                writer.close()

        run(scenario())

    @pytest.mark.parametrize("make", [protocol.make_release, protocol.make_end_tx])
    def test_lease_revoked_under_the_request_is_answered_revoked(self, make):
        """The service raises ``LeaseRevoked`` for a lease the connection
        still lists (no push reached it): the reply is REVOKED, once."""

        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                lease_id = await raw_lease(reader, writer)
                (conn,) = server._connections.values()
                lease = conn.leases[lease_id]
                lease.on_revoke = None  # the push never happens
                service.mrsin.set_failed("resource", lease.resource)
                service.reconcile_faults()
                assert lease.revoked and lease_id in conn.leases
                answers = await replies_to(
                    reader, writer, 7, protocol.encode(make(7, lease_id))
                )
                assert [a.kind for a in answers] == ["REVOKED"]
                assert answers[0].get("lease_id") == lease_id
                assert lease_id not in conn.leases
                writer.close()

        run(scenario())

    def test_bad_acquire_field_is_answered_once_and_not_submitted(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                bad = protocol.Frame("ACQUIRE", 3, {"processor": 0, "timeout": "soon"})
                answers = await replies_to(reader, writer, 3, protocol.encode(bad))
                assert [a.kind for a in answers] == ["ERROR"]
                assert "timeout" in answers[0].get("message")
                assert service.metrics.submitted == 0
                assert server.pending_acquires() == 0
                writer.close()

        run(scenario())

    def test_full_queue_is_answered_rejected(self):
        async def scenario():
            # A 1 s tick: the first ACQUIRE stays queued for the whole test.
            async with stack(tick=1.0, queue_limit=1) as (service, server):
                reader, writer = await raw_connect(server)
                writer.write(protocol.encode(protocol.make_acquire(1, 0)))
                answers = await replies_to(
                    reader, writer, 2, protocol.encode(protocol.make_acquire(2, 1))
                )
                assert [a.kind for a in answers] == ["REJECTED"]
                assert "queue full" in answers[0].get("reason")
                assert server.pending_acquires() == 1
                writer.close()

        run(scenario())

    @pytest.mark.parametrize("how", ["service_closed", "released_behind_the_wire"])
    def test_release_the_service_refuses_is_answered_error(self, how):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                lease_id = await raw_lease(reader, writer)
                (conn,) = server._connections.values()
                if how == "service_closed":
                    await service.close()
                else:
                    service.release(conn.leases[lease_id])
                answers = await replies_to(
                    reader, writer, 7, protocol.encode(protocol.make_release(7, lease_id))
                )
                assert [a.kind for a in answers] == ["ERROR"]
                writer.close()

        run(scenario())

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999", "0", "-1.5"])
    def test_acquire_timeout_must_be_finite_and_positive(self, literal):
        """``json.loads`` turns NaN / Infinity / 1e999 into floats whose
        deadline never expires: such an ACQUIRE used to sit in the
        admission queue past ``default_timeout`` until disconnect."""

        async def scenario():
            async with stack(ports=4, default_timeout=0.05) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as holder:
                    for p in range(4):  # saturated: an admitted ACQUIRE would queue
                        await holder.acquire(p)
                    reader, writer = await raw_connect(server)
                    line = (
                        '{"v":1,"kind":"ACQUIRE","id":5,"processor":0,"timeout":%s}\n'
                        % literal
                    ).encode()
                    answers = await replies_to(reader, writer, 5, line)
                    assert [a.kind for a in answers] == ["ERROR"]
                    assert "timeout" in answers[0].get("message")
                    assert service.queue_depth == 0
                    assert server.pending_acquires() == 0
                    assert server.protocol_errors == 0
                    writer.close()

        run(scenario())


# ----------------------------------------------------------------------
# Guards and error replies
# ----------------------------------------------------------------------
class TestGuards:
    def test_concurrent_connections_are_each_counted_once(self):
        """Every handler coroutine is parked in its read loop at the same
        time; a count read before that await and written back after it
        would lose all but one of them."""

        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                clients = [WireClient(host, port, request_timeout=2.0) for _ in range(6)]
                await asyncio.gather(*(client.connect() for client in clients))
                await asyncio.gather(*(client.ping() for client in clients))
                assert server.open_connections == server.connections_accepted == 6
                await asyncio.gather(*(client.close() for client in clients))
                await poll_until(lambda: server.open_connections == 0)
                assert server.connections_accepted == 6

        run(scenario())

    def test_max_connections_refused_with_error_frame(self):
        async def scenario():
            async with stack(max_connections=1) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    await client.ping()
                    reader, writer = await raw_connect(server)
                    frame = protocol.decode(
                        await asyncio.wait_for(reader.readline(), 2.0)
                    )
                    assert frame.kind == "ERROR"
                    assert "max_connections" in frame.get("message")
                    assert server.connections_refused == 1
                    writer.close()

        run(scenario())

    def test_malformed_frame_answered_not_fatal(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = protocol.decode(
                    await asyncio.wait_for(reader.readline(), 2.0)
                )
                assert reply.kind == "ERROR"
                assert reply.request_id == protocol.PUSH_ID
                assert server.protocol_errors == 1
                # The connection survives and still serves requests.
                reply = await raw_roundtrip(reader, writer, protocol.make_ping(9))
                assert reply.kind == "PONG"
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_reply_kind_as_request_is_rejected(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                reply = await raw_roundtrip(
                    reader, writer, protocol.make_pong(5)
                )
                assert reply.kind == "ERROR"
                assert "request frame" in reply.get("message")
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_over_range_priority_gets_error_and_the_connection_serves_on(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                bad = protocol.make_acquire(3, 0, priority=service.mrsin.max_priority + 1)
                reply = await raw_roundtrip(reader, writer, bad)
                assert reply.kind == "ERROR"
                assert "exceeds ymax" in reply.get("message")
                await raw_lease(reader, writer, request_id=4, processor=1)
                assert service.fault is None
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_bad_acquire_payload_gets_error(self):
        async def scenario():
            async with stack() as (service, server):
                reader, writer = await raw_connect(server)
                bad = protocol.Frame("ACQUIRE", 3, {"processor": "zero"})
                reply = await raw_roundtrip(reader, writer, bad)
                assert reply.kind == "ERROR"
                assert "processor" in reply.get("message")
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_unknown_lease_release_is_error(self):
        async def scenario():
            async with stack() as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=2.0) as client:
                    from repro.wire.client import RemoteLease

                    ghost = RemoteLease(lease_id=10**6, resource=0, waited=0.0)
                    with pytest.raises(WireRemoteError, match="unknown lease"):
                        await client.release(ghost)

        run(scenario())

    def test_acquire_timeout_when_saturated(self):
        async def scenario():
            async with stack(ports=4) as (service, server):
                host, port = server.address
                async with WireClient(host, port, request_timeout=5.0) as client:
                    held = [await client.acquire(p) for p in range(4)]
                    with pytest.raises(WireTimeout):
                        await client.acquire(0, timeout=0.05)
                    for lease in held:
                        await client.release(lease)

        run(scenario())

    def test_connect_failure_raises_after_retries(self):
        async def scenario():
            client = WireClient(
                "127.0.0.1", 1,  # reserved port: nothing listens there
                reconnect_attempts=2,
                backoff_base=0.001,
                backoff_max=0.002,
                rng=7,
            )
            with pytest.raises(WireConnectionError, match="3 attempt"):
                await client.connect()

        run(scenario())


# ----------------------------------------------------------------------
# Nothing blocks the loop (R005's runtime half; ISSUE 24 audit)
# ----------------------------------------------------------------------
def test_no_blocking_primitive_runs_on_the_event_loop(monkeypatch):
    """A ``time.sleep`` per read, a blocking DNS lookup per flush or a
    sleeping reconnect backoff changes no reply and no count, so no
    other test sees it; here the primitives themselves refuse to run
    on a thread that has a running loop."""
    import socket
    import time

    def refuse_on_the_loop(module, name):
        real = getattr(module, name)

        def guarded(*args, **kwargs):
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                return real(*args, **kwargs)  # an executor thread: fine
            raise AssertionError(f"{module.__name__}.{name} called on the event loop")

        monkeypatch.setattr(module, name, guarded)

    refuse_on_the_loop(time, "sleep")
    refuse_on_the_loop(socket, "gethostbyname")

    async def scenario():
        unreachable = WireClient(
            "127.0.0.1", 1, reconnect_attempts=1,
            backoff_base=0.001, backoff_max=0.002, rng=7,
        )
        with pytest.raises(WireConnectionError, match="2 attempt"):
            await unreachable.connect()  # one backoff wait taken
        async with stack() as (service, server):
            host, port = server.address
            async with WireClient(host, port, request_timeout=2.0) as client:
                lease = await client.acquire(3)
                await client.end_transmission(lease)
                await client.release(lease)
                await client.ping()
            assert server.protocol_errors == 0 and service.active_leases == 0

    run(scenario())
