"""Fixture suite for the flow-sensitive rules R006-R008.

Each rule gets known-bad snippets (including the three historical
bugs that motivated the analyzer: the PR-2 cancelled-acquire leak,
the PR-6 late-LEASE leak, and an unhandled-request-type server
variant) and known-good snippets proving the guards the codebase
actually uses — re-read after await, lock regions, try/finally
release, acquire-side timeouts — do not trip the rules.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import (
    AwaitInterleavingRaces,
    LintEngine,
    ResourceEscape,
    WireConformance,
)

from tests.analysis.helpers import lint_snippet, rule_ids


def snippet(source: str) -> str:
    return textwrap.dedent(source).lstrip("\n")


# ----------------------------------------------------------------------
# R006: await-interleaving races
# ----------------------------------------------------------------------

R006_BAD_STALE = snippet(
    """
    class Pool:
        async def bump(self):
            depth = self.depth
            await self.flush()
            self.depth = depth + 1
    """
)

R006_BAD_SINGLE_STATEMENT = snippet(
    """
    class Pool:
        async def bump(self):
            self.count += await self.poll()
    """
)

R006_BAD_GLOBAL = snippet(
    """
    COUNTER = 0


    class Pool:
        async def bump(self):
            global COUNTER
            COUNTER += await self.poll()
    """
)

R006_BAD_INTERPROCEDURAL = snippet(
    """
    class Pool:
        async def bump(self):
            depth = self.depth
            self._drain()
            self.depth = depth + 1

        async def _drain(self):
            await self.flush()
    """
)

R006_GOOD_REREAD = snippet(
    """
    class Pool:
        async def bump(self):
            await self.flush()
            depth = self.depth
            self.depth = depth + 1
    """
)

R006_GOOD_LOCKED = snippet(
    """
    class Pool:
        async def bump(self):
            async with self._lock:
                depth = self.depth
                await self.flush()
                self.depth = depth + 1
    """
)


class TestAwaitInterleavingRaces:
    RULES = [AwaitInterleavingRaces()]

    def test_stale_read_across_await(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_BAD_STALE, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R006"]
        assert "read before an await" in report.findings[0].message

    def test_rmw_spanning_await_in_one_statement(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_BAD_SINGLE_STATEMENT, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R006"]
        assert "read-modify-write" in report.findings[0].message

    def test_module_global_rmw(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_BAD_GLOBAL, "faults/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R006"]
        assert "global COUNTER" in report.findings[0].message

    def test_same_module_coroutine_call_is_a_suspension(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_BAD_INTERPROCEDURAL, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R006"]

    def test_reread_after_await_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_GOOD_REREAD, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == []

    def test_lock_guarded_region_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_GOOD_LOCKED, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == []

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path, R006_BAD_STALE, "core/sample.py", self.RULES
        )
        assert rule_ids(report) == []


# ----------------------------------------------------------------------
# R007: lease/resource escape analysis
# ----------------------------------------------------------------------

R007_BAD_CANCELLED_ACQUIRE = snippet(
    """
    class Handler:
        async def handle(self, conn, frame):
            lease = await self.service.acquire(frame.payload)
            await self._send(conn, make_lease(frame.request_id, lease.lease_id))
            self.leases[lease.lease_id] = lease
    """
)

R007_BAD_LATE_LEASE = snippet(
    """
    class Handler:
        async def grab(self, request):
            return await asyncio.wait_for(self.pool.acquire(request), 0.1)
    """
)

R007_BAD_LEAK_ON_EXIT = snippet(
    """
    class Handler:
        async def grab(self, request):
            lease = await self.pool.acquire(request)
            return None
    """
)

R007_BAD_CANCEL_BETWEEN = snippet(
    """
    class Handler:
        async def hold(self, request):
            lease = await self.pool.acquire(request)
            await asyncio.sleep(0.1)
            self.pool.release(lease)
    """
)

R007_GOOD_FINALLY = snippet(
    """
    class Handler:
        async def handle(self, request):
            lease = await self.pool.acquire(request)
            try:
                await self.work(lease.lease_id)
            finally:
                self.pool.release(lease)
    """
)

R007_GOOD_ACQUIRE_TIMEOUT = snippet(
    """
    class Handler:
        async def grab(self, request):
            lease = await self.pool.acquire(request, timeout=0.1)
            self.leases[request] = lease
    """
)


class TestResourceEscape:
    RULES = [ResourceEscape()]

    def test_pr2_cancelled_acquire_leak_shape(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_BAD_CANCELLED_ACQUIRE, "wire/handlers.py", self.RULES
        )
        assert rule_ids(report) == ["R007"]
        assert "PR-2" in report.findings[0].message

    def test_pr6_late_lease_wait_for(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_BAD_LATE_LEASE, "wire/handlers.py", self.RULES
        )
        assert rule_ids(report) == ["R007"]
        assert "late-LEASE" in report.findings[0].message

    def test_leak_on_normal_exit(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_BAD_LEAK_ON_EXIT, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R007"]
        assert "still holds its resource" in report.findings[0].message

    def test_cancellation_between_acquire_and_release(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_BAD_CANCEL_BETWEEN, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == ["R007"]
        assert "cancellation or exception" in report.findings[0].message

    def test_try_finally_release_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_GOOD_FINALLY, "service/sample.py", self.RULES
        )
        assert rule_ids(report) == []

    def test_acquire_side_timeout_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_GOOD_ACQUIRE_TIMEOUT, "wire/handlers.py", self.RULES
        )
        assert rule_ids(report) == []

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path, R007_BAD_CANCEL_BETWEEN, "core/sample.py", self.RULES
        )
        assert rule_ids(report) == []


# ----------------------------------------------------------------------
# R008: wire-protocol conformance
# ----------------------------------------------------------------------

FIXTURE_PROTOCOL = snippet(
    """
    PUSH_ID = 0
    REQUEST_KINDS = ("ACQUIRE", "PING")
    REPLY_KINDS = ("LEASE", "ERROR", "PONG")
    REPLY_SCHEMA = {
        "ACQUIRE": ("LEASE", "ERROR"),
        "PING": ("PONG",),
    }
    PUSH_KINDS = ("ERROR",)


    def make_lease(request_id, lease_id):
        return Frame("LEASE", request_id, {"lease": lease_id})


    def make_error(request_id, detail):
        return Frame("ERROR", request_id, {"detail": detail})


    def make_pong(request_id):
        return Frame("PONG", request_id, {})
    """
)

GOOD_SERVER = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._handle_acquire(conn, frame)
            elif frame.kind == "PING":
                await self._send(conn, make_pong(frame.request_id))
            else:
                await self._send(conn, make_error(frame.request_id, "unknown"))

        async def _handle_acquire(self, conn, frame):
            try:
                lease = await self.service.acquire(frame.payload)
            except RuntimeError as exc:
                await self._send(conn, make_error(frame.request_id, str(exc)))
                return
            await self._send(conn, make_lease(frame.request_id, lease.lease_id))
    """
)

BAD_MISSING_PING = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._handle_acquire(conn, frame)
            else:
                await self._send(conn, make_error(frame.request_id, "unknown"))

        async def _handle_acquire(self, conn, frame):
            await self._send(conn, make_lease(frame.request_id, 1))
    """
)

BAD_ZERO_REPLY = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._handle_acquire(conn, frame)
            elif frame.kind == "PING":
                await self._send(conn, make_pong(frame.request_id))

        async def _handle_acquire(self, conn, frame):
            lease = await self.service.acquire(frame.payload)
            if conn.closed:
                return
            await self._send(conn, make_lease(frame.request_id, lease.lease_id))
    """
)

BAD_DOUBLE_REPLY = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._handle_acquire(conn, frame)
            elif frame.kind == "PING":
                await self._send(conn, make_pong(frame.request_id))

        async def _handle_acquire(self, conn, frame):
            await self._send(conn, make_lease(frame.request_id, 1))
            await self._send(conn, make_lease(frame.request_id, 2))
    """
)

BAD_WRONG_INLINE_REPLY = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._send(conn, make_lease(frame.request_id, 1))
            elif frame.kind == "PING":
                await self._send(conn, make_lease(frame.request_id, 2))
    """
)

BAD_DEAD_BRANCH = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._send(conn, make_lease(frame.request_id, 1))
            elif frame.kind == "PING":
                self.pings = self.pings + 1
    """
)

BAD_PUSH_KIND = snippet(
    """
    class Server:
        async def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                await self._send(conn, make_lease(frame.request_id, 1))
            elif frame.kind == "PING":
                await self._send(conn, make_pong(frame.request_id))

        async def _notify(self, conn):
            await self._send(conn, make_lease(PUSH_ID, 9))
    """
)


_DEFERRED_DISPATCH = """
    class Server:
        def _dispatch(self, conn, frame):
            if frame.kind == "ACQUIRE":
                self._handle_acquire(conn, frame)
            elif frame.kind == "PING":
                self._send(conn, make_pong(frame.request_id))
"""

# The reply is deferred: the handler hands frame.request_id to
# submit(on_done=...), and the continuation owes the one reply.
GOOD_DEFERRED = snippet(
    _DEFERRED_DISPATCH
    + """
        def _handle_acquire(self, conn, frame):
            try:
                self.service.submit(
                    frame.payload,
                    on_done=partial(self._acquire_done, conn, frame.request_id),
                )
            except RuntimeError as exc:
                self._send(conn, make_error(frame.request_id, str(exc)))

        def _acquire_done(self, conn, request_id, ticket):
            if ticket.lease is None:
                self._send(conn, make_error(request_id, str(ticket.error)))
            else:
                self._send(conn, make_lease(request_id, ticket.lease.lease_id))
    """
)

BAD_DEFERRED_ZERO_REPLY = snippet(
    _DEFERRED_DISPATCH
    + """
        def _handle_acquire(self, conn, frame):
            self.service.submit(
                frame.payload,
                on_done=partial(self._acquire_done, conn, frame.request_id),
            )

        def _acquire_done(self, conn, request_id, ticket):
            if ticket.lease is None:
                return
            self._send(conn, make_lease(request_id, ticket.lease.lease_id))
    """
)

BAD_DEFERRED_DOUBLE_REPLY = snippet(
    _DEFERRED_DISPATCH
    + """
        def _handle_acquire(self, conn, frame):
            self.service.submit(
                frame.payload,
                on_done=partial(self._acquire_done, conn, frame.request_id),
            )
            self._send(conn, make_error(frame.request_id, "queued"))

        def _acquire_done(self, conn, request_id, ticket):
            self._send(conn, make_lease(request_id, 1))
    """
)

BAD_DEFERRED_WRONG_KIND = snippet(
    _DEFERRED_DISPATCH
    + """
        def _handle_acquire(self, conn, frame):
            self.service.submit(
                frame.payload,
                on_done=partial(self._acquire_done, conn, frame.request_id),
            )

        def _acquire_done(self, conn, request_id, ticket):
            self._send(conn, make_pong(request_id))
    """
)

# A callback that never receives the request id cannot correlate a
# reply, so the handler path still owes one.
BAD_DEFERRED_UNCORRELATED = snippet(
    _DEFERRED_DISPATCH
    + """
        def _handle_acquire(self, conn, frame):
            self.service.submit(frame.payload, on_done=self._acquire_done)

        def _acquire_done(self, ticket):
            self._send(self.conn, make_lease(ticket.request_id, 1))
    """
)


def lint_wire_pair(
    tmp_path: Path,
    server_source: str,
    protocol_source: str | None = FIXTURE_PROTOCOL,
    rules=None,
):
    """Lint ``server_source`` as ``repro/wire/server.py`` next to a protocol."""
    wire = tmp_path / "repro" / "wire"
    wire.mkdir(parents=True, exist_ok=True)
    if protocol_source is not None:
        (wire / "protocol.py").write_text(protocol_source, encoding="utf-8")
    server = wire / "server.py"
    server.write_text(server_source, encoding="utf-8")
    return LintEngine(rules or [WireConformance()]).run([server])


class TestWireConformance:
    def test_conforming_server_is_clean(self, tmp_path):
        report = lint_wire_pair(tmp_path, GOOD_SERVER)
        assert rule_ids(report) == []

    def test_unhandled_request_kind(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_MISSING_PING)
        assert rule_ids(report) == ["R008"]
        assert "'PING' is never dispatched" in report.findings[0].message

    def test_zero_reply_path(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_ZERO_REPLY)
        assert rule_ids(report) == ["R008"]
        assert "wait forever" in report.findings[0].message

    def test_double_reply_path(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DOUBLE_REPLY)
        assert rule_ids(report) == ["R008"]
        assert "second correlated reply" in report.findings[0].message

    def test_inadmissible_inline_reply(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_WRONG_INLINE_REPLY)
        assert rule_ids(report) == ["R008"]
        assert "'LEASE' reply sent for a 'PING' request" in report.findings[0].message

    def test_dead_dispatch_branch(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DEAD_BRANCH)
        assert rule_ids(report) == ["R008"]
        assert "the client will hang" in report.findings[0].message

    def test_push_of_non_push_kind(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_PUSH_KIND)
        assert rule_ids(report) == ["R008"]
        assert "pushed unprompted" in report.findings[0].message

    def test_deferred_reply_checked_through_continuation(self, tmp_path):
        report = lint_wire_pair(tmp_path, GOOD_DEFERRED)
        assert rule_ids(report) == []

    def test_continuation_zero_reply_path(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DEFERRED_ZERO_REPLY)
        assert rule_ids(report) == ["R008"]
        assert "completes '_acquire_done' without" in report.findings[0].message

    def test_reply_after_deferring_is_a_second_reply(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DEFERRED_DOUBLE_REPLY)
        assert rule_ids(report) == ["R008"]
        assert "second correlated reply" in report.findings[0].message

    def test_continuation_inadmissible_reply(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DEFERRED_WRONG_KIND)
        assert rule_ids(report) == ["R008"]
        assert "'_acquire_done' sends 'PONG'" in report.findings[0].message

    def test_uncorrelated_callback_defers_nothing(self, tmp_path):
        report = lint_wire_pair(tmp_path, BAD_DEFERRED_UNCORRELATED)
        assert rule_ids(report) == ["R008"]
        assert "completes '_handle_acquire' without" in report.findings[0].message

    def test_missing_protocol_module(self, tmp_path):
        report = lint_wire_pair(tmp_path, GOOD_SERVER, protocol_source=None)
        assert rule_ids(report) == ["R008"]
        assert "no parseable protocol.py" in report.findings[0].message

    def test_other_wire_modules_are_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path, BAD_MISSING_PING, "wire/handlers.py", [WireConformance()]
        )
        assert rule_ids(report) == []


class TestRealTree:
    def test_real_wire_server_conforms(self):
        import repro.wire.server as server_module

        path = Path(server_module.__file__)
        report = LintEngine([WireConformance()]).run([path])
        assert report.findings == []
        assert [finding.rule for finding, _ in report.suppressed] == ["R008"]
