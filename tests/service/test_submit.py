"""The synchronous admission seam: ``submit`` tickets vs ``acquire`` tasks.

``AllocationService.submit`` and the coroutine ``acquire`` share one
queue and one completion protocol; the differential test drives the
same seeded stream (admits, releases, end-of-transmission, cancels,
faults, deadlines) through each front and demands the same grants in
the same order and the same final snapshot.  The ticket front runs
with no event loop at all.
"""

import asyncio
import threading

import pytest

from repro.core import MRSIN, Request
from repro.faults import FaultInjector
from repro.networks import omega
from repro.service.clock import Clock, VirtualClock
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    ServiceClosed,
    ServiceConfig,
)
from repro.util.rng import spawn_rngs

TICKS = 120
DEADLINE_TICKS = 3.0


def make_service(ports=8, **config_kwargs):
    defaults = dict(queue_limit=256)
    defaults.update(config_kwargs)
    clock = VirtualClock()
    service = AllocationService(
        MRSIN(omega(ports)), config=ServiceConfig(**defaults), clock=clock
    )
    return service, clock


# ----------------------------------------------------------------------
# Differential: one stream, two fronts
# ----------------------------------------------------------------------
class _TicketFront:
    """Requests go in through ``submit``; outcomes are read off the ticket."""

    def __init__(self, service):
        self.service = service

    def submit(self, request):
        return self.service.submit(
            request, timeout=DEADLINE_TICKS, on_done=lambda ticket: None
        )

    @staticmethod
    def outcome(ticket):
        return ticket.lease if ticket.lease is not None else ticket.error


class _TaskFront:
    """Requests go in through ``acquire()`` tasks."""

    def __init__(self, service):
        self.service = service

    def submit(self, request):
        return asyncio.ensure_future(
            self.service.acquire(request, timeout=DEADLINE_TICKS)
        )

    @staticmethod
    def outcome(task):
        if not task.done():
            return None
        return task.exception() or task.result()


def _stream(service, front, seed):
    """The seeded stream, as a generator.

    Yields ``"settle"`` wherever the task front needs loop turns (for
    fresh tasks to reach the queue, for cancellations and results to
    land) and ``"tick"`` where virtual time moves one unit; the ticket
    front needs neither a loop nor the settling.  Returns the trace.
    """
    arrivals, holds, cancels, faults = spawn_rngs(seed, 4)
    mrsin = service.mrsin
    injector = FaultInjector(
        mrsin, rng=faults, fault_rate=0.4, transient_fraction=1.0, mean_repair=5.0
    )
    idle = set(range(mrsin.n_processors))
    handles = {}  # processor -> queued handle
    live = {}  # lease_id -> lease
    end_tx_at, release_at = {}, {}
    trace = []
    for tick in range(TICKS):
        for lease_id in end_tx_at.pop(tick, ()):
            if lease_id in live:
                service.end_transmission(live[lease_id])
                idle.add(live[lease_id].request.processor)
        for lease_id in release_at.pop(tick, ()):
            if lease_id in live:
                service.release(live.pop(lease_id))
        injector.inject(service, float(tick))
        for lease in service.reconcile_faults():
            del live[lease.lease_id]
            if lease.request.processor not in handles:
                idle.add(lease.request.processor)
            trace.append(("revoked", tick, lease.lease_id))

        candidates = sorted(idle)
        wants = arrivals.random(len(candidates)) < 0.5
        quits = cancels.random(len(candidates)) < 0.1
        for processor, want in zip(candidates, wants):
            if want:
                handles[processor] = front.submit(Request(processor))
                idle.discard(processor)
        yield "settle"
        for processor, want, quit_ in zip(candidates, wants, quits):
            if want and quit_:
                handles.pop(processor).cancel()
                idle.add(processor)
        yield "settle"

        service.run_one_cycle()
        yield "settle"
        for processor in sorted(handles):
            outcome = front.outcome(handles[processor])
            if outcome is None:
                continue
            del handles[processor]
            if isinstance(outcome, AllocationTimeout):
                idle.add(processor)
                trace.append(("expired", tick, processor))
                continue
            lease = outcome
            live[lease.lease_id] = lease
            trace.append((lease.lease_id, processor, lease.resource, lease.waited))
            hold = int(holds.integers(1, 4))
            end_tx_at.setdefault(tick + 1, []).append(lease.lease_id)
            release_at.setdefault(tick + 1 + hold, []).append(lease.lease_id)
        yield "tick"
    for handle in handles.values():
        handle.cancel()
    yield "settle"
    return trace, service.snapshot()


def _run_tickets(seed):
    service, clock = make_service(ports=16)
    stream = _stream(service, _TicketFront(service), seed)
    try:
        while True:
            if next(stream) == "tick":
                clock.step(1.0)
    except StopIteration as stop:
        return stop.value


async def _run_tasks(seed):
    service, clock = make_service(ports=16)
    stream = _stream(service, _TaskFront(service), seed)
    try:
        while True:
            if next(stream) == "tick":
                await clock.advance(1.0)
            else:
                await asyncio.sleep(0)
                await asyncio.sleep(0)
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("seed", [3, 41])
def test_submit_and_acquire_grant_identically(seed):
    ticket_trace, ticket_snapshot = _run_tickets(seed)  # no event loop
    task_trace, task_snapshot = asyncio.run(_run_tasks(seed))
    assert ticket_trace == task_trace
    assert ticket_snapshot == task_snapshot
    kinds = {entry[0] for entry in ticket_trace if isinstance(entry[0], str)}
    assert kinds == {"revoked", "expired"}  # the stream exercises both
    assert ticket_snapshot["allocated"] > TICKS


# ----------------------------------------------------------------------
# Ticket semantics
# ----------------------------------------------------------------------
class TestTicket:
    def test_on_done_runs_inside_the_granting_cycle(self):
        service, _ = make_service()
        seen = []
        ticket = service.submit(Request(2), on_done=seen.append)
        assert not ticket.done() and service.queue_depth == 1
        (lease,) = service.run_one_cycle()
        assert seen == [ticket]
        assert ticket.lease is lease and ticket.error is None and ticket.done()

    def test_admission_errors_raise_at_submit(self):
        service, _ = make_service(queue_limit=1)
        for res in service.mrsin.resources:
            res.busy = True
        service.submit(Request(0), on_done=lambda t: None)
        with pytest.raises(AllocationRejected):
            service.submit(Request(1), on_done=lambda t: None)
        with pytest.raises(ValueError, match="processor"):
            service.submit(Request(99), on_done=lambda t: None)
        assert service.queue_depth == 1

    def test_cancel_leaves_the_queue_at_once_and_never_calls_back(self):
        service, _ = make_service()
        seen = []
        doomed = service.submit(Request(0), on_done=seen.append)
        kept = service.submit(Request(1), on_done=seen.append)
        assert doomed.cancel() and doomed.cancelled()
        assert service.queue_depth == 1
        (lease,) = service.run_one_cycle()
        assert seen == [kept] and lease.request.processor == 1
        assert not kept.cancel()  # already granted
        assert service.active_leases == 1

    def test_deadline_fails_the_ticket_with_timeout(self):
        service, clock = make_service()
        for res in service.mrsin.resources:
            res.busy = True
        ticket = service.submit(Request(0), timeout=2.0, on_done=lambda t: None)
        for _ in range(3):
            service.run_one_cycle()
            clock.step(1.0)
        assert isinstance(ticket.error, AllocationTimeout) and ticket.lease is None

    def test_on_done_may_submit_again(self):
        """A callback fired by the expiry sweep re-queues from inside
        the cycle; the new entry must survive the sweep's rebuild."""
        service, clock = make_service()
        for res in service.mrsin.resources:
            res.busy = True
        retries = []

        def retry(ticket):
            retries.append(service.submit(Request(0), on_done=lambda t: None))

        service.submit(Request(0), timeout=1.0, on_done=retry)
        clock.step(1.0)
        service.run_one_cycle()
        assert len(retries) == 1 and service.queue_depth == 1

    def test_close_fails_queued_tickets(self):
        async def scenario():
            service, _ = make_service()
            for res in service.mrsin.resources:
                res.busy = True
            ticket = service.submit(Request(0), on_done=lambda t: None)
            await service.close()
            assert isinstance(ticket.error, ServiceClosed)
            with pytest.raises(ServiceClosed):
                service.submit(Request(1), on_done=lambda t: None)

        asyncio.run(scenario())


def test_revocation_allocates_no_event_and_needs_no_loop():
    """Revocation is ``lease.revoked`` plus the ``on_revoke`` callback and
    nothing else — no ``asyncio.Event`` per lease.  On a thread that
    never had an event loop: the lease is revoked and ``on_revoke``
    fires from the reconciling call."""
    outcome = {}

    def body():
        service, _ = make_service()
        ticket = service.submit(Request(1), on_done=lambda t: None)
        service.run_one_cycle()
        lease = ticket.lease
        pushed = []
        lease.on_revoke = pushed.append
        service.mrsin.set_failed("resource", lease.resource)
        outcome["revoked"] = service.reconcile_faults() == [lease] and lease.revoked
        outcome["pushed"] = pushed == [lease]

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcome == {"revoked": True, "pushed": True}


# ----------------------------------------------------------------------
# Tick pacing
# ----------------------------------------------------------------------
class _ScriptedClock(Clock):
    """Time moves only by what the test scripts: each ``sleep`` takes
    exactly as long as asked, each cycle costs the next scripted amount."""

    def __init__(self, cycle_costs):
        self.t = 100.0
        self.costs = list(cycle_costs)
        self.sleeps = []
        self.exhausted = asyncio.Event()

    def now(self):
        return self.t

    def perf_ns(self):
        return 0

    async def sleep(self, dt):
        if not self.costs:
            self.exhausted.set()
            await asyncio.Event().wait()  # parked until close() cancels
        self.sleeps.append(dt)
        self.t += dt
        await asyncio.sleep(0)

    def cycle(self):
        self.t += self.costs.pop(0)
        return []


def _paced_sleeps(interval, cycle_costs):
    async def scenario():
        clock = _ScriptedClock(cycle_costs)
        service = AllocationService(
            MRSIN(omega(4)), config=ServiceConfig(tick_interval=interval), clock=clock
        )
        service.run_one_cycle = clock.cycle
        async with service:
            await asyncio.wait_for(clock.exhausted.wait(), 5.0)
        return clock.sleeps

    return asyncio.run(scenario())


class TestTickPacing:
    def test_sleep_compensates_for_cycle_cost(self):
        sleeps = _paced_sleeps(0.002, [0.0005, 0.0012, 0.0, 0.0003])
        assert sleeps == pytest.approx([0.002, 0.0015, 0.0008, 0.002])

    def test_overrun_yields_once_and_does_not_burst(self):
        # A 5 ms cycle on a 2 ms tick misses two whole ticks.  They are
        # not made up: one zero-length sleep, then the ordinary rhythm
        # re-anchored at the end of the overrun.
        sleeps = _paced_sleeps(0.002, [0.005, 0.0005, 0.0005, 0.0])
        assert sleeps == pytest.approx([0.002, 0.0, 0.0015, 0.0015])
        assert all(dt >= 0 for dt in sleeps)

    def test_virtual_wake_instants_are_a_plain_sleep_per_tick(self):
        """Under a virtual clock the paced loop wakes at bit-identical
        instants to ``while True: await sleep(interval)``."""

        async def scenario():
            clock = VirtualClock()
            clock.step(0.3)
            service = AllocationService(
                MRSIN(omega(4)), config=ServiceConfig(tick_interval=0.1), clock=clock
            )
            woke = []
            service.run_one_cycle = lambda: woke.append(clock.now())
            async with service:
                await clock.run_until(6.0)
            return woke

        woke = asyncio.run(scenario())
        expected, t = [], 0.3
        for _ in woke:
            t = t + 0.1
            expected.append(t)
        assert len(woke) > 50
        assert woke == expected  # exact float equality, not approx
