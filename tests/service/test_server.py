"""Tests for the allocation service: correctness vs the optimal
scheduler, lease lifecycle, admission control, and backpressure."""

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, OptimalScheduler, Request
from repro.networks import omega
from repro.service.clock import VirtualClock
from repro.service.driver import ServiceRunResult
from repro.service.invariants import checked_cycle
from repro.service.server import (
    AllocationError,
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    ServiceClosed,
    ServiceConfig,
    ServiceFaulted,
)
from repro.sim.workload import WorkloadSpec, sample_instance
from tests.helpers import FRACTIONAL_ROW4, fractional_row4_instance


def run(coro):
    return asyncio.run(coro)


async def drain(rounds: int = 16):
    for _ in range(rounds):
        await asyncio.sleep(0)


def make_service(mrsin, **config_kwargs):
    defaults = dict(queue_limit=256)
    defaults.update(config_kwargs)
    return AllocationService(
        mrsin, config=ServiceConfig(**defaults), clock=VirtualClock()
    )


async def enqueue(service, requests, timeout=None):
    """Start acquire() tasks and let them reach the queue."""
    tasks = [
        asyncio.ensure_future(service.acquire(req, timeout=timeout))
        for req in requests
    ]
    await drain()
    return tasks


async def finish(tasks):
    """Cancel unserved acquires and collect results/exceptions."""
    for t in tasks:
        if not t.done():
            t.cancel()
    return await asyncio.gather(*tasks, return_exceptions=True)


# ----------------------------------------------------------------------
# Correctness: one tick == one optimal scheduling cycle
# ----------------------------------------------------------------------
class TestTickMatchesOptimal:
    @given(
        seed=st.integers(0, 10**6),
        request_density=st.floats(0.25, 1.0),
        free_density=st.floats(0.25, 1.0),
        occupied=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_quiescent_snapshot_tick_equals_optimal(
        self, seed, request_density, free_density, occupied
    ):
        """Property: for any quiescent snapshot, one service tick
        allocates exactly as many requests as OptimalScheduler does on
        the same instance (the max-flow optimum is unique in size)."""
        spec = WorkloadSpec(
            builder=omega,
            n_ports=8,
            request_density=request_density,
            free_density=free_density,
            occupied_circuits=occupied,
        )
        twin = sample_instance(spec, seed)
        expected = OptimalScheduler().schedule(twin)

        async def scenario():
            live = sample_instance(spec, seed)
            requests = live.schedulable_requests()
            live.pending.clear()  # the service owns the queue
            service = make_service(live)
            tasks = await enqueue(service, requests)
            leases = service.run_one_cycle()
            await finish(tasks)
            return leases

        leases = run(scenario())
        assert len(leases) == len(expected)

    def test_served_processors_and_resources_are_distinct(self):
        async def scenario():
            mrsin = MRSIN(omega(8))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(p) for p in range(8)])
            leases = service.run_one_cycle()
            await finish(tasks)
            return leases

        leases = run(scenario())
        assert len(leases) == 8  # full permutation routes on a free omega
        assert len({l.request.processor for l in leases}) == 8
        assert len({l.resource for l in leases}) == 8

    def test_unbatched_mode_serves_one_per_tick(self):
        async def scenario():
            mrsin = MRSIN(omega(8))
            service = make_service(mrsin, max_batch=1)
            tasks = await enqueue(service, [Request(p) for p in range(4)])
            sizes = [len(service.run_one_cycle()) for _ in range(4)]
            await finish(tasks)
            return sizes

        assert run(scenario()) == [1, 1, 1, 1]

    def test_fifo_order_within_processor(self):
        """Two requests from one processor: the earlier one wins the tick."""

        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            first, second = await enqueue(
                service, [Request(0, tag="first"), Request(0, tag="second")]
            )
            service.run_one_cycle()
            await drain()
            return first.done(), second.done(), await finish([first, second])

        first_done, second_done, _ = run(scenario())
        assert first_done and not second_done

    def test_a_fractional_min_cost_optimum_is_granted(self):
        """Table II row 4 on a draw whose LP optimum is fractional: the
        tick grants the exhaustive optimum and the service stays up.
        Every cycle used to raise, with all eight requests stuck."""
        topology, seed, served, _ = FRACTIONAL_ROW4[1]
        live = fractional_row4_instance(topology, seed)
        requests = list(live.pending)
        live.pending.clear()  # the service owns the queue
        service = make_service(live, fault_budget=0)
        for request in requests:
            service.submit(request, on_done=lambda _ticket: None)
        assert len(checked_cycle(service)) == served
        assert service.fault is None
        assert service.queue_depth == len(requests) - served


# ----------------------------------------------------------------------
# Lease lifecycle
# ----------------------------------------------------------------------
class TestLeaseLifecycle:
    def test_release_then_reacquire(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            (task,) = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await drain()
            assert await task is lease
            assert mrsin.resources[lease.resource].busy
            assert service.active_leases == 1

            service.release(lease)
            assert not lease.active
            assert not mrsin.resources[lease.resource].busy
            assert service.active_leases == 0
            assert mrsin.network.occupancy() == 0.0  # circuit torn down too

            (task2,) = await enqueue(service, [Request(0)])
            (lease2,) = service.run_one_cycle()
            await drain()
            assert await task2 is lease2
            return lease, lease2

        lease, lease2 = run(scenario())
        assert lease2.lease_id != lease.lease_id

    def test_double_release_raises(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(1)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            service.release(lease)
            with pytest.raises(AllocationError):
                service.release(lease)

        run(scenario())

    def test_end_transmission_frees_link_but_not_resource(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(2)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            assert mrsin.network.processor_link(2).occupied
            service.end_transmission(lease)
            assert not mrsin.network.processor_link(2).occupied
            assert mrsin.resources[lease.resource].busy
            assert not lease.transmitting
            service.end_transmission(lease)  # idempotent
            service.release(lease)
            assert not mrsin.resources[lease.resource].busy

        run(scenario())

    def test_processor_with_held_circuit_waits_for_transmission_end(self):
        """Model item 5: a transmitting processor cannot be scheduled."""

        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)

            (task2,) = await enqueue(service, [Request(0)])
            assert service.run_one_cycle() == []  # input link still held
            service.end_transmission(lease)
            (lease2,) = service.run_one_cycle()
            await drain()
            assert await task2 is lease2
            assert lease2.resource != lease.resource  # first is still busy

        run(scenario())


# ----------------------------------------------------------------------
# Admission control, deadlines, backpressure, degradation
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_timeout_expiry(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            for res in mrsin.resources:
                res.busy = True  # nothing can ever be allocated
            clock = VirtualClock()
            service = AllocationService(
                mrsin, config=ServiceConfig(queue_limit=8), clock=clock
            )
            (task,) = await enqueue(service, [Request(0)], timeout=2.5)
            service.run_one_cycle()  # t=0: queued, not expired
            assert not task.done()
            await clock.run_until(3.0)
            service.run_one_cycle()  # t=3: past the deadline
            await drain()
            with pytest.raises(AllocationTimeout):
                await task
            return service.metrics.snapshot()

        snap = run(scenario())
        assert snap["timed_out"] == 1
        assert snap["allocated"] == 0

    def test_default_timeout_from_config(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            for res in mrsin.resources:
                res.busy = True
            clock = VirtualClock()
            service = AllocationService(
                mrsin,
                config=ServiceConfig(queue_limit=8, default_timeout=1.0),
                clock=clock,
            )
            (task,) = await enqueue(service, [Request(0)])
            await clock.run_until(2.0)
            service.run_one_cycle()
            await drain()
            with pytest.raises(AllocationTimeout):
                await task

        run(scenario())

    def test_backpressure_rejection_when_queue_full(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            for res in mrsin.resources:
                res.busy = True  # keep the queue from draining
            service = make_service(mrsin, queue_limit=2)
            waiting = await enqueue(service, [Request(0), Request(1)])
            with pytest.raises(AllocationRejected):
                await service.acquire(Request(2))
            snap = service.metrics.snapshot()
            await finish(waiting)
            return snap

        snap = run(scenario())
        assert snap["rejected_full"] == 1
        assert snap["submitted"] == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, bad):
        """A NaN/inf deadline never expires: it used to bypass
        ``default_timeout`` and pin a queue slot until the caller left."""

        async def scenario():
            service = make_service(MRSIN(omega(4)), default_timeout=0.05)
            with pytest.raises(ValueError, match="timeout"):
                await service.acquire(Request(0), timeout=bad)
            with pytest.raises(ValueError, match="timeout"):
                service.submit(Request(0), timeout=bad, on_done=lambda ticket: None)
            return service.queue_depth, service.metrics.submitted

        assert run(scenario()) == (0, 0)

    def test_invalid_requests_rejected_eagerly(self):
        async def scenario():
            service = make_service(MRSIN(omega(4)))
            with pytest.raises(ValueError):
                await service.acquire(Request(99))
            with pytest.raises(ValueError):
                await service.acquire(Request(0, resource_type="no-such-type"))

        run(scenario())

    def test_close_fails_queued_requests(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            for res in mrsin.resources:
                res.busy = True
            service = make_service(mrsin)
            await service.start()
            (task,) = await enqueue(service, [Request(0)])
            await service.close()
            await drain()
            with pytest.raises(ServiceClosed):
                await task
            with pytest.raises(ServiceClosed):
                await service.acquire(Request(1))

        run(scenario())


# ----------------------------------------------------------------------
# Cancelled acquires must never leak a lease (regression)
# ----------------------------------------------------------------------
class TestCancelledAcquire:
    def test_cancel_before_tick_allocates_nothing(self):
        """Regression: a cancelled acquire used to win the next tick
        anyway, occupying a resource forever with no one to release it."""

        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            (task,) = await enqueue(service, [Request(0)])
            task.cancel()
            # No drain: the eager done-callback has not run yet, so the
            # entry is still queued when the tick fires.
            leases = service.run_one_cycle()
            await drain()
            assert leases == []
            assert service.active_leases == 0
            assert not any(res.busy for res in mrsin.resources)
            assert mrsin.network.occupancy() == 0.0
            assert service.queue_depth == 0  # callback purged the entry

        run(scenario())

    def test_cancel_between_selection_and_allocation_is_unwound(self):
        """A cancellation landing after batch selection: the circuit is
        established by apply_mapping, then immediately torn down."""

        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            task0, task1 = await enqueue(service, [Request(0), Request(1)])
            original = service._select_batch

            def select_then_cancel():
                batch = original()
                for entry in batch:
                    if entry.request.processor == 0:
                        entry.future.cancel()
                return batch

            service._select_batch = select_then_cancel
            leases = service.run_one_cycle()
            await drain()
            assert len(leases) == 1
            assert leases[0].request.processor == 1
            assert service.active_leases == 1
            busy = [res.index for res in mrsin.resources if res.busy]
            assert busy == [leases[0].resource]  # the winner's only
            assert task0.cancelled()
            assert (await task1) is leases[0]
            # The unwound resource is immediately allocatable again.
            service._select_batch = original
            (task2,) = await enqueue(service, [Request(0)])
            (lease2,) = service.run_one_cycle()
            await drain()
            assert (await task2) is lease2

        run(scenario())

    def test_cancelled_entry_leaves_queue_eagerly(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            for res in mrsin.resources:
                res.busy = True  # nothing drains the queue
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(0), Request(1)])
            assert service.queue_depth == 2
            tasks[0].cancel()
            await drain()
            assert service.queue_depth == 1
            await finish(tasks)

        run(scenario())


# ----------------------------------------------------------------------
# A dying tick loop must fault loudly (regression)
# ----------------------------------------------------------------------
class TestTickLoopFault:
    def test_fault_fails_queued_acquires(self):
        """Regression: an exception in run_one_cycle used to kill the
        background task silently, stranding every queued acquire."""

        async def scenario():
            clock = VirtualClock()
            mrsin = MRSIN(omega(4))
            service = AllocationService(
                mrsin, config=ServiceConfig(tick_interval=1.0), clock=clock
            )
            boom = RuntimeError("solver exploded")

            def failing_cycle():
                raise boom

            service.run_one_cycle = failing_cycle
            async with service:
                task = asyncio.ensure_future(service.acquire(Request(0)))
                await drain()
                await clock.run_until(1.0)
                await drain()
                with pytest.raises(ServiceFaulted) as excinfo:
                    await task
                assert excinfo.value.__cause__ is boom
                assert service.fault is boom
                assert service.queue_depth == 0
                with pytest.raises(ServiceClosed):
                    await service.acquire(Request(1))

        run(scenario())

    def test_unfaulted_service_has_no_fault(self):
        async def scenario():
            service = make_service(MRSIN(omega(4)))
            tasks = await enqueue(service, [Request(0)])
            service.run_one_cycle()
            await finish(tasks)
            assert service.fault is None

        run(scenario())


# ----------------------------------------------------------------------
# Warm start: the engine rides along without changing behaviour
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_snapshot_reports_engine_stats(self):
        async def scenario():
            service = make_service(MRSIN(omega(4)))
            tasks = await enqueue(service, [Request(p) for p in range(4)])
            service.run_one_cycle()
            await finish(tasks)
            return service.snapshot()

        snap = run(scenario())
        assert snap["engine_builds"] == 1
        assert snap["engine_warm_ticks"] == 1

    def test_lifecycle_stays_warm_across_release_and_reacquire(self):
        async def scenario():
            mrsin = MRSIN(omega(8))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(p) for p in range(8)])
            leases = service.run_one_cycle()
            await finish(tasks)
            for lease in leases[:4]:
                service.end_transmission(lease)
            for lease in leases[4:]:
                service.release(lease)
            tasks = await enqueue(service, [Request(p) for p in range(8)])
            more = service.run_one_cycle()
            await finish(tasks)
            return len(leases), len(more), service.snapshot()

        first, second, snap = run(scenario())
        assert first == 8
        assert second == 4  # only the released half is free again
        assert snap["engine_builds"] == 1  # one kernel, rewritten every tick


# ----------------------------------------------------------------------
# The background tick loop
# ----------------------------------------------------------------------
class TestTickLoop:
    def test_background_loop_allocates_on_tick(self):
        async def scenario():
            clock = VirtualClock()
            mrsin = MRSIN(omega(4))
            service = AllocationService(
                mrsin, config=ServiceConfig(tick_interval=1.0), clock=clock
            )
            async with service:
                task = asyncio.ensure_future(service.acquire(Request(0)))
                await drain()
                assert not task.done()  # no tick has fired yet
                await clock.run_until(1.0)
                lease = await task
                return lease.acquired_at, lease.waited

        acquired_at, waited = run(scenario())
        assert acquired_at == 1.0
        assert waited == 1.0

    def test_a_tick_of_the_loop_costs_one_cycle_of_solver_work(self):
        """Extra solves between two yields of the tick loop grant the
        same leases (R005's solver-loop half, ISSUE 24 audit): the
        operation counter is where they show."""

        async def scenario(drive):
            clock = VirtualClock()
            service = AllocationService(
                MRSIN(omega(8)), config=ServiceConfig(tick_interval=1.0), clock=clock
            )
            tasks = await enqueue(service, [Request(p) for p in (0, 3, 5)])
            await drive(service, clock)
            assert all(task.done() for task in tasks)
            return service.snapshot()["solver_ops"]

        async def by_the_loop(service, clock):
            async with service:
                await clock.run_until(1.0)

        async def by_hand(service, clock):
            service.run_one_cycle()
            await drain()

        assert run(scenario(by_the_loop)) == run(scenario(by_hand))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(tick_interval=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_limit=0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="timeout"):
                ServiceConfig(default_timeout=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tick_interval"):
                ServiceConfig(tick_interval=bad)

    def test_metrics_render_mentions_all_counters(self):
        async def scenario():
            service = make_service(MRSIN(omega(4)))
            tasks = await enqueue(service, [Request(0)])
            service.run_one_cycle()
            await finish(tasks)
            return service.snapshot()

        # The renderer that ships: `repro serve` prints exactly this.
        text = ServiceRunResult(
            snapshot=run(scenario()), horizon=1.0, rate=1.0, seed=0, network="omega-4"
        ).render()
        for key in ("allocated", "timed_out", "rejected_full", "wait <= 1",
                    "solver_instructions", "instructions_per_allocation"):
            assert key in text, key
