"""Service-level fault tolerance: lease revocation, the tick-loop
fault budget, and closed/faulted-service errors."""

import asyncio

import pytest

from repro.core import MRSIN, Request
from repro.faults import FaultEvent
from repro.networks import omega
from repro.service.clock import VirtualClock
from repro.service.server import (
    AllocationError,
    AllocationRejected,
    AllocationService,
    LeaseRevoked,
    ServiceClosed,
    ServiceConfig,
    ServiceFaulted,
)


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
    tasks = [
        asyncio.ensure_future(service.acquire(req, timeout=timeout))
        for req in requests
    ]
    await drain()
    return tasks


async def finish(tasks):
    for t in tasks:
        if not t.done():
            t.cancel()
    return await asyncio.gather(*tasks, return_exceptions=True)


# ----------------------------------------------------------------------
# Revocation: a fault severs one lease, the service keeps serving
# ----------------------------------------------------------------------
class TestLeaseRevocation:
    def test_link_fault_revokes_only_the_severed_lease(self):
        """The tentpole scenario: a fault on one held circuit revokes
        exactly that lease; every other lease survives and the service
        keeps allocating on the degraded network."""

        async def scenario():
            mrsin = MRSIN(omega(8))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(p) for p in range(4)])
            leases = service.run_one_cycle()
            await finish(tasks)
            assert len(leases) == 4
            victim = leases[0]
            mrsin.set_failed("link", victim.circuit.links[1].index)
            revoked = service.reconcile_faults()
            assert revoked == [victim]
            assert victim.revoked and not victim.active
            assert service.active_leases == 3
            for survivor in leases[1:]:
                assert survivor.active and not survivor.revoked
            assert not mrsin.resources[victim.resource].busy
            assert all(not link.occupied for link in victim.circuit.links)
            # The service still allocates for everyone else.
            tasks2 = await enqueue(service, [Request(p) for p in range(4, 8)])
            leases2 = service.run_one_cycle()
            await finish(tasks2)
            assert len(leases2) == 4
            assert service.snapshot()["revoked"] == 1

        run(scenario())

    def test_resource_fault_revokes_lease(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            mrsin.set_failed("resource", lease.resource)
            # run_one_cycle reconciles implicitly — no manual call.
            service.run_one_cycle()
            assert lease.revoked
            assert service.active_leases == 0

        run(scenario())

    def test_release_and_end_transmission_on_revoked_lease_raise(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(1)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            mrsin.set_failed("link", lease.circuit.links[0].index)
            service.reconcile_faults()
            with pytest.raises(LeaseRevoked):
                service.release(lease)
            with pytest.raises(LeaseRevoked):
                service.end_transmission(lease)

        run(scenario())

    def test_holder_observes_revocation_event(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            pushed = []
            lease.on_revoke = pushed.append
            mrsin.set_failed("resource", lease.resource)
            assert pushed == []  # a fault alone revokes nothing
            service.reconcile_faults()
            assert pushed == [lease]  # push notification, no polling
            assert lease.revoked

        run(scenario())

    def test_revoked_resource_reusable_after_repair(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(2)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            mrsin.set_failed("resource", lease.resource)
            service.run_one_cycle()
            mrsin.set_failed("resource", lease.resource, failed=False)
            tasks2 = await enqueue(service, [Request(p) for p in range(4)])
            leases2 = service.run_one_cycle()
            await finish(tasks2)
            assert len(leases2) == 4  # full capacity restored

        run(scenario())

    def test_apply_fault_event_counts_metrics(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            assert service.apply_fault_event(FaultEvent(0.0, "link", 0)) is True
            assert service.apply_fault_event(FaultEvent(0.0, "link", 0)) is False
            assert service.apply_fault_event(FaultEvent(1.0, "link", 0, repair=True))
            snap = service.snapshot()
            assert snap["faults_injected"] == 1
            assert snap["repairs_applied"] == 1

        run(scenario())

    def test_snapshot_reports_failed_components(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            mrsin.set_failed("link", 0)
            mrsin.set_failed("switchbox", (0, 0))
            mrsin.set_failed("resource", 1)
            snap = service.snapshot()
            assert snap["failed_links"] == 1
            assert snap["failed_switchboxes"] == 1
            assert snap["failed_resources"] == 1

        run(scenario())


# ----------------------------------------------------------------------
# Closed / faulted service: loud errors, not silent mutation
# ----------------------------------------------------------------------
class TestClosedServiceErrors:
    def test_release_on_closed_service_raises(self):
        async def scenario():
            mrsin = MRSIN(omega(4))
            service = make_service(mrsin)
            tasks = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            await service.close()
            with pytest.raises(ServiceClosed):
                service.release(lease)
            with pytest.raises(ServiceClosed):
                service.end_transmission(lease)
            assert lease.active  # the refusal left the lease untouched

        run(scenario())

    def test_release_on_faulted_service_raises_chained(self):
        async def scenario():
            clock = VirtualClock()
            mrsin = MRSIN(omega(4))
            service = AllocationService(
                mrsin, config=ServiceConfig(tick_interval=1.0), clock=clock
            )
            tasks = await enqueue(service, [Request(0)])
            (lease,) = service.run_one_cycle()
            await finish(tasks)
            boom = RuntimeError("solver exploded")

            def failing_cycle():
                raise boom

            service.run_one_cycle = failing_cycle
            async with service:
                await clock.run_until(1.0)
                await drain()
            with pytest.raises(ServiceFaulted) as excinfo:
                service.release(lease)
            assert excinfo.value.__cause__ is boom
            with pytest.raises(ServiceFaulted):
                service.end_transmission(lease)

        run(scenario())


# ----------------------------------------------------------------------
# Fault budget: transient tick errors are absorbed, then escalate
# ----------------------------------------------------------------------
class TestFaultBudget:
    def _flaky_service(self, failures: int, budget: int):
        clock = VirtualClock()
        mrsin = MRSIN(omega(4))
        service = AllocationService(
            mrsin,
            config=ServiceConfig(tick_interval=1.0, fault_budget=budget),
            clock=clock,
        )
        original = service.run_one_cycle
        remaining = [failures]

        def flaky_cycle():
            if remaining[0] > 0:
                remaining[0] -= 1
                raise RuntimeError("transient glitch")
            return original()

        service.run_one_cycle = flaky_cycle
        return service, clock

    def test_budget_absorbs_transient_errors(self):
        async def scenario():
            service, clock = self._flaky_service(failures=2, budget=2)
            async with service:
                task = asyncio.ensure_future(service.acquire(Request(0)))
                await drain()
                await clock.run_until(3.0)
                await drain()
                lease = await task  # granted on the third tick
            assert lease.resource in range(4)
            assert service.fault is None
            assert service.metrics.tick_retries == 2

        run(scenario())

    def test_budget_exhaustion_faults_the_service(self):
        async def scenario():
            service, clock = self._flaky_service(failures=5, budget=2)
            async with service:
                task = asyncio.ensure_future(service.acquire(Request(0)))
                await drain()
                await clock.run_until(3.0)
                await drain()
                with pytest.raises(ServiceFaulted):
                    await task
            assert service.fault is not None
            assert service.metrics.tick_retries == 2  # budget, then escalation

        run(scenario())

    def test_success_resets_the_budget_window(self):
        """The budget bounds *consecutive* failures: a good tick in
        between restarts the count."""

        async def scenario():
            clock = VirtualClock()
            mrsin = MRSIN(omega(4))
            service = AllocationService(
                mrsin,
                config=ServiceConfig(tick_interval=1.0, fault_budget=1),
                clock=clock,
            )
            original = service.run_one_cycle
            schedule = iter([True, False, True, False])  # fail, ok, fail, ok

            def alternating_cycle():
                if next(schedule, False):
                    raise RuntimeError("transient glitch")
                return original()

            service.run_one_cycle = alternating_cycle
            async with service:
                await clock.run_until(4.0)
                await drain()
            assert service.fault is None
            assert service.metrics.tick_retries == 2

        run(scenario())

    def test_over_range_priority_is_refused_at_admission(self):
        """A queued priority above ``ymax`` would raise in Transformation
        2 on every tick until the budget ran out, faulting the service
        and failing the valid request queued beside it."""

        async def scenario():
            clock = VirtualClock()
            service = AllocationService(
                MRSIN(omega(4)),
                config=ServiceConfig(tick_interval=1.0, fault_budget=2),
                clock=clock,
            )
            async with service:
                with pytest.raises(ValueError, match="exceeds ymax"):
                    service.submit(Request(0, priority=11), on_done=lambda t: None)
                task = asyncio.ensure_future(service.acquire(Request(1)))
                await drain()
                await clock.run_until(4.0)
                await drain()
                lease = await task
            assert lease.request.processor == 1
            assert service.fault is None
            assert service.metrics.tick_retries == 0

        run(scenario())

    def test_fault_budget_validation(self):
        with pytest.raises(ValueError, match="fault_budget"):
            ServiceConfig(fault_budget=-1)
