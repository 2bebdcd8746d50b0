"""The shared invariant set: each statement fires on a planted violation,
and a faulty, deadline-ridden service passes it tick after tick."""

import pytest
from numpy.random import default_rng

from repro.core import MRSIN, Request
from repro.core.incremental import KernelFlowEngine
from repro.faults import FaultEvent, FaultInjector
from repro.networks import omega
from repro.service.clock import VirtualClock
from repro.service.invariants import InvariantError, check_service, checked_cycle
from repro.service.server import AllocationRejected, AllocationService, ServiceConfig
from repro.sim.workload import WorkloadSpec, build_mrsin
from repro.util.rng import spawn_rngs


def make_service(ports=8, **config):
    clock = VirtualClock()
    service = AllocationService(
        MRSIN(omega(ports)), config=ServiceConfig(**config), clock=clock
    )
    return service, clock


def submit(service, processor, **kwargs):
    request = Request(processor)
    service.submit(request, on_done=lambda _ticket: None, **kwargs)
    return request


class TestCheckService:
    def test_a_healthy_service_passes(self):
        service, _ = make_service()
        for processor in range(4):
            submit(service, processor)
        assert len(checked_cycle(service)) == 4
        check_service(service)

    def test_a_lease_dropped_from_the_books(self):
        service, _ = make_service()
        submit(service, 0)
        (lease,) = service.run_one_cycle()
        del service._leases[lease.lease_id]
        with pytest.raises(InvariantError, match="1 busy resources vs 0 active leases"):
            check_service(service)

    def test_a_failed_link_left_occupied(self):
        service, _ = make_service()
        link = service.mrsin.network.links[5]
        link.occupied = link.failed = True  # half a teardown: no circuit owns it
        with pytest.raises(InvariantError, match="failed link 5 still carries a circuit"):
            check_service(service)

    def test_a_severed_allocation_not_reconciled(self):
        service, clock = make_service()
        submit(service, 0)
        (lease,) = service.run_one_cycle()
        cut = lease.circuit.links[1].index
        service.apply_fault_event(FaultEvent(clock.now(), "link", cut))
        with pytest.raises(InvariantError, match="survived reconcile_faults"):
            check_service(service)
        service.reconcile_faults()
        check_service(service)
        assert lease.revoked

    def test_a_request_lost(self):
        service, _ = make_service()
        submit(service, 0)
        submit(service, 0)
        service._queue.pop()
        with pytest.raises(InvariantError, match="request lost: 2 admitted, 1 accounted"):
            check_service(service)

    def test_withdrawn_requests_are_the_callers_to_count(self):
        service, _ = make_service()
        ticket = service.submit(Request(0), on_done=lambda _ticket: None)
        assert ticket.cancel()
        with pytest.raises(InvariantError, match="request lost"):
            check_service(service)
        check_service(service, cancelled=1)


class TestBackgroundLoad:
    """Circuits established before the service existed (``WorkloadSpec.
    occupied_circuits``): not leases, but still counted and reclaimed."""

    def make(self, circuits):
        mrsin = build_mrsin(WorkloadSpec(omega, 8, occupied_circuits=circuits), default_rng(0))
        return AllocationService(mrsin, clock=VirtualClock())

    def test_background_is_counted_beside_the_leases(self):
        service = self.make(3)
        assert len(service.background) == 3
        for processor in range(8):
            submit(service, processor)
        checked_cycle(service)
        assert service.active_leases > 0

    def test_a_fault_on_a_background_circuit_is_reclaimed(self):
        """The background circuit used to bypass the MRSIN's
        transmission table: its resource stayed busy for ever and its
        failed link stayed occupied."""
        service = self.make(1)
        mrsin = service.mrsin
        ((resource, circuit),) = mrsin.transmitting_circuits().items()
        cut = circuit.links[1].index
        mrsin.set_failed("link", cut)
        assert mrsin.severed_resources() == [resource]
        service.run_one_cycle()
        check_service(service)
        assert not mrsin.resources[resource].busy
        assert not any(link.occupied for link in mrsin.network.links)
        assert service.background == set() and service.metrics.revoked == 0


class TestCheckedCycle:
    def test_fires_when_the_warm_engine_under_allocates_by_one(self, monkeypatch):
        service, _ = make_service()
        for processor in range(3):
            submit(service, processor)
        schedule = KernelFlowEngine.schedule
        monkeypatch.setattr(
            KernelFlowEngine, "schedule", lambda self, requests: schedule(self, requests[:-1])
        )
        with pytest.raises(InvariantError, match="allocated 2 of 3 .* cold optimal solve .* allocates 3"):
            checked_cycle(service)

    def test_reconciles_before_the_cold_solve(self):
        """A severed circuit still occupies its processor's link: peeked
        as it stands, the batch is empty and the cold solve grants 0
        where the cycle — which reconciles first — grants 1."""
        service, clock = make_service()
        submit(service, 0)
        (lease,) = checked_cycle(service)
        cut = lease.circuit.links[1].index
        service.apply_fault_event(FaultEvent(clock.now(), "link", cut))
        submit(service, 0)
        assert service.peek_batch() == []
        assert len(checked_cycle(service)) == 1
        assert lease.revoked

    @pytest.mark.parametrize("seed", [3, 11])
    def test_deadlines_on_under_fault_churn(self, seed):
        """Deadlines on, under fault churn: requests expiring inside
        the very cycle whose batch the cold solve predicts."""
        service, clock = make_service(ports=16, queue_limit=24, default_timeout=2.0)
        arrival_rng, fault_rng, hold_rng = spawn_rngs(seed, 3)
        injector = FaultInjector(service.mrsin, rng=fault_rng, fault_rate=0.3, mean_repair=4.0)
        held = []
        for tick in range(200):
            for _ in range(int(arrival_rng.poisson(0.6 * 16))):
                try:
                    submit(service, int(arrival_rng.integers(0, 16)))
                except AllocationRejected:
                    pass
            still = []
            for release_at, lease in held:
                if lease.revoked:
                    continue
                if tick >= release_at:
                    service.release(lease)
                else:
                    if lease.transmitting:
                        service.end_transmission(lease)
                    still.append((release_at, lease))
            held = still
            injector.inject(service, float(tick))
            for lease in checked_cycle(service):
                held.append((tick + 1 + int(hold_rng.integers(1, 6)), lease))
            clock.step(1.0)
        snapshot = service.snapshot()
        assert snapshot["timed_out"] > 50 and snapshot["revoked"] > 0
        assert snapshot["allocated"] > 200


class TestPeekBatch:
    def test_an_expiring_entry_does_not_shadow_its_processors_next_request(self):
        service, clock = make_service(max_batch=2)
        submit(service, 0, timeout=1.0)
        expected = [submit(service, 0), submit(service, 1)]
        submit(service, 2)  # beyond max_batch once the first entry is gone
        clock.step(1.0)
        peeked = service.peek_batch()
        assert service.queue_depth == 4  # read-only: nothing expired yet
        solved = [lease.request for lease in service.run_one_cycle()]
        assert len(peeked) == len(solved) == 2
        assert all(a is b is c for a, b, c in zip(peeked, solved, expected))
        assert service.metrics.timed_out == 1 and service.queue_depth == 1

    def test_without_deadlines_it_is_the_fifo_batch(self):
        service, _ = make_service(max_batch=3)
        requests = [submit(service, processor) for processor in (4, 4, 5, 6, 7)]
        assert [id(r) for r in service.peek_batch()] == [
            id(requests[0]), id(requests[2]), id(requests[3])
        ]
