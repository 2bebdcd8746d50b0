"""Stateful property testing of the admission seam, with no event loop.

A hypothesis rule-based state machine drives ``AllocationService.submit``
on a ``VirtualClock`` through arbitrary interleavings of submit, ticket
cancel, tick, end-of-transmission, release, fault and repair — the seam
``run_service`` (fault churn included) and the fabric cell stand on — against
a reference model that learns about the service only the way a client
can: its ticket callbacks and ``lease.on_revoke``.  After every step:

- lease conservation: busy resources == ``active_leases`` == the
  model's lease set (a grant or a revocation the model was not told
  about breaks the equality);
- request conservation: every term of ``submitted == allocated +
  timed_out + cancelled + queue_depth`` equals the model's count;

and every tick runs under the shared invariant set
(``repro.service.invariants``).  An attended tick goes through
``checked_cycle`` — no severed allocation survives, no failed link
carries a circuit, no lease or request is lost, and (Theorem 2 on the
degraded network) the tick grants exactly as many requests as a cold
``OptimalScheduler`` allocates on the same batch, deadlines or not.
``checked_cycle`` reconciles before its cold solve, which would hide a
``run_one_cycle`` that forgot to; an unattended tick therefore runs the
bare cycle, as the service's own tick loop does, with ``check_service``
after it.

Fabric rules (kill-cell, rejoin) are left for a later PR.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import MRSIN, Request
from repro.faults import FaultEvent
from repro.networks import benes, gamma, omega
from repro.service.clock import VirtualClock
from repro.service.invariants import check_service, checked_cycle
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    LeaseRevoked,
    ServiceConfig,
)

PORTS = 8
QUEUE_LIMIT = 6


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.service = None

    @rule(kind=st.sampled_from(["omega", "benes", "gamma"]), max_batch=st.sampled_from([None, 3]))
    @precondition(lambda self: self.service is None)
    def build(self, kind, max_batch):
        self.clock = VirtualClock()
        self.mrsin = MRSIN({"omega": omega, "benes": benes, "gamma": gamma}[kind](PORTS))
        self.service = AllocationService(
            self.mrsin,
            config=ServiceConfig(queue_limit=QUEUE_LIMIT, max_batch=max_batch),
            clock=self.clock,
        )
        self.pending = {}  # ticket -> deadline
        self.held = {}  # lease_id -> Lease
        self.revoked = []
        self.granted = self.timed_out = self.cancelled = self.admitted = 0

    # -- what a client is told ------------------------------------------
    def _done(self, ticket):
        del self.pending[ticket]
        if ticket.lease is None:
            assert isinstance(ticket.error, AllocationTimeout)
            self.timed_out += 1
            return
        self.granted += 1
        ticket.lease.on_revoke = self._revoked
        self.held[ticket.lease.lease_id] = ticket.lease

    def _revoked(self, lease):
        assert lease.revoked and not lease.active
        del self.held[lease.lease_id]
        self.revoked.append(lease)

    def _held(self, idx):
        return list(self.held.values())[idx % len(self.held)]

    # -- rules ----------------------------------------------------------
    @rule(proc=st.integers(0, PORTS - 1), timeout=st.sampled_from([None, None, 1.0, 2.0]))
    @precondition(lambda self: self.service is not None)
    def submit(self, proc, timeout):
        try:
            ticket = self.service.submit(Request(proc), timeout=timeout, on_done=self._done)
        except AllocationRejected:
            assert self.service.queue_depth == QUEUE_LIMIT
            return
        self.admitted += 1
        self.pending[ticket] = self.clock.now() + (timeout or float("inf"))

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.service is not None and self.pending)
    def cancel_ticket(self, idx):
        ticket = list(self.pending)[idx % len(self.pending)]
        assert ticket.cancel() and ticket.cancelled()
        assert not ticket.cancel()  # already done: a no-op
        del self.pending[ticket]
        self.cancelled += 1

    @rule(attended=st.booleans())
    @precondition(lambda self: self.service is not None)
    def tick(self, attended):
        now = self.clock.now()
        before = self.granted
        if attended:
            leases = checked_cycle(self.service, cancelled=self.cancelled)
        else:
            # As the service's own tick loop runs it: nobody reconciles
            # on the cycle's behalf.
            leases = self.service.run_one_cycle()
            check_service(self.service, cancelled=self.cancelled)
        assert self.granted - before == len(leases)
        assert all(deadline > now for deadline in self.pending.values())
        self.clock.step(1.0)

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.service is not None and self.held)
    def end_transmission(self, idx):
        lease = self._held(idx)
        self.service.end_transmission(lease)
        assert not lease.transmitting and lease.active

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.service is not None and self.held)
    def release(self, idx):
        lease = self.held.pop(self._held(idx).lease_id)
        self.service.release(lease)
        assert not lease.active and not lease.revoked

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.service is not None and self.revoked)
    def touch_revoked_lease(self, idx):
        lease = self.revoked[idx % len(self.revoked)]
        for touch in (self.service.release, self.service.end_transmission):
            try:
                touch(lease)
            except LeaseRevoked:
                continue
            raise AssertionError("a revoked lease was accepted back")

    @rule(
        kind=st.sampled_from(["link", "switchbox", "resource"]),
        idx=st.integers(0, 200),
        repair=st.booleans(),
    )
    @precondition(lambda self: self.service is not None)
    def fault_or_repair(self, kind, idx, repair):
        network = self.mrsin.network
        if kind == "link":
            target = idx % len(network.links)
        elif kind == "switchbox":
            boxes = [(s, b) for s, stage in enumerate(network.stages) for b in range(len(stage))]
            target = boxes[idx % len(boxes)]
        else:
            target = idx % len(self.mrsin.resources)
        self.service.apply_fault_event(
            FaultEvent(time=self.clock.now(), kind=kind, target=target, repair=repair)
        )

    @rule(idx=st.integers(0, 30), hop=st.integers(0, 30))
    @precondition(lambda self: self.service is not None and self.held)
    def sever_held_lease(self, idx, hop):
        # Random faults rarely land on a held circuit; aim one.
        lease = self._held(idx)
        if lease.transmitting:
            links = lease.circuit.links
            event = FaultEvent(self.clock.now(), "link", links[hop % len(links)].index)
        else:
            event = FaultEvent(self.clock.now(), "resource", lease.resource)
        self.service.apply_fault_event(event)  # False if it was aimed here before
        assert lease.resource in self.mrsin.severed_resources()

    @rule()
    @precondition(lambda self: self.service is not None)
    def reconcile(self):
        revoked = self.service.reconcile_faults()
        assert all(lease in self.revoked for lease in revoked)

    # -- invariants -----------------------------------------------------
    @invariant()
    def leases_are_conserved(self):
        if self.service is None:
            return
        busy = sum(res.busy for res in self.mrsin.resources)
        assert busy == self.service.active_leases == len(self.held)
        assert all(lease.active and not lease.revoked for lease in self.held.values())

    @invariant()
    def requests_are_conserved(self):
        if self.service is None:
            return
        snap = self.service.snapshot()
        assert snap["submitted"] == self.admitted
        assert snap["allocated"] == self.granted
        assert snap["timed_out"] == self.timed_out
        assert snap["queue_depth"] == len(self.pending)
        assert snap["revoked"] == len(self.revoked)


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
