"""The one invariant set every harness checks a live service against.

Four statements, each a real raise (so ``python -O`` cannot strip it):

1. **No severed allocation survives a reconcile** — after
   :meth:`~repro.service.server.AllocationService.reconcile_faults`
   (every cycle starts with one) no held circuit crosses a failed
   component and no held resource is itself failed;
2. **No failed link carries a circuit**;
3. **Lease conservation** — busy resources and active leases plus the
   background load the service found busy stay in one-to-one
   correspondence across every grant, release and revocation;
4. **Request conservation** — every admitted request is granted, timed
   out, withdrawn by its submitter, or still queued.

:func:`checked_cycle` adds Theorem 2 on the degraded network: a tick of
the service's engine grants exactly as many requests as a cold optimal solve
of the same batch.  Every tick of ``run_service`` runs through it;
``run_service``, the hypothesis state machine in
``tests/service/test_stateful.py`` and the fabric driver all raise the
one :class:`InvariantError`.
"""

from __future__ import annotations

from repro.core.scheduler import OptimalScheduler
from repro.service.server import AllocationService, Lease

__all__ = ["InvariantError", "check_service", "checked_cycle"]


class InvariantError(Exception):
    """A hard invariant of the allocation stack was violated."""


def check_service(service: AllocationService, *, cancelled: int = 0) -> None:
    """Raise unless the four state invariants hold right after a cycle.

    ``cancelled`` is the number of queued requests their submitters
    withdrew (``Ticket.cancel``) — the one term of request conservation
    the service does not count itself.
    """
    mrsin = service.mrsin
    severed = mrsin.severed_resources()
    if severed:
        raise InvariantError(
            f"severed allocations {severed} survived reconcile_faults"
        )
    for link in mrsin.network.links:
        if link.failed and link.occupied:
            raise InvariantError(
                f"failed link {link.index} still carries a circuit"
            )
    busy = sum(1 for res in mrsin.resources if res.busy)
    background = len(service.background)
    if busy != service.active_leases + background:
        raise InvariantError(
            f"{busy} busy resources vs {service.active_leases} active "
            f"leases + {background} background — a lease leaked"
        )
    metrics = service.metrics
    settled = (
        metrics.allocated + metrics.timed_out + cancelled + service.queue_depth
    )
    if metrics.submitted != settled:
        raise InvariantError(
            f"request lost: {metrics.submitted} admitted, {settled} accounted "
            f"for (allocated {metrics.allocated} + timed out "
            f"{metrics.timed_out} + cancelled {cancelled} + queued "
            f"{service.queue_depth})"
        )


def checked_cycle(service: AllocationService, *, cancelled: int = 0) -> list[Lease]:
    """One ``run_one_cycle()`` under the cold-vs-warm differential.

    Reconciles first (the cycle would, and the cold solve must see the
    network the tick will), solves ``peek_batch()`` cold, runs the
    cycle, compares the grant counts and then calls
    :func:`check_service`.  Returns the cycle's new leases.
    """
    service.reconcile_faults()
    batch = service.peek_batch()
    cold = len(OptimalScheduler().schedule(service.mrsin, batch)) if batch else 0
    leases = service.run_one_cycle()
    if len(leases) != cold:
        raise InvariantError(
            f"warm engine allocated {len(leases)} of {len(batch)} requests "
            f"but a cold optimal solve on the same degraded network "
            f"allocates {cold}"
        )
    check_service(service, cancelled=cancelled)
    return leases
