"""Chaos harness: fault/repair churn against a live allocation service.

:func:`run_chaos` drives an :class:`~repro.service.server.AllocationService`
for thousands of manually stepped ticks under a
:class:`~repro.service.clock.VirtualClock`, with a seeded
:class:`~repro.faults.injector.FaultInjector` failing and repairing
links, switchboxes, and resources mid-flight, Poisson request arrivals
queueing through ``submit``, and leases walking the full
transmit → serve → release lifecycle.  Every tick it enforces three
hard invariants (real exceptions, so they survive ``python -O``):

1. **No circuit over a failed component** — after
   :meth:`~repro.service.server.AllocationService.reconcile_faults`,
   no severed allocation remains and no failed link is occupied;
2. **No lease leaks** — busy resources and active leases stay in
   one-to-one correspondence across every revocation;
3. **Warm == cold** — the warm-start engine allocates exactly as many
   requests per tick as a cold from-scratch optimal solve on the same
   degraded network (Theorem 2 on the surviving subgraph).

A violation raises :class:`ChaosInvariantError`; a clean run returns a
:class:`ChaosReport`.  ``python -m repro chaos`` wraps this, and CI
runs a 2000-tick omega-32 schedule on every push.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.scheduler import OptimalScheduler
from repro.faults.injector import FaultInjector
from repro.networks import build_network
from repro.service.clock import VirtualClock
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    Lease,
    ServiceConfig,
)
from repro.util.rng import spawn_rngs
from repro.util.tables import Table

__all__ = ["ChaosInvariantError", "ChaosReport", "run_chaos"]


class ChaosInvariantError(Exception):
    """A hard invariant of the fault model was violated mid-churn."""


@dataclass
class ChaosReport:
    """Outcome of one clean chaos run (invariants all held)."""

    topology: str
    ports: int
    ticks: int
    seed: int
    allocated: int
    released: int
    revoked: int
    rejected: int
    faults_injected: int
    repairs_applied: int
    differential_checks: int
    max_concurrent_failures: int

    def render(self) -> str:
        """ASCII summary table."""
        table = Table(
            ["metric", "value"],
            title=f"chaos: {self.topology}-{self.ports}, "
                  f"{self.ticks} ticks, seed={self.seed}",
        )
        for key in (
            "allocated", "released", "revoked", "rejected",
            "faults_injected", "repairs_applied", "differential_checks",
            "max_concurrent_failures",
        ):
            table.add_row(key, getattr(self, key))
        table.add_row("invariants", "all held")
        return table.render()


def run_chaos(
    *,
    topology: str = "omega",
    ports: int = 32,
    ticks: int = 2000,
    seed: int = 0,
    rate: float = 0.4,
    fault_rate: float = 0.08,
    transient_fraction: float = 0.85,
    mean_repair: float = 6.0,
    check_every: int = 1,
) -> ChaosReport:
    """Run the chaos schedule; returns a report or raises on violation.

    Parameters
    ----------
    topology, ports:
        System under churn, built by
        :func:`repro.networks.build_network` (which rejects an unknown
        name or a size the topology cannot realise).
    ticks:
        Scheduling cycles to drive (the virtual clock advances one
        time unit per tick).
    seed:
        Master seed; arrivals, holds, and the fault schedule are all
        derived streams, so a run is a pure function of its arguments.
    rate:
        Poisson request arrivals per processor per tick.
    fault_rate, transient_fraction, mean_repair:
        Forwarded to :class:`~repro.faults.injector.FaultInjector`.
    check_every:
        Run the cold-vs-warm differential every this many ticks
        (1 = every tick; raise it to trade confidence for speed).
    """
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")
    if not rate >= 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    clock = VirtualClock()
    arrival_rng, fault_rng, hold_rng = spawn_rngs(seed, 3)
    mrsin = MRSIN(build_network(topology, ports))
    n_procs = mrsin.n_processors
    # No deadlines: deadline expiry inside run_one_cycle would shrink
    # the queue between peek_batch() and the tick, skewing the
    # differential.  Backpressure still applies via the bounded queue.
    config = ServiceConfig(
        queue_limit=max(4 * n_procs, 8),
        default_timeout=None,
    )
    service = AllocationService(mrsin, config=config, clock=clock)
    injector = FaultInjector(
        mrsin, rng=fault_rng, fault_rate=fault_rate,
        transient_fraction=transient_fraction, mean_repair=mean_repair,
    )
    cold = OptimalScheduler()
    held: list[tuple[int, int, Lease]] = []  # (end_tx_tick, release_tick, lease)
    allocated = released = rejected = differential_checks = 0
    max_failures = 0
    for tick in range(ticks):
        now = float(tick)
        # 1. Arrivals: fire-and-forget tickets (grants are read off the
        #    cycle's return value below, so the callback has nothing to do).
        for _ in range(int(arrival_rng.poisson(rate * n_procs))):
            proc = int(arrival_rng.integers(0, n_procs))
            try:
                service.submit(Request(proc), on_done=lambda _ticket: None)
            except AllocationRejected:
                rejected += 1  # off the full queue
        # 2. Lease lifecycle: end transmissions and releases due now.
        surviving: list[tuple[int, int, Lease]] = []
        for end_tx, rel, lease in held:
            if lease.revoked:
                continue  # the service reclaimed it at a tick boundary
            if tick >= rel:
                service.release(lease)
                released += 1
                continue
            if tick >= end_tx and lease.transmitting:
                service.end_transmission(lease)
            surviving.append((end_tx, rel, lease))
        held = surviving
        # 3. Fault/repair events due this tick.
        injector.inject(service, now)
        # 4. Reconcile, then enforce the invariants.
        service.reconcile_faults()
        _check_invariants(service, mrsin, tick)
        failed = mrsin.failed_components()
        max_failures = max(
            max_failures,
            len(failed["links"]) + len(failed["switchboxes"]) + len(failed["resources"]),
        )
        # 5. The tick itself, with the cold-vs-warm differential.
        if tick % check_every == 0:
            batch = service.peek_batch()
            cold_count = len(cold.schedule(mrsin, batch)) if batch else 0
            differential_checks += 1
        else:
            batch, cold_count = None, -1
        leases = service.run_one_cycle()
        if batch is not None and len(leases) != cold_count:
            raise ChaosInvariantError(
                f"tick {tick}: warm-start allocated {len(leases)} of "
                f"{len(batch)} requests but a cold optimal solve on the "
                f"same degraded network allocates {cold_count}"
            )
        for lease in leases:
            hold = int(hold_rng.integers(1, 6))
            held.append((tick + 1, tick + 1 + hold, lease))
            allocated += 1
        clock.step(1.0)
    snap = service.metrics.snapshot()
    return ChaosReport(
        topology=topology,
        ports=ports,
        ticks=ticks,
        seed=seed,
        allocated=allocated,
        released=released,
        revoked=snap["revoked"],
        rejected=rejected,
        faults_injected=snap["faults_injected"],
        repairs_applied=snap["repairs_applied"],
        differential_checks=differential_checks,
        max_concurrent_failures=max_failures,
    )


def _check_invariants(service: AllocationService, mrsin: MRSIN, tick: int) -> None:
    """Invariants 1 and 2, as real raises (``python -O`` safe)."""
    severed = mrsin.severed_resources()
    if severed:
        raise ChaosInvariantError(
            f"tick {tick}: severed allocations {severed} survived reconcile_faults"
        )
    for link in mrsin.network.links:
        if link.failed and link.occupied:
            raise ChaosInvariantError(
                f"tick {tick}: failed link {link.index} still carries a circuit"
            )
    busy = sum(1 for res in mrsin.resources if res.busy)
    if busy != service.active_leases:
        raise ChaosInvariantError(
            f"tick {tick}: {busy} busy resources vs {service.active_leases} "
            f"active leases — a lease leaked across a revocation"
        )
