"""Chaos harness: fault/repair churn against a live allocation service.

:func:`run_chaos` drives an :class:`~repro.service.server.AllocationService`
for thousands of manually stepped ticks under a
:class:`~repro.service.clock.VirtualClock`, with a seeded
:class:`~repro.faults.injector.FaultInjector` failing and repairing
links, switchboxes, and resources mid-flight, Poisson request arrivals
queueing through ``submit``, and leases walking the full
transmit → serve → release lifecycle.  Every tick runs through
:func:`repro.service.invariants.checked_cycle` — the shared invariant
set (no circuit over a failed component, no lease leak, no lost
request) plus the warm == cold differential, all real exceptions, so
they survive ``python -O``.

A violation raises :class:`~repro.service.invariants.InvariantError`
naming the tick; a clean run returns a :class:`ChaosReport`.
``python -m repro chaos`` wraps this, and CI runs a 2000-tick omega-32
schedule on every push.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.faults.injector import FaultInjector
from repro.networks import build_network
from repro.service.clock import VirtualClock
from repro.service.invariants import InvariantError, check_service, checked_cycle
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    Lease,
    ServiceConfig,
)
from repro.util.rng import spawn_rngs
from repro.util.tables import Table

__all__ = ["ChaosReport", "run_chaos"]


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
    if not 0 <= rate < math.inf:  # NaN fails both comparisons
        raise ValueError(f"rate must be >= 0 and finite, got {rate}")
    clock = VirtualClock()
    arrival_rng, fault_rng, hold_rng = spawn_rngs(seed, 3)
    mrsin = MRSIN(build_network(topology, ports))
    n_procs = mrsin.n_processors
    # Backpressure is the bounded queue.  No deadlines: CI pins this
    # harness's output from before peek_batch() accounted for them
    # (tests/service/test_invariants.py churns with deadlines on).
    config = ServiceConfig(
        queue_limit=max(4 * n_procs, 8),
        default_timeout=None,
    )
    service = AllocationService(mrsin, config=config, clock=clock)
    injector = FaultInjector(
        mrsin, rng=fault_rng, fault_rate=fault_rate,
        transient_fraction=transient_fraction, mean_repair=mean_repair,
    )
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
        failed = mrsin.failed_components()
        max_failures = max(
            max_failures,
            len(failed["links"]) + len(failed["switchboxes"]) + len(failed["resources"]),
        )
        # 4. The tick itself, under the shared invariant set.
        try:
            if tick % check_every == 0:
                leases = checked_cycle(service)
                differential_checks += 1
            else:
                leases = service.run_one_cycle()
                check_service(service)
        except InvariantError as exc:
            raise InvariantError(f"tick {tick}: {exc}") from exc
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

