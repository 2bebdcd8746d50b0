"""Deterministic finite-horizon driver for the allocation service.

Builds an :class:`AllocationService` over a fresh MRSIN, runs a seeded
open-loop arrival process against it under a
:class:`~repro.service.clock.VirtualClock`, and returns the metrics
snapshot.  There is **no wall time anywhere**: arrivals, service
times, tick boundaries, and deadlines all live on the virtual clock,
so the same seed reproduces the identical snapshot, byte for byte —
the property the `serve` CLI and the tests rely on.

The workload is :mod:`repro.sim.workload`'s: its
:func:`~repro.sim.workload.build_mrsin` and
:func:`~repro.sim.workload.draw_request`, which `sample_instance` uses
too, build the system and draw each request from a
:class:`~repro.sim.workload.WorkloadSpec`.  The driver adds only the
*online* part (Poisson arrivals per processor, exponential service
times, transmission-then-release lease lifecycle) that the one-shot
snapshots cannot express.

Fault churn is the same run with ``fault_rate`` > 0: a seeded
:class:`~repro.faults.injector.FaultInjector` fails and repairs links,
switchboxes and resources, and the service revokes the leases a fault
severs.  With or without faults every tick runs through
:func:`~repro.service.invariants.checked_cycle`, the shared invariant
set plus the warm == cold differential, so Theorem 2 is checked on a
network that is both loaded and degraded.

Like the fabric cell, the driver is a plain function with no event
loop: the run is one heap of timed events (tick, arrival, end of
transmission, release) played through the service's synchronous calls,
with :meth:`VirtualClock.step` moving time between them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.faults.injector import FaultInjector, check_repair_model
from repro.service.clock import VirtualClock
from repro.service.invariants import InvariantError, checked_cycle
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    Lease,
    ServiceConfig,
    ServiceFaulted,
    Ticket,
)
from repro.sim.workload import WorkloadSpec, build_mrsin, draw_request
from repro.util.rng import spawn_rngs
from repro.util.tables import Table

__all__ = ["ServiceRunResult", "run_service"]


@dataclass
class ServiceRunResult:
    """Outcome of one finite-horizon service run.

    Attributes
    ----------
    snapshot:
        The service metrics snapshot (see
        :meth:`~repro.service.server.AllocationService.snapshot`).
    horizon, rate, seed:
        The run parameters, echoed for table titles.
    network:
        Topology name of the MRSIN served.
    """

    snapshot: dict[str, Any]
    horizon: float
    rate: float
    seed: int
    network: str

    @property
    def allocated(self) -> int:
        """Requests granted within the horizon."""
        return self.snapshot["allocated"]

    def render(self) -> str:
        """The metrics table plus a parameter header."""
        title = (
            f"service: {self.network}, rate={self.rate:g}/processor, "
            f"horizon={self.horizon:g}, seed={self.seed}"
        )
        table = Table(["metric", "value"], title=title)
        order = (
            "ticks", "submitted", "allocated", "released", "timed_out",
            "rejected_full", "mean_batch", "mean_wait", "mean_queue_depth",
            "max_queue_depth",
        )
        if self.snapshot["faults_injected"]:
            order += ("revoked", "faults_injected", "repairs_applied")
        for key in order:
            value = self.snapshot[key]
            table.add_row(key, f"{value:.3f}" if isinstance(value, float) else value)
        for label, count in self.snapshot["wait_histogram"].items():
            table.add_row(f"wait {label}", count)
        table.add_row("solver_instructions", f"{self.snapshot['solver_instructions']:.0f}")
        if self.allocated:
            per_alloc = self.snapshot["solver_instructions"] / self.allocated
            table.add_row("instructions_per_allocation", f"{per_alloc:.1f}")
        return table.render()


def run_service(
    spec: WorkloadSpec,
    *,
    rate: float = 0.5,
    horizon: float = 200.0,
    seed: int = 0,
    tick_interval: float = 1.0,
    max_batch: int | None = None,
    queue_limit: int = 64,
    request_timeout: float | None = 16.0,
    transmission_time: float = 0.1,
    mean_service: float = 1.0,
    fault_rate: float = 0.0,
    transient_fraction: float = 0.85,
    mean_repair: float = 6.0,
) -> ServiceRunResult:
    """Run the allocation service for ``horizon`` virtual time units.

    Parameters
    ----------
    spec:
        Workload description; the driver uses its topology builder,
        port count, resource-type mix, priority levels, and
        ``occupied_circuits`` (pre-established background load).  The
        request/free densities do not apply — arrivals are online.
    rate:
        Poisson arrival rate per processor (requests per time unit).
    request_timeout:
        Deadline every request is submitted with (``None`` waits
        forever).
    transmission_time, mean_service:
        Model item 5's two phases: the circuit is held for
        ``transmission_time``, the resource for an additional
        exponential service time of mean ``mean_service``.
    fault_rate, transient_fraction, mean_repair:
        Forwarded to :class:`~repro.faults.injector.FaultInjector`;
        ``fault_rate`` 0 runs without one.  The fault schedule is one
        more seeded stream, spawned after the clients', so turning
        faults on moves no arrival, hold or background draw.

    Returns a :class:`ServiceRunResult`; identical arguments produce
    an identical result.  A broken invariant ends the run at once as
    :class:`~repro.service.invariants.InvariantError` naming the tick
    time; any other error a scheduling cycle raises ends it as
    :class:`ServiceFaulted` (the original is ``__cause__``).
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"arrival rate must be positive and finite, got {rate}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not transmission_time >= 0:
        raise ValueError(f"transmission_time must be >= 0, got {transmission_time}")
    if not mean_service >= 0:
        raise ValueError(f"mean_service must be >= 0, got {mean_service}")
    check_repair_model(transient_fraction, mean_repair)
    config = ServiceConfig(
        tick_interval=tick_interval,
        max_batch=max_batch,
        queue_limit=queue_limit,
        default_timeout=request_timeout,
    )
    clock = VirtualClock()
    setup_rng, *client_rngs, fault_rng = spawn_rngs(
        seed, 2 + spec.builder(spec.n_ports).n_processors
    )
    mrsin = build_mrsin(spec, setup_rng)
    service = AllocationService(mrsin, config=config, clock=clock)
    injector: FaultInjector | None = None
    if fault_rate != 0:  # NaN and < 0 are the injector's to refuse
        injector = FaultInjector(
            mrsin, rng=fault_rng, fault_rate=fault_rate,
            transient_fraction=transient_fraction, mean_repair=mean_repair,
        )

    # One heap of (time, delayed, seq, kind, payload).  ``seq`` is
    # registration order, so simultaneous events fire first-registered-
    # first; a zero delay (``delayed`` False) is the rest of the current
    # instant and runs ahead of anything else due at it.  The tick is
    # always armed, so the heap is never empty.
    events: list[tuple[float, bool, int, str, Any]] = []
    seq = itertools.count()

    def after(delay: float, kind: str, payload: Any = None) -> None:
        heapq.heappush(events, (clock.now() + delay, delay > 0, next(seq), kind, payload))

    granted: list[tuple[Lease, float]] = []  # (lease, service time), this cycle's

    def on_done(ticket: Ticket, hold: float) -> None:
        if ticket.lease is not None:  # else timed out; the metrics counted it
            granted.append((ticket.lease, hold))

    after(tick_interval, "tick")
    for processor, rng in enumerate(client_rngs):
        after(float(rng.exponential(1.0 / rate)), "arrival", processor)
    while events[0][0] <= horizon:
        when, _, _, kind, payload = heapq.heappop(events)
        _step_to(clock, when)
        if kind == "tick":
            if injector is not None:
                injector.inject(service, when)
            try:
                checked_cycle(service)
            except InvariantError as exc:
                raise InvariantError(f"tick at t={when:g}: {exc}") from exc
            except Exception as exc:
                raise ServiceFaulted(f"service faulted during run: {exc!r}") from exc
            # The tick re-arms before the leases it granted, so a
            # transmission as long as the interval ends after the next solve.
            after(tick_interval, "tick")
            for lease, hold in granted:
                after(transmission_time, "sent", (lease, hold))
            granted.clear()
        elif kind == "arrival":
            # Open loop: a processor may have several requests queued (the
            # MRSIN schedules at most one per cycle), which is what
            # exercises admission control.  All of a request's randomness
            # is drawn here, in arrival order from the processor's stream.
            rng = client_rngs[payload]
            request = draw_request(spec, payload, rng)
            hold = float(rng.exponential(mean_service))
            after(float(rng.exponential(1.0 / rate)), "arrival", payload)
            try:
                service.submit(request, on_done=partial(on_done, hold=hold))
            except AllocationRejected:
                pass  # shed at the queue bound; the metrics counted it
        elif kind == "sent":
            lease, hold = payload
            if not lease.revoked:  # else a fault reclaimed it already
                service.end_transmission(lease)
                after(hold, "release", lease)
        elif not payload.revoked:
            service.release(payload)
    # Whatever is still queued or held at the horizon stays in the
    # snapshot: submitted == allocated + timed_out + queue_depth.
    return ServiceRunResult(
        snapshot=service.snapshot(),
        horizon=horizon,
        rate=rate,
        seed=seed,
        network=mrsin.network.name,
    )


def _step_to(clock: VirtualClock, when: float) -> None:
    """``clock.step`` to exactly ``when``, not one ulp beside it.

    ``now + (when - now)`` is only sure to round back to ``when`` when
    ``now >= when / 2`` (the subtraction is then exact — Sterbenz), so
    a longer jump first steps by half of ``when``, which lands there.
    """
    if clock.now() < when / 2:
        clock.step(when / 2)
    clock.step(when - clock.now())
