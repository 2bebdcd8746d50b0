"""Deterministic finite-horizon driver for the allocation service.

Builds an :class:`AllocationService` over a fresh MRSIN, runs a seeded
open-loop arrival process against it under a
:class:`~repro.service.clock.VirtualClock`, and returns the metrics
snapshot.  There is **no wall time anywhere**: arrivals, service
times, tick boundaries, and deadlines all live on the virtual clock,
so the same seed reproduces the identical snapshot, byte for byte —
the property the `serve` CLI and the tests rely on.

The workload rides on :mod:`repro.sim.workload`: a
:class:`~repro.sim.workload.WorkloadSpec` supplies the topology,
resource-type mix, priority levels, and initial circuit occupancy;
the driver adds the *online* part (Poisson arrivals per processor,
exponential service times, transmission-then-release lease lifecycle)
that the one-shot `sample_instance` snapshots cannot express.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.model import MRSIN
from repro.core.requests import DEFAULT_TYPE, Request
from repro.service.clock import Clock, VirtualClock
from repro.service.server import (
    AllocationError,
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    Lease,
    LeaseRevoked,
    ServiceClosed,
    ServiceConfig,
    ServiceFaulted,
)
from repro.sim.workload import WorkloadSpec, occupy_random_circuits
from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import Table

__all__ = ["ServiceRunResult", "acquire_with_retry", "run_service"]


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

    @property
    def mean_wait(self) -> float:
        """Mean queue wait of granted requests."""
        return self.snapshot["mean_wait"]

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
        Deadline each client attaches to ``acquire`` (``None`` waits
        forever).
    transmission_time, mean_service:
        Model item 5's two phases: the circuit is held for
        ``transmission_time``, the resource for an additional
        exponential service time of mean ``mean_service``.

    Returns a :class:`ServiceRunResult`; identical arguments produce
    an identical result.
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"arrival rate must be positive and finite, got {rate}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not transmission_time >= 0:
        raise ValueError(f"transmission_time must be >= 0, got {transmission_time}")
    if not mean_service >= 0:
        raise ValueError(f"mean_service must be >= 0, got {mean_service}")
    config = ServiceConfig(
        tick_interval=tick_interval,
        max_batch=max_batch,
        queue_limit=queue_limit,
        default_timeout=request_timeout,
    )
    return asyncio.run(
        _run(spec, config, rate, horizon, seed, transmission_time, mean_service)
    )


async def acquire_with_retry(
    service: AllocationService,
    request: Request,
    *,
    clock: Clock | None = None,
    rng: int | np.random.Generator | None = None,
    attempts: int = 6,
    base_delay: float = 0.5,
    max_delay: float = 8.0,
    timeout: float | None = None,
) -> Lease:
    """``acquire`` with exponential backoff on rejection/timeout.

    Retries only the *transient* failures — :class:`AllocationRejected`
    (queue full) and :class:`AllocationTimeout` (deadline passed while
    queued) — up to ``attempts`` total tries, sleeping
    ``min(max_delay, base_delay * 2**k)`` scaled by a jitter factor in
    ``[0.5, 1.0)`` between them.  :class:`ServiceClosed` (including
    :class:`~repro.service.server.ServiceFaulted`) and validation
    errors propagate immediately: a closed service will not reopen, so
    backing off would just hide the failure.

    The jitter is *deterministic*: pass a seed (or a prepared
    generator) for ``rng`` and the retry schedule reproduces exactly —
    the same :mod:`repro.util.rng` discipline the rest of the repo
    follows.  ``clock`` defaults to the service's own clock, so
    virtual-time tests control the backoff sleeps too.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if base_delay <= 0:
        raise ValueError(f"base_delay must be positive, got {base_delay}")
    if max_delay < base_delay:
        raise ValueError(f"max_delay {max_delay} < base_delay {base_delay}")
    gen = make_rng(rng)
    sleeper = clock if clock is not None else service.clock
    for attempt in range(attempts):
        try:
            return await service.acquire(request, timeout=timeout)
        except (AllocationRejected, AllocationTimeout):
            if attempt == attempts - 1:
                raise
            delay = min(max_delay, base_delay * 2.0**attempt)
            delay *= 0.5 + 0.5 * float(gen.random())
            await sleeper.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def _build_mrsin(spec: WorkloadSpec, rng: np.random.Generator) -> MRSIN:
    """The driver's initial system state (no pending requests)."""
    net = spec.builder(spec.n_ports)
    if spec.resource_types is not None:
        types = [
            spec.resource_types[i % len(spec.resource_types)]
            for i in range(net.n_resources)
        ]
    else:
        types = None
    if spec.priority_levels > 1:
        prefs = [
            int(rng.integers(1, spec.priority_levels + 1))
            for _ in range(net.n_resources)
        ]
    else:
        prefs = None
    mrsin = MRSIN(
        net,
        resource_types=types,
        preferences=prefs,
        max_priority=max(spec.priority_levels, 1),
        max_preference=max(spec.priority_levels, 1),
    )
    occupy_random_circuits(net, mrsin, spec.occupied_circuits, rng)
    return mrsin


async def _run(
    spec: WorkloadSpec,
    config: ServiceConfig,
    rate: float,
    horizon: float,
    seed: int,
    transmission_time: float,
    mean_service: float,
) -> ServiceRunResult:
    clock = VirtualClock()
    setup_rng, *client_rngs = spawn_rngs(seed, 1 + spec.builder(spec.n_ports).n_processors)
    mrsin = _build_mrsin(spec, setup_rng)
    service = AllocationService(mrsin, config=config, clock=clock)
    releasers: set[asyncio.Task] = set()
    async with service:
        clients = [
            asyncio.ensure_future(
                _client(
                    service, clock, processor=p, rng=client_rngs[p], spec=spec,
                    rate=rate, transmission_time=transmission_time,
                    mean_service=mean_service, releasers=releasers,
                )
            )
            for p in range(mrsin.n_processors)
        ]
        await clock.run_until(horizon)
        # Snapshot at the horizon, before teardown fails the still-queued
        # requests — so submitted == allocated + timed_out + queue_depth.
        snapshot = service.snapshot()
        for task in clients:
            task.cancel()
        ended = await asyncio.gather(*clients, return_exceptions=True)
    for task in releasers:
        task.cancel()
    await asyncio.gather(*releasers, return_exceptions=True)
    if service.fault is not None:
        # The tick loop died mid-run: the snapshot is from a broken
        # service, so surface the fault instead of returning it.
        failure = ServiceFaulted(f"service faulted during run: {service.fault!r}")
        raise failure from service.fault
    for outcome in ended:
        # Cancellation is how every healthy client ends; anything else
        # killed its arrival stream, and the snapshot describes a run
        # that offered less than it was asked to.
        if isinstance(outcome, Exception):
            raise outcome
    return ServiceRunResult(
        snapshot=snapshot,
        horizon=horizon,
        rate=rate,
        seed=seed,
        network=mrsin.network.name,
    )


async def _client(
    service: AllocationService,
    clock: VirtualClock,
    *,
    processor: int,
    rng: np.random.Generator,
    spec: WorkloadSpec,
    rate: float,
    transmission_time: float,
    mean_service: float,
    releasers: set[asyncio.Task],
) -> None:
    """One processor's open-loop arrival stream.

    Arrivals are *open loop*: each spawns an independent task that
    queues on ``acquire`` — a processor may have several requests
    waiting (the MRSIN schedules at most one per cycle; the rest queue
    up, which is what exercises admission control and backpressure).
    All randomness is drawn here, in arrival order from this
    processor's private stream, so the spawned tasks are pure.
    """
    while True:
        await clock.sleep(float(rng.exponential(1.0 / rate)))
        rtype = (
            DEFAULT_TYPE
            if spec.resource_types is None
            else spec.resource_types[int(rng.integers(0, len(spec.resource_types)))]
        )
        priority = (
            1 if spec.priority_levels == 1
            else int(rng.integers(1, spec.priority_levels + 1))
        )
        hold = float(rng.exponential(mean_service))
        request = Request(processor, resource_type=rtype, priority=priority)
        task = asyncio.ensure_future(
            _handle_request(service, clock, request, transmission_time, hold)
        )
        releasers.add(task)
        task.add_done_callback(releasers.discard)


async def _handle_request(
    service: AllocationService,
    clock: VirtualClock,
    request: Request,
    transmission_time: float,
    hold: float,
) -> None:
    """One request's lifecycle: queue → lease → transmit → serve → free."""
    try:
        lease = await service.acquire(request)
    except AllocationError:
        return  # dropped; the metrics block has already counted it
    try:
        await clock.sleep(transmission_time)
        if lease.active:
            service.end_transmission(lease)
        await clock.sleep(hold)
    except (LeaseRevoked, ServiceClosed):
        return  # revoked by a fault, or torn down at shutdown
    finally:
        _release_quietly(service, lease)


def _release_quietly(service: AllocationService, lease: Lease) -> None:
    """Free the lease if custody is still ours; swallow teardown races.

    Runs in the ``finally`` of every request lifecycle so cancellation
    (driver teardown mid-sleep) cannot strand a granted lease — the
    escape R007 guards against.
    """
    if not lease.active:
        return  # released, revoked, or reclaimed — custody is gone
    try:
        service.release(lease)
    except (LeaseRevoked, ServiceClosed):
        pass  # a fault or shutdown beat us to it
