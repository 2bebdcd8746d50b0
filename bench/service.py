"""The two in-process workloads: ``service-ticks`` and ``service-churn``.

One seeded tick-by-tick load model (:class:`Drive`) runs against two
backends that expose the same few calls:

- :class:`ServiceBackend` — the program's ``AllocationService``, ticked
  by hand with ``run_one_cycle()`` exactly as the chaos harness does;
  this is what the end-to-end numbers time;
- :class:`EngineBackend` — a bare ``MRSIN`` + ``KernelFlowEngine`` fed
  the same request/release/fault stream, which attributes the service's
  cycle time to the ``core`` and ``flows`` layers underneath it.

Time inside the service is virtual (one unit per tick, so deadlines
and the fault schedule are a pure function of the seed) while
``perf_ns`` is real, so the public ``snapshot()["tick_timing"]`` still
carries measured phase durations.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from dataclasses import dataclass
from typing import Any

from repro.core.incremental import KernelFlowEngine
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.scheduler import OptimalScheduler
from repro.core.transform import transformation1
from repro.faults.injector import FaultInjector, apply_event
from repro.networks import omega
from repro.service.clock import Clock
from repro.service.server import AllocationService, Lease, ServiceConfig
from repro.util.counters import OpCounter
from repro.util.rng import spawn_rngs

from bench.spec import Check, RunResult
from bench.stats import headline, whole_window
from bench.trace import Tracer

__all__ = ["CHURN", "TICKS", "Drive", "EngineBackend", "Load", "ServiceBackend", "run"]


@dataclass(frozen=True)
class Load:
    """The tick-level traffic model (a pure function of a seed).

    Every tick each idle processor requests with probability
    ``request_p``; a granted lease is held ``hold`` ticks (drawn
    uniformly from the closed range).  With ``two_phase`` the circuit
    is released one tick after the grant (``end_transmission``) and the
    processor may request again while the resource stays busy until
    ``release``.
    """

    ports: int
    request_p: float
    hold: tuple[int, int]
    two_phase: bool = False
    cancel_p: float = 0.0
    deadline_ticks: float | None = None
    fault_rate: float = 0.0
    mean_repair: float = 6.0


TICKS = Load(ports=256, request_p=0.9, hold=(3, 3))
#: Faults are all transient so the network's capacity is stationary
#: over a window of any length; the deadline is long enough that only
#: the deadline *scan* runs (a timeout would be a failed operation).
CHURN = Load(
    ports=128, request_p=0.35, hold=(1, 3), two_phase=True,
    cancel_p=0.05, deadline_ticks=64.0, fault_rate=0.25,
)
LOADS = {"service-ticks": TICKS, "service-churn": CHURN}

WARMUP_TICKS = 40
#: Ticks of the cold-vs-warm differential run on the stream's prefix.
CHECK_TICKS = 40
#: Ticks replayed on the bare engine for the core/flows attribution.
REPLAY_TICKS = 300
#: Every this many replay ticks the batch is also solved on a freshly
#: compiled kernel (compile and solve timed separately).
KERNEL_SAMPLE_EVERY = 10
#: Tick at which the traced pass reads its exactly-repeating counts.
COUNT_TICK = 200
MAX_DRAIN_TICKS = 400


class TickClock(Clock):
    """Virtual ``now()`` (the tick number), real ``perf_ns()``."""

    def __init__(self) -> None:
        self.tick = 0

    def now(self) -> float:
        return float(self.tick)

    async def sleep(self, dt: float) -> None:
        raise RuntimeError("the benchmark ticks the service by hand")

    def perf_ns(self) -> int:
        return time.perf_counter_ns()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
#: A grant as the drive sees it: ``(processor, key, handle)``; ``key``
#: is never reused within a run (a revoked lease's pending release must
#: not hit the resource's next holder), ``handle`` is what release
#: calls take.
Grant = tuple[int, int, Any]


class ServiceBackend:
    """The program's allocation service, ticked from outside."""

    def __init__(
        self, load: Load, fault_seed: Any, tracer: Tracer, *, check_cold: bool = False
    ) -> None:
        self.load = load
        self.tracer = tracer
        self.clock = TickClock()
        self.mrsin = MRSIN(omega(load.ports))
        self.service = AllocationService(
            self.mrsin,
            config=ServiceConfig(queue_limit=4 * load.ports, default_timeout=None),
            clock=self.clock,
        )
        self.injector = _injector(load, self.mrsin, fault_seed)
        self.tasks: dict[int, asyncio.Task[Lease]] = {}
        self.fault_events = 0
        self.revoked = 0
        # The chaos harness's differential, on demand: a cold optimal
        # solve of the batch the warm tick is about to serve.
        self.cold = OptimalScheduler() if check_cold else None
        self.cold_mismatches = 0
        self.lease_leaks = 0

    async def admit(self, processors: list[int]) -> None:
        """Start one ``acquire()`` per processor and let each enqueue."""
        with self.tracer.span("service.acquire"):
            for processor in processors:
                self.tasks[processor] = asyncio.ensure_future(self.service.acquire(
                    Request(processor), timeout=self.load.deadline_ticks
                ))
            await asyncio.sleep(0)

    async def settle(self) -> None:
        """Let the tick's winners receive their leases."""
        await asyncio.sleep(0)

    def cycle(self) -> list[Grant]:
        cold_count = -1
        if self.cold is not None:
            batch = self.service.peek_batch()
            cold_count = len(self.cold.schedule(self.mrsin, batch)) if batch else 0
        with self.tracer.span("service.run_one_cycle"):
            leases = self.service.run_one_cycle()
        if self.cold is not None:
            self.cold_mismatches += len(leases) != cold_count
            busy = sum(1 for resource in self.mrsin.resources if resource.busy)
            self.lease_leaks += busy != self.service.active_leases
        for lease in leases:
            del self.tasks[lease.request.processor]
        return [(lease.request.processor, lease.lease_id, lease) for lease in leases]

    def end_tx(self, lease: Lease) -> None:
        with self.tracer.span("service.end_transmission"):
            self.service.end_transmission(lease)

    def release(self, lease: Lease) -> None:
        with self.tracer.span("service.release"):
            self.service.release(lease)

    def cancel(self, processor: int) -> None:
        self.tasks.pop(processor).cancel()

    def faults(self, now: float) -> list[int]:
        """Apply due fault events; keys of the leases they revoked."""
        if self.injector is None:
            return []
        with self.tracer.span("faults.inject"):
            events = self.injector.inject(self.service, now)
        with self.tracer.span("service.reconcile_faults"):
            revoked = self.service.reconcile_faults()
        self.fault_events += len(events)
        self.revoked += len(revoked)
        return [lease.lease_id for lease in revoked]

    def expired(self) -> list[int]:
        """Processors whose queued acquire ended without a lease."""
        gone = [p for p, task in self.tasks.items() if task.done()]
        for processor in gone:
            self.tasks.pop(processor).exception()  # retrieved, so never logged
        return gone

    def advance(self) -> None:
        self.clock.tick += 1

    async def close(self) -> None:
        """Abandon the service: cancel what is still queued."""
        for task in self.tasks.values():
            task.cancel()
        await asyncio.gather(*self.tasks.values(), return_exceptions=True)
        self.tasks.clear()
        await self.service.close()


class EngineBackend:
    """A bare MRSIN + warm kernel engine under the same stream.

    Mirrors what the service does around the engine — FIFO queue,
    deadline expiry, batch selection, reconcile-by-revoke — with
    nothing else, so its per-call times are the ``core`` layer's share
    of a service cycle.
    """

    def __init__(self, load: Load, fault_seed: Any, tracer: Tracer) -> None:
        self.load = load
        self.tracer = tracer
        self.mrsin = MRSIN(omega(load.ports))
        self.counter = OpCounter()
        self.engine = KernelFlowEngine(self.mrsin, counter=self.counter)
        self.injector = _injector(load, self.mrsin, fault_seed)
        self.queue: list[tuple[int, float]] = []
        self.now = 0
        self._expired: list[int] = []
        self.solves = 0
        self._keys = itertools.count()
        #: Resource index -> key of the grant holding it.
        self._holder: dict[int, int] = {}

    async def admit(self, processors: list[int]) -> None:
        wait = self.load.deadline_ticks
        deadline = self.now + wait if wait is not None else float("inf")
        self.queue += [(processor, deadline) for processor in processors]

    async def settle(self) -> None:
        return None

    def cycle(self) -> list[Grant]:
        network = self.mrsin.network
        self._expired = [p for p, deadline in self.queue if deadline <= self.now]
        self.queue = [entry for entry in self.queue if entry[1] > self.now]
        batch = []
        for processor, _ in self.queue:
            link = network.processor_link(processor)
            if not link.occupied and network.link_usable(link):
                batch.append(Request(processor))
        if not batch:
            return []
        self.solves += 1
        if self.solves % KERNEL_SAMPLE_EVERY == 0:
            self._sample_cold_kernel(batch)
        with self.tracer.span("core.engine_schedule"):
            mapping = self.engine.schedule(batch)
        with self.tracer.span("core.apply_mapping"):
            self.mrsin.apply_mapping(mapping)
        with self.tracer.span("core.engine_commit"):
            self.engine.commit(mapping)
        served = {a.request.processor: a.resource.index for a in mapping.assignments}
        self.queue = [entry for entry in self.queue if entry[0] not in served]
        grants = []
        for processor, resource in served.items():
            self._holder[resource] = next(self._keys)
            grants.append((processor, self._holder[resource], resource))
        return grants

    def _sample_cold_kernel(self, batch: list[Request]) -> None:
        """Compile this tick's Transformation-1 network and solve it cold."""
        problem = transformation1(self.mrsin, batch)
        with self.tracer.span("flows.kernel_compile"):
            compiled = problem.net.compile()
        with self.tracer.span("flows.kernel_solve"):
            compiled.solve(problem.source, problem.sink)

    def end_tx(self, resource: int) -> None:
        self.mrsin.complete_transmission(resource)
        self.engine.note_transmission_end(resource)

    def release(self, resource: int) -> None:
        self.mrsin.complete_service(resource)
        self.engine.note_release(resource)
        del self._holder[resource]

    def cancel(self, processor: int) -> None:
        self.queue = [entry for entry in self.queue if entry[0] != processor]

    def faults(self, now: float) -> list[int]:
        if self.injector is None:
            return []
        for event in self.injector.events_until(now):
            apply_event(self.mrsin, event)
        severed = self.mrsin.severed_resources()
        for resource in severed:
            self.mrsin.revoke(resource)
            self.engine.note_release(resource)
        return [self._holder.pop(resource) for resource in severed]

    def expired(self) -> list[int]:
        return self._expired

    def advance(self) -> None:
        self.now += 1

    async def close(self) -> None:
        return None


def _injector(load: Load, mrsin: MRSIN, fault_seed: Any) -> FaultInjector | None:
    if not load.fault_rate:
        return None
    return FaultInjector(
        mrsin, rng=fault_seed, fault_rate=load.fault_rate,
        transient_fraction=1.0, mean_repair=load.mean_repair,
    )


# ----------------------------------------------------------------------
# The load model
# ----------------------------------------------------------------------
@dataclass
class _Held:
    processor: int
    handle: Any
    #: Still holding its circuit (so its processor cannot request).
    transmitting: bool = True


class Drive:
    """Seeded tick-by-tick traffic against one backend."""

    def __init__(self, load: Load, seed: int, tracer: Tracer, backend_type: type, **kw: Any) -> None:
        arrivals, holds, cancels, faults = spawn_rngs(seed, 4)
        self.load = load
        self.backend = backend_type(load, faults, tracer, **kw)
        self._arrivals, self._holds, self._cancels = arrivals, holds, cancels
        self.tick = 0
        self.idle: set[int] = set(range(load.ports))
        self.waiting: set[int] = set()
        self.live: dict[int, _Held] = {}
        self._end_tx_at: dict[int, list[int]] = {}
        self._release_at: dict[int, list[int]] = {}
        self.admitting = True
        #: Ticks stepped before :meth:`drain` stopped the arrivals.
        self.live_ticks = 0
        self.counts = {"offered": 0, "granted": 0, "cancelled": 0, "unserved": 0}
        #: Grants per tick, from tick 0 — the stream's fingerprint.
        self.grants_by_tick: list[int] = []

    async def step(self) -> int:
        """One tick: lease lifecycle, faults, admissions, one cycle."""
        load, backend, tick = self.load, self.backend, self.tick
        for key in self._end_tx_at.pop(tick, ()):
            held = self.live.get(key)
            if held is not None:
                backend.end_tx(held.handle)
                held.transmitting = False
                self.idle.add(held.processor)
        for key in self._release_at.pop(tick, ()):
            held = self.live.pop(key, None)
            if held is not None:
                backend.release(held.handle)
                if held.transmitting:
                    self.idle.add(held.processor)
        for key in backend.faults(float(tick)):
            held = self.live.pop(key, None)
            if held is not None and held.transmitting:
                self.idle.add(held.processor)

        candidates = sorted(self.idle) if self.admitting else []
        wants = self._arrivals.random(len(candidates)) < load.request_p
        gives_up = self._cancels.random(len(candidates)) < load.cancel_p
        submitted = [p for p, want in zip(candidates, wants) if want]
        doomed = {p for p, want, quits in zip(candidates, wants, gives_up) if want and quits}
        await backend.admit(submitted)
        # A client that gives up while queued: cancelled before any
        # tick could serve it.
        for processor in sorted(doomed):
            backend.cancel(processor)
        submitted = [p for p in submitted if p not in doomed]
        self.counts["cancelled"] += len(doomed)
        self.idle.difference_update(submitted)
        self.waiting.update(submitted)
        self.counts["offered"] += len(submitted) + len(doomed)

        grants = backend.cycle()
        await backend.settle()
        for processor, key, handle in grants:
            self.waiting.discard(processor)
            self.live[key] = _Held(processor, handle)
            hold = int(self._holds.integers(load.hold[0], load.hold[1] + 1))
            if load.two_phase:
                self._end_tx_at.setdefault(tick + 1, []).append(key)
                self._release_at.setdefault(tick + 1 + hold, []).append(key)
            else:
                self._release_at.setdefault(tick + hold, []).append(key)
        for processor in backend.expired():
            self.waiting.discard(processor)
            self.idle.add(processor)
            self.counts["unserved"] += 1
        self.counts["granted"] += len(grants)
        self.grants_by_tick.append(len(grants))
        backend.advance()
        self.tick += 1
        return len(grants)

    async def drain(self) -> bool:
        """Stop admitting; tick until nothing is queued or held."""
        self.admitting = False
        self.live_ticks = self.tick
        for _ in range(MAX_DRAIN_TICKS):
            if not self.waiting and not self.live:
                return True
            await self.step()
        return False


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
async def _set_up(load: Load, seed: int) -> tuple[Drive, float]:
    """Build network, service and cold engine; warm up.  Seconds taken."""
    began = time.perf_counter()
    drive = Drive(load, seed, Tracer(enabled=False), ServiceBackend)
    for _ in range(WARMUP_TICKS):
        await drive.step()
    return drive, time.perf_counter() - began


async def _pass(
    workload: str, seed: int, seconds: float, tracer: Tracer, setups: int
) -> RunResult:
    load = LOADS[workload]
    setup_times = []
    for _ in range(setups - 1):
        drive, took = await _set_up(load, seed)
        setup_times.append(took)
        await drive.backend.close()
    drive, took = await _set_up(load, seed)
    setup_times.append(took)
    service = drive.backend.service
    drive.backend.tracer = tracer

    before = dict(drive.counts)
    snap_before = service.snapshot()
    tick_ms: list[tuple[float, float]] = []
    grant_events: list[tuple[float, int]] = []
    counted: dict[str, Any] = {}
    began = time.perf_counter()
    while (start := time.perf_counter()) - began < seconds:
        with tracer.span("tick", op=drive.tick):
            granted = await drive.step()
        end = time.perf_counter()
        tick_ms.append((start - began, (end - start) * 1e3))
        grant_events.append((end - began, granted))
        if tracer.enabled and drive.tick == WARMUP_TICKS + COUNT_TICK:
            counted = _counts(drive, snap_before)
    wall = time.perf_counter() - began
    ticks = len(tick_ms)
    window = {k: drive.counts[k] - before[k] for k in before}
    snap = service.snapshot()
    if tracer.enabled and not counted:  # window shorter than COUNT_TICK ticks
        counted = _counts(drive, snap_before)
    drive.backend.tracer = Tracer(enabled=False)
    drained = await drive.drain()
    totals = drive.counts
    busy = sum(1 for resource in drive.backend.mrsin.resources if resource.busy)
    active, queued = service.active_leases, service.queue_depth
    await drive.backend.close()

    end_to_end = headline(tick_ms, grant_events, seconds)
    end_to_end["setup_s"] = statistics.median(setup_times)
    layers: dict[str, float] = {}
    checks = [
        Check("drained to quiescence", drained, f"after {drive.tick} ticks"),
        Check(
            "offered == granted + unserved + cancelled",
            totals["offered"] == totals["granted"] + totals["unserved"] + totals["cancelled"],
            str(totals),
        ),
        Check(
            "no lease or busy resource left after the drain",
            active == 0 and busy == 0 and queued == 0,
            f"active_leases={active} busy={busy} queue={queued}",
        ),
        await _cold_differential(load, seed),
    ]
    if tracer.enabled:
        layers, replay_check = await _layers(
            load, seed, tracer, drive, snap_before, snap, counted, window["offered"]
        )
        checks.append(replay_check)
        layers.update(whole_window(tick_ms, window["granted"], wall, window["unserved"]))
    return RunResult(
        workload=workload,
        params={
            "network": f"omega-{load.ports}", "drive": "closed, in-process run_one_cycle()",
            "request_p": load.request_p, "hold_ticks": list(load.hold),
            "two_phase": load.two_phase, "cancel_p": load.cancel_p,
            "deadline_ticks": load.deadline_ticks, "fault_rate_per_tick": load.fault_rate,
            "window_s": seconds, "ticks_in_window": ticks,
        },
        attempted=window["granted"] + window["unserved"],
        failed=window["unserved"],
        end_to_end=end_to_end,
        layers=layers,
        checks=checks,
        samples={"ticks": ticks, "grants": window["granted"], "setups": setups},
    )


def _counts(drive: Drive, snap_before: dict[str, Any]) -> dict[str, Any]:
    """Counts that repeat exactly for a seed: read at a fixed tick."""
    snap = drive.backend.service.snapshot()
    ticks = snap["ticks"] - snap_before["ticks"]
    scans = snap["solver_ops"].get("arc_scan", 0) - snap_before["solver_ops"].get("arc_scan", 0)
    return {
        "service.ticks": ticks,
        "service.batch_mean": (snap["allocated"] - snap_before["allocated"]) / ticks,
        "service.queue_depth_mean": (
            snap["mean_queue_depth"] * snap["ticks"]
            - snap_before["mean_queue_depth"] * snap_before["ticks"]
        ) / ticks,
        "service.engine_builds": snap["engine_builds"],
        "flows.kernel_arc_ops_per_solve": scans / ticks,
        "faults.events": drive.backend.fault_events,
        "faults.revoked": drive.backend.revoked,
    }


async def _cold_differential(load: Load, seed: int) -> Check:
    """Warm == cold and busy == leases on the stream's first ticks."""
    drive = Drive(load, seed, Tracer(enabled=False), ServiceBackend, check_cold=True)
    for _ in range(CHECK_TICKS):
        await drive.step()
    backend = drive.backend
    await backend.close()
    return Check(
        f"warm grants == cold OptimalScheduler grants, busy == leases ({CHECK_TICKS} ticks)",
        backend.cold_mismatches == 0 and backend.lease_leaks == 0,
        f"mismatching ticks={backend.cold_mismatches} leak ticks={backend.lease_leaks}",
    )


async def _layers(
    load: Load, seed: int, tracer: Tracer, drive: Drive,
    snap_before: dict[str, Any], snap: dict[str, Any], counted: dict[str, Any],
    offered: int,
) -> tuple[dict[str, float], Check]:
    """Per-layer numbers of a traced pass, plus the engine replay."""
    sizes = (64, 128, 256)
    rounds = []
    for _ in range(3):  # fastest of three: one collector pause doubles a single sample
        began = time.perf_counter_ns()
        for ports in sizes:
            omega(ports)
        rounds.append(time.perf_counter_ns() - began)
    build_ms = min(rounds) / len(sizes) / 1e6

    replay = Drive(load, seed, tracer, EngineBackend)
    for _ in range(min(WARMUP_TICKS + REPLAY_TICKS, drive.live_ticks)):
        await replay.step()
    same = replay.grants_by_tick == drive.grants_by_tick[: replay.tick]

    core_us = sum(
        tracer.mean_us(name)
        for name in ("core.engine_schedule", "core.apply_mapping", "core.engine_commit")
    )
    cycle_us = tracer.mean_us("service.run_one_cycle")
    timing = snap["tick_timing"]
    phases_ns = sum(timing[p]["total_ns"] for p in timing) - sum(
        snap_before["tick_timing"][p]["total_ns"] for p in timing
    )
    cycles_ns = sum(tracer.durations_us("service.run_one_cycle")) * 1e3
    layers = {
        "service.submit_us": sum(tracer.durations_us("service.acquire")) / max(offered, 1),
        "service.release_us": tracer.mean_us("service.release"),
        "service.cycle_ms_p50": tracer.p_us("service.run_one_cycle", 50) / 1e3,
        "service.cycle_ms_p99": tracer.p_us("service.run_one_cycle", 99) / 1e3,
        "service.reconcile_us_p50": timing["reconcile"]["p50_ns"] / 1e3,
        "service.solve_us_p50": timing["solve"]["p50_ns"] / 1e3,
        "service.apply_us_p50": timing["apply"]["p50_ns"] / 1e3,
        "service.overhead_share": 1 - core_us / cycle_us if cycle_us else 0.0,
        "core.engine_schedule_us_p50": tracer.p_us("core.engine_schedule", 50),
        "core.engine_commit_us_p50": tracer.p_us("core.engine_commit", 50),
        "core.apply_mapping_us_p50": tracer.p_us("core.apply_mapping", 50),
        "flows.kernel_solve_us": tracer.p_us("flows.kernel_solve", 50),
        "flows.kernel_compile_ms": tracer.p_us("flows.kernel_compile", 50) / 1e3,
        "networks.build_ms": build_ms,
        "faults.inject_us": (
            sum(tracer.durations_us("faults.inject")) / max(drive.backend.fault_events, 1)
        ),
        "faults.reconcile_us_p50": tracer.p_us("service.reconcile_faults", 50),
        **counted,
    }
    check = Check(
        "reconcile + solve + apply within 10% of run_one_cycle; "
        f"engine replay grants == service grants ({len(replay.grants_by_tick)} ticks)",
        same and cycles_ns > 0 and abs(phases_ns - cycles_ns) <= 0.10 * cycles_ns,
        f"phases {phases_ns / 1e6:.1f} ms vs cycles {cycles_ns / 1e6:.1f} ms, replay equal={same}",
    )
    return layers, check


def run(
    workload: str, seed: int, seconds: float, tracer: Tracer, setups: int
) -> RunResult:
    """One pass of ``service-ticks`` or ``service-churn``."""
    return asyncio.run(_pass(workload, seed, seconds, tracer, setups))
