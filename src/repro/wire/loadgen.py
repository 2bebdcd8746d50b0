"""Open-loop load generation against a :class:`~repro.wire.server.WireServer`.

A closed-loop driver waits for one request to finish before issuing
the next, so the offered load adapts to the server — exactly the
feedback that hides tail latency.  This generator is **open loop**,
like ``repro serve``'s per-processor arrival streams on virtual time,
but against a real server on the wall clock: the arrival schedule is
drawn up front from a seeded RNG (Poisson, bursty on/off, or diurnal
sinusoid), and requests fire at their scheduled instants whether or
not earlier ones completed.
Under overload the queue grows, deadlines fire, and the waiting-time
tail becomes observable — the heavy-traffic regime the resource-
sharing literature reasons about.

Latencies (acquire → LEASE/terminal reply) are recorded in integer
**microseconds** into a :class:`~repro.util.histogram.LatencyHistogram`
— exact counts, log-bucketed, mergeable across runs.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.service.clock import Clock, MonotonicClock
from repro.util.histogram import LatencyHistogram
from repro.util.rng import make_rng
from repro.util.tables import Table
from repro.wire.client import (
    RemoteLease,
    WireClient,
    WireError,
    WireLeaseRevoked,
    WireRejected,
    WireTimeout,
)

__all__ = ["ARRIVAL_PROCESSES", "Arrival", "LoadGenConfig", "LoadGenReport", "arrival_schedule", "run_loadgen"]

#: Microseconds per second — the histogram's unit.
US = 1_000_000

ARRIVAL_PROCESSES: tuple[str, ...] = ("poisson", "bursty", "diurnal")

# Bursty shape: one on/off cycle lasts BURST_PERIOD seconds, of which
# BURST_ON_FRACTION is on at ``rate * BURST_FACTOR`` and the rest is
# silent; on-fraction x factor == 1 keeps the long-run mean at ``rate``.
BURST_FACTOR = 4.0
BURST_ON_FRACTION = 0.25
BURST_PERIOD = 1.0
# Diurnal shape: ``rate(t) = rate * (1 + A sin(2 pi t / period))``;
# A < 1 keeps the instantaneous rate positive.
DIURNAL_PERIOD = 10.0
DIURNAL_AMPLITUDE = 0.8


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, from whom, held for how long."""

    time: float
    processor: int
    hold: float


@dataclass(frozen=True)
class LoadGenConfig:
    """Everything that determines a load-generation run.

    Attributes
    ----------
    rate:
        Aggregate offered load, requests per second (mean; the bursty
        and diurnal processes modulate around it).
    duration:
        Seconds of arrivals to schedule.
    processors:
        Request processor indices are drawn uniformly from
        ``[0, processors)`` — match the served network's port count.
    arrival:
        ``"poisson"`` (memoryless), ``"bursty"`` (on/off modulated
        Poisson: rate × ``BURST_FACTOR`` while on, idle while off), or
        ``"diurnal"`` (sinusoidal rate over ``DIURNAL_PERIOD``,
        thinned).  The two shapes are module constants.
    connections:
        Concurrency knob: client connections to open; requests round-
        robin across them and pipeline within each.
    seed:
        RNG seed (:mod:`repro.util.rng` discipline) — the schedule is
        a pure function of the config.
    request_timeout:
        Per-request deadline in seconds (rides the ACQUIRE frame and
        bounds the reply wait).
    mean_hold:
        Mean lease hold time (exponential): acquire → hold → release.
    transmission:
        Circuit-hold before END_TX (0 skips the END_TX phase).
    """

    rate: float
    duration: float
    processors: int
    arrival: str = "poisson"
    connections: int = 4
    seed: int | None = None
    request_timeout: float | None = 5.0
    mean_hold: float = 0.05
    transmission: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if self.processors < 1:
            raise ValueError(f"processors must be >= 1, got {self.processors}")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"pick one of {ARRIVAL_PROCESSES}"
            )
        if self.connections < 1:
            raise ValueError(f"connections must be >= 1, got {self.connections}")
        if self.request_timeout is not None and not 0 < self.request_timeout < math.inf:
            raise ValueError(
                f"request_timeout must be positive and finite, got {self.request_timeout}"
            )
        if not 0 <= self.mean_hold < math.inf:
            raise ValueError(f"mean_hold must be finite and >= 0, got {self.mean_hold}")
        if not 0 <= self.transmission < math.inf:
            raise ValueError(f"transmission must be finite and >= 0, got {self.transmission}")


def arrival_schedule(config: LoadGenConfig) -> list[Arrival]:
    """The run's full arrival schedule — a pure function of the config.

    All randomness (arrival instants, processors, hold times) is drawn
    here, in schedule order from one seeded stream, so two runs with
    the same config offer byte-identical traffic.
    """
    rng = make_rng(config.seed)
    times = _arrival_times(config, rng)
    return [
        Arrival(
            time=t,
            processor=int(rng.integers(0, config.processors)),
            hold=float(rng.exponential(config.mean_hold)) if config.mean_hold else 0.0,
        )
        for t in times
    ]


def _arrival_times(config: LoadGenConfig, rng: np.random.Generator) -> list[float]:
    if config.arrival == "poisson":
        return _poisson_times(config.rate, config.duration, rng)
    if config.arrival == "bursty":
        return _bursty_times(config, rng)
    return _diurnal_times(config, rng)


def _poisson_times(rate: float, duration: float, rng: np.random.Generator) -> list[float]:
    times: list[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        times.append(t)
        t += float(rng.exponential(1.0 / rate))
    return times


def _bursty_times(config: LoadGenConfig, rng: np.random.Generator) -> list[float]:
    """On/off modulated Poisson: bursts at ``rate * BURST_FACTOR``."""
    on_rate = config.rate * BURST_FACTOR
    on_span = BURST_PERIOD * BURST_ON_FRACTION
    times: list[float] = []
    cycle_start = 0.0
    while cycle_start < config.duration:
        t = cycle_start + float(rng.exponential(1.0 / on_rate))
        while t < min(cycle_start + on_span, config.duration):
            times.append(t)
            t += float(rng.exponential(1.0 / on_rate))
        cycle_start += BURST_PERIOD
    return times


def _diurnal_times(config: LoadGenConfig, rng: np.random.Generator) -> list[float]:
    """Sinusoidal-rate Poisson via thinning against the peak rate."""
    peak = config.rate * (1.0 + DIURNAL_AMPLITUDE)
    times: list[float] = []
    t = float(rng.exponential(1.0 / peak))
    while t < config.duration:
        instantaneous = config.rate * (
            1.0 + DIURNAL_AMPLITUDE
            * math.sin(2.0 * math.pi * t / DIURNAL_PERIOD)
        )
        if float(rng.random()) * peak < instantaneous:
            times.append(t)
        t += float(rng.exponential(1.0 / peak))
    return times


@dataclass
class LoadGenReport:
    """Outcome of one load-generation run.

    ``histogram`` holds acquire latencies in integer microseconds;
    the counters partition the offered requests: ``offered ==
    completed + rejected + timed_out + errors`` (revocations happen
    *after* a completed acquire and are counted separately).
    """

    config: LoadGenConfig
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    errors: int = 0
    revoked: int = 0
    elapsed: float = 0.0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def throughput(self) -> float:
        """Completed acquires per second of run wall-clock."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def latency_ms(self) -> dict[str, float]:
        """p50/p90/p99/p999 acquire latency, in milliseconds."""
        return {
            label: value / 1000.0
            for label, value in self.histogram.percentiles().items()
        }

    def to_json(self) -> dict[str, Any]:
        """JSON-safe summary (what ``repro loadgen --json`` prints)."""
        return {
            "arrival": self.config.arrival,
            "offered_rate": self.config.rate,
            "duration": self.config.duration,
            "seed": self.config.seed,
            "connections": self.config.connections,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "errors": self.errors,
            "revoked": self.revoked,
            "elapsed_sec": self.elapsed,
            "throughput_per_sec": self.throughput,
            "latency_ms": self.latency_ms(),
            "mean_latency_ms": self.histogram.mean / 1000.0,
        }

    def render(self) -> str:
        """ASCII table of the run (CLI output)."""
        table = Table(
            ["metric", "value"],
            title=(
                f"loadgen: {self.config.arrival}, "
                f"{self.config.rate:g} req/s offered, "
                f"{self.config.duration:g}s, seed={self.config.seed}"
            ),
        )
        table.add_row("offered", self.offered)
        table.add_row("completed", self.completed)
        table.add_row("rejected", self.rejected)
        table.add_row("timed_out", self.timed_out)
        table.add_row("errors", self.errors)
        table.add_row("revoked", self.revoked)
        table.add_row("elapsed_sec", f"{self.elapsed:.3f}")
        table.add_row("throughput/sec", f"{self.throughput:.1f}")
        for label, value in self.latency_ms().items():
            table.add_row(f"latency {label} (ms)", f"{value:.3f}")
        table.add_row("latency mean (ms)", f"{self.histogram.mean / 1000.0:.3f}")
        return table.render()


async def run_loadgen(host: str, port: int, config: LoadGenConfig) -> LoadGenReport:
    """Drive the schedule against ``host:port``; returns the report.

    Arrivals are dispatched open-loop: a scheduler task sleeps to each
    arrival instant and fires an independent request task; slow or
    failed requests never delay later arrivals.  Time is the event
    loop's monotonic clock (latency measurement needs real time; the
    *schedule* stays seeded and deterministic).
    """
    schedule = arrival_schedule(config)
    report = LoadGenReport(config=config, offered=len(schedule))
    timer = MonotonicClock()
    clients = [
        WireClient(
            host, port,
            request_timeout=config.request_timeout,
            reconnect_attempts=3,
            rng=make_rng(None if config.seed is None else config.seed + i),
        )
        for i in range(config.connections)
    ]
    try:
        for client in clients:
            await client.connect()
        start = timer.now()
        tasks: set[asyncio.Task[None]] = set()
        for i, arrival in enumerate(schedule):
            delay = (start + arrival.time) - timer.now()
            if delay > 0:
                await timer.sleep(delay)
            task = asyncio.get_running_loop().create_task(
                _one_request(clients[i % len(clients)], arrival, config, timer, report)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        report.elapsed = timer.now() - start
    finally:
        for client in clients:
            await client.close()
    return report


async def _one_request(
    client: WireClient,
    arrival: Arrival,
    config: LoadGenConfig,
    timer: Clock,
    report: LoadGenReport,
) -> None:
    """One request's lifecycle; records its latency and outcome."""
    t0 = timer.now()
    try:
        lease = await client.acquire(
            arrival.processor, timeout=config.request_timeout
        )
    except WireRejected:
        report.rejected += 1
        return
    except WireTimeout:
        report.timed_out += 1
        return
    except WireError:
        report.errors += 1
        return
    latency = timer.now() - t0
    report.histogram.record(max(int(latency * US), 0))
    report.completed += 1
    try:
        if config.transmission > 0:
            await timer.sleep(config.transmission)
            await client.end_transmission(lease)
        if arrival.hold > 0:
            await timer.sleep(arrival.hold)
        await client.release(lease)
    except WireLeaseRevoked:
        report.revoked += 1
    except WireError:
        report.errors += 1
    finally:
        await _abandon(client, lease)


async def _abandon(client: WireClient, lease: RemoteLease) -> None:
    """Best-effort release for lifecycles unwound early.

    Runs in the ``finally`` of every request lifecycle: if the load
    generator is cancelled (deadline or shutdown) while the lease is
    still held, give it back instead of stranding server-side custody
    — the escape R007 guards against.  A lease already released or
    revoked is left alone.
    """
    if not lease.active:
        return
    try:
        await client.release(lease)
    except WireError:
        pass  # connection already gone; the server reclaims on close
