"""Clocks for the allocation service: wall-time and virtual.

The service's batching loop never reads wall time directly; it asks a
:class:`Clock` for ``now()`` and awaits ``sleep(dt)``.  Production runs
use :class:`MonotonicClock` (the asyncio event-loop clock).  Tests and
the deterministic drivers use :class:`VirtualClock`, which only moves
when explicitly advanced — a finite-horizon run is then a pure
function of its seeds, with no wall-time in any code path.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time

__all__ = [
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "perf_counter_ns",
    "process_time_ns",
]


def perf_counter_ns() -> int:
    """Wall-clock nanoseconds for *measurement only* (never scheduling).

    The sanctioned wall-time read: R002 confines clock access to this
    module so no scheduling decision can depend on it.  Benchmarks and
    the fabric broker use it to report elapsed seconds; nothing derived
    from it may feed back into which request gets which resource.
    """
    return time.perf_counter_ns()


def process_time_ns() -> int:
    """CPU nanoseconds consumed by this process, for measurement only.

    The fabric's cells and broker report their per-round compute cost
    with this (``RoundOutcome.critical_ns`` / ``broker_ns``): wall time
    includes whatever the host spent running something else, process
    CPU time does not, so ``bench/fabric.py`` can split a round's wall
    time into cell CPU, broker CPU and waiting.
    """
    return time.process_time_ns()


class Clock:
    """Abstract time source: ``now()`` plus awaitable ``sleep(dt)``."""

    def now(self) -> float:
        """Current time, in seconds (arbitrary epoch)."""
        raise NotImplementedError

    async def sleep(self, dt: float) -> None:
        """Suspend the calling task for ``dt`` time units."""
        raise NotImplementedError

    def perf_ns(self) -> int:
        """High-resolution nanoseconds for duration measurement.

        Virtual clocks return virtual time, so durations of purely
        synchronous work are exactly 0 and deterministic runs stay
        byte-identical; the monotonic clock returns real wall
        nanoseconds.  Used by the service's per-tick timing breakdown
        (:meth:`~repro.service.metrics.ServiceMetrics.record_tick_timing`).
        """
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time, as kept by the running asyncio event loop."""

    def now(self) -> float:
        return asyncio.get_event_loop().time()

    async def sleep(self, dt: float) -> None:
        await asyncio.sleep(max(dt, 0.0))

    def perf_ns(self) -> int:
        return time.perf_counter_ns()


class VirtualClock(Clock):
    """Deterministic simulated time for tests and the drivers.

    Every in-process driver in ``src/`` (``run_service``, fault churn
    included, and the fabric cell) is synchronous and moves time with
    :meth:`step` alone.  ``sleep`` / :meth:`run_until` / :meth:`advance` are the fake
    the tests drive ``acquire()`` and the tick loop with; nothing in
    ``src/`` calls them.  ``sleep`` parks the calling task on a heap of
    ``(wake_time, tie)`` entries; sleepers are woken strictly in
    ``(wake_time, registration order)`` order, one at a time, with the
    event loop drained between wake-ups so a woken task runs to its
    next ``await`` before the clock moves again.  Given deterministic
    task code, a run is fully reproducible.
    """

    #: Event-loop iterations granted after each wake-up so that chains
    #: of dependent tasks (sleeper → tick → future resolution → client)
    #: settle inside one virtual instant.
    DRAIN_ROUNDS = 32

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._tie = itertools.count()
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    async def sleep(self, dt: float) -> None:
        if dt <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self._now + dt, next(self._tie), future))
        await future

    def perf_ns(self) -> int:
        """Virtual now in nanoseconds: synchronous work measures 0.

        Durations taken between two ``perf_ns()`` calls with no
        intervening clock advance are exactly zero, so snapshots of
        virtual-clock runs (the determinism tests' byte-identical
        comparisons) are unaffected by host speed.
        """
        return int(self._now * 1_000_000_000)

    @property
    def pending_sleepers(self) -> int:
        """Tasks currently parked on this clock."""
        return len(self._sleepers)

    async def run_until(self, deadline: float) -> None:
        """Advance virtual time to ``deadline``, waking due sleepers.

        Sleepers due at or before ``deadline`` fire in order; tasks
        that go back to sleep within the window are honoured too (the
        heap is re-examined after every wake-up).
        """
        # Let freshly created tasks run to their first await so their
        # sleeps are registered before we examine the heap.
        await self._drain()
        while self._sleepers and self._sleepers[0][0] <= deadline:
            wake, _, future = heapq.heappop(self._sleepers)
            self._now = max(self._now, wake)
            if not future.cancelled():
                future.set_result(None)
            await self._drain()
        self._now = max(self._now, deadline)
        await self._drain()

    async def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (see :meth:`run_until`)."""
        await self.run_until(self._now + dt)

    def step(self, dt: float) -> None:
        """Move ``now()`` to exactly where :meth:`advance` would, without
        an event loop.  Wakes no sleeper: for the synchronous drivers,
        which park nothing on the clock."""
        self._now = max(self._now, self._now + dt)

    async def _drain(self) -> None:
        for _ in range(self.DRAIN_ROUNDS):
            await asyncio.sleep(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:g}, sleepers={len(self._sleepers)})"
