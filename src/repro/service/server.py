"""The allocation service: monitor-as-a-service over any MRSIN.

The paper's Section IV monitor runs one flow solve per scheduling
cycle over a static snapshot.  :class:`AllocationService` serves that
cycle *online*: requests queue through ``await acquire(request)`` (or
the synchronous :meth:`AllocationService.submit`, same queue, for
callers with no coroutine to park), a batching loop coalesces
everything pending into **one** max-flow solve per tick
(Transformation 1 over the whole batch), and releases tear circuits
down, so the network state genuinely evolves across cycles.

- **Admission control**: a bounded queue (``queue_limit``, else
  :class:`AllocationRejected`); a deadline per request, checked at tick
  boundaries only so runs are reproducible under a virtual clock (else
  :class:`AllocationTimeout`).  Overload sheds at the queue bound; the
  allocator under load is the same optimal one.
- **One solve path**: every tick solves on one persistent
  Transformation-1 network that survives across ticks
  (:mod:`repro.core.incremental`) — the same allocations as a cold
  ``OptimalScheduler().schedule(mrsin, service.peek_batch())``, which
  is the reference the differential tests compare against per tick.
- **Faults**: a fault severing a held circuit *revokes* the lease at
  the next tick (``lease.revoked`` / ``on_revoke``; touching it later
  raises :class:`LeaseRevoked`) while the service
  keeps allocating; up to ``fault_budget`` consecutive failing cycles
  are retried before :class:`ServiceFaulted`; ``release`` on a closed
  service raises instead of mutating an MRSIN nobody serves.

``docs/architecture.md`` (Layer 6, the fault model) has the full account.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultEvent

from repro.core.incremental import KernelFlowEngine
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.scheduler import OptimalScheduler
from repro.networks.topology import Circuit
from repro.service.clock import Clock, MonotonicClock
from repro.service.metrics import ServiceMetrics
from repro.util.counters import OpCounter

__all__ = [
    "AllocationError",
    "AllocationRejected",
    "AllocationTimeout",
    "AllocationService",
    "Lease",
    "LeaseRevoked",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceFaulted",
    "Ticket",
]


class AllocationError(Exception):
    """Base class for allocation-service failures."""


class AllocationRejected(AllocationError):
    """Admission control bounced the request (queue full)."""


class AllocationTimeout(AllocationError):
    """The request's deadline expired before it could be scheduled."""


class ServiceClosed(AllocationError):
    """The service was closed while the request was queued."""


class ServiceFaulted(ServiceClosed):
    """The tick loop exhausted its fault budget and shut the service.

    A faulted service *is* closed (hence the subclassing): queued
    requests fail with this error instead of the loop dying silently
    (which would leave all queued ``acquire`` calls hanging until
    their deadlines — forever, with no timeout).  The original
    exception is kept on :attr:`AllocationService.fault` and chained
    as ``__cause__``.
    """


class LeaseRevoked(AllocationError):
    """The lease was revoked because a fault severed its allocation.

    Raised by ``release``/``end_transmission`` on a revoked lease;
    holders that set ``lease.on_revoke`` learn about it at revocation
    time instead.
    """


def _check_timeout(timeout: float) -> None:
    """The one rule for a per-request and a configured timeout alike."""
    if not 0 < timeout < math.inf:  # NaN fails both comparisons
        raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the batching loop.

    Attributes
    ----------
    tick_interval:
        Virtual/real seconds between scheduling cycles.
    max_batch:
        Cap on requests entering one solve (``None`` = everything
        pending).  ``max_batch=1`` degenerates to one-request-per-solve
        — the unbatched comparator in ``tests/service/test_driver.py``.
    queue_limit:
        Bounded-queue size for admission control.
    default_timeout:
        Deadline applied when ``acquire`` is called without one
        (``None`` = wait indefinitely); a finite number > 0 otherwise.
    fault_budget:
        How many *consecutive* failing scheduling cycles the tick loop
        absorbs (invalidating the warm engine and retrying next tick)
        before escalating to :class:`ServiceFaulted`.  The default 0
        faults on the first error — the pre-fault-model behaviour.
    """

    tick_interval: float = 1.0
    max_batch: int | None = None
    queue_limit: int = 64
    default_timeout: float | None = None
    fault_budget: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.tick_interval < math.inf:
            raise ValueError(
                f"tick_interval must be positive and finite, got {self.tick_interval}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.default_timeout is not None:
            _check_timeout(self.default_timeout)
        if self.fault_budget < 0:
            raise ValueError(f"fault_budget must be >= 0, got {self.fault_budget}")


@dataclass
class Lease:
    """A granted allocation: one resource, one (initially held) circuit.

    Model item 5's two-phase lifetime maps onto two calls:
    :meth:`AllocationService.end_transmission` releases the circuit
    while the resource keeps serving; :meth:`AllocationService.release`
    frees the resource (tearing down the circuit too if still held).

    A fault that severs the allocation revokes the lease instead:
    ``active`` drops, ``revoked`` rises, and ``on_revoke(lease)`` — the
    holder's push notification, if it set one — is called from the
    revoking cycle.  Touching a revoked lease afterwards raises
    :class:`LeaseRevoked`.
    """

    lease_id: int
    request: Request
    resource: int
    circuit: Circuit
    acquired_at: float
    waited: float
    transmitting: bool = True
    active: bool = True
    revoked: bool = False
    on_revoke: Callable[[Lease], None] | None = field(default=None, repr=False)


@dataclass(eq=False, slots=True)
class Ticket:
    """Completion sink of one synchronous :meth:`AllocationService.submit`.

    Speaks the four ``asyncio.Future`` methods the scheduling cycle
    uses, so a queue entry completes a ticket and an ``acquire()``
    future through the same calls.  ``on_done(ticket)`` runs inside
    the cycle that grants (``lease`` set) or fails (``error`` set) the
    request; :meth:`cancel` withdraws a still-queued request at once
    and does not call it.
    """

    _on_done: Callable[[Ticket], None]
    _unqueue: Callable[[Ticket], None]
    lease: Lease | None = None
    error: BaseException | None = None
    _cancelled: bool = False

    def done(self) -> bool:
        return self._cancelled or self.lease is not None or self.error is not None

    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        if self.done():
            return False
        self._cancelled = True
        self._unqueue(self)
        return True

    def set_result(self, lease: Lease) -> None:
        self.lease = lease
        self._on_done(self)

    def set_exception(self, error: BaseException) -> None:
        self.error = error
        self._on_done(self)


@dataclass(eq=False)
class _Entry:
    """One queued request; ``future`` is its completion sink — the very
    ``asyncio.Future`` an ``acquire()`` awaits, or a :class:`Ticket`.

    ``eq=False``: entries are compared by identity — field-wise
    dataclass equality would deep-compare requests and futures.
    """

    request: Request
    future: Any
    submitted: float
    deadline: float


class AllocationService:
    """Online batched allocation over an :class:`MRSIN`.

    Use as an async context manager (starts/stops the tick loop), or
    drive ticks by hand with :meth:`run_one_cycle` — tests and the
    property suite do the latter for exact control.

    Parameters
    ----------
    mrsin:
        The system to serve.  The service owns its request queue;
        ``mrsin.pending`` stays empty.  Resources already busy are
        background load it did not grant (:attr:`background`).
    config:
        A :class:`ServiceConfig` (defaults are sensible for tests).
    clock:
        Time source; defaults to the event-loop wall clock.  Pass a
        :class:`~repro.service.clock.VirtualClock` for deterministic
        runs.
    """

    def __init__(
        self,
        mrsin: MRSIN,
        *,
        config: ServiceConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.mrsin = mrsin
        self.config = config or ServiceConfig()
        self.clock = clock or MonotonicClock()
        self.counter = OpCounter()
        self.metrics = ServiceMetrics(self.counter, self.config.tick_interval)
        self._scheduler = OptimalScheduler(counter=self.counter)
        self._engine = KernelFlowEngine(mrsin, counter=self.counter)
        self._queue: list[_Entry] = []
        self._leases: dict[int, Lease] = {}
        #: Resources busy before the service existed, until a fault
        #: reclaims them; lease conservation counts them beside leases.
        self.background = {res.index for res in mrsin.resources if res.busy}
        self._ids = itertools.count(1)
        self._loop_task: asyncio.Task | None = None
        self._closed = False
        self.fault: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the background tick loop."""
        self._check_open()
        if self._loop_task is None:
            self._loop_task = asyncio.get_running_loop().create_task(self._tick_loop())

    async def close(self) -> None:
        """Stop the loop and fail all queued requests with ServiceClosed."""
        self._closed = True
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except asyncio.CancelledError:
                pass
            self._loop_task = None
        for entry in self._queue:
            if not entry.future.done():
                entry.future.set_exception(ServiceClosed("service closed"))
        self._queue.clear()

    async def __aenter__(self) -> "AllocationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def _tick_loop(self) -> None:
        interval = self.config.tick_interval
        consecutive_failures = 0
        # Drift-free: a tick is due one interval after the last was
        # *due*, so the sleep shrinks by cycle cost + timer lateness.
        # Under a virtual clock ``now == due`` exactly and every sleep
        # is exactly ``interval``, as in a plain sleep-per-tick loop.
        due = self.clock.now() + interval
        delay = interval
        while True:
            await self.clock.sleep(delay)
            try:
                self.run_one_cycle()
            except Exception as exc:  # CancelledError (close()) passes through
                consecutive_failures += 1
                if consecutive_failures > self.config.fault_budget:
                    # A dying tick loop must not strand queued acquires:
                    # fault the whole service loudly instead.
                    self._fault(exc)
                    return
                # Within budget: assume transient corruption, drop the
                # warm state and retry on the next tick.
                self.metrics.record_tick_retry()
                self._engine.invalidate()
            else:
                consecutive_failures = 0
            # A cycle that overran the interval yields once (delay 0)
            # and re-anchors; missed ticks are never made up in a burst.
            now = self.clock.now()
            delay = max(interval - (now - due), 0.0)
            due = now + delay

    def _fault(self, exc: Exception) -> None:
        """Mark the service faulted and fail everything still queued."""
        self._closed = True
        self.fault = exc
        for entry in self._queue:
            if not entry.future.done():
                failure = ServiceFaulted(f"scheduling cycle raised: {exc!r}")
                failure.__cause__ = exc
                entry.future.set_exception(failure)
        self._queue.clear()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a tick."""
        return len(self._queue)

    @property
    def active_leases(self) -> int:
        """Leases granted and not yet released."""
        return len(self._leases)

    def _check_open(self) -> None:
        """Raise the right error if the service no longer serves."""
        if self.fault is not None:
            failure = ServiceFaulted(f"service faulted: {self.fault!r}")
            failure.__cause__ = self.fault
            raise failure
        if self._closed:
            raise ServiceClosed("service is closed")

    async def acquire(self, request: Request, *, timeout: float | None = None) -> Lease:
        """Queue ``request`` and await its lease.

        Raises ``ValueError`` for a request this system cannot hold
        (:meth:`MRSIN.check_request
        <repro.core.model.MRSIN.check_request>`: unknown processor or
        type, priority above ``max_priority``) or a ``timeout`` that is
        not a finite number > 0,
        :class:`AllocationRejected` immediately when the queue
        is full, :class:`AllocationTimeout` when the deadline (from
        ``timeout`` or the config default) passes before a tick can
        serve it, and :class:`ServiceClosed` if the service shuts down
        first.
        """
        # The awaited future is itself the entry's sink: task.cancel()
        # marks it cancelled at once, so a cycle in the same loop turn
        # skips it, and the done-callback then purges it — an abandoned
        # request can never win a resource nobody will release.
        future = asyncio.get_running_loop().create_future()
        self._admit(request, timeout, future)
        future.add_done_callback(self._unqueue)
        return await future

    def submit(
        self,
        request: Request,
        *,
        timeout: float | None = None,
        on_done: Callable[[Ticket], None],
    ) -> Ticket:
        """:meth:`acquire` without an event loop; returns the ticket.

        Admission errors (:class:`AllocationRejected`, ``ValueError``,
        :class:`ServiceClosed`) raise here; the cycle that grants or
        expires the request, or :meth:`close`, calls ``on_done(ticket)``.
        """
        ticket = Ticket(on_done, self._unqueue)
        self._admit(request, timeout, ticket)
        return ticket

    def _admit(self, request: Request, timeout: float | None, sink: Any) -> None:
        """Validate, apply admission control and queue behind ``sink``."""
        self._check_open()
        self.mrsin.check_request(request)
        if timeout is None:
            timeout = self.config.default_timeout
        else:
            _check_timeout(timeout)
        if len(self._queue) >= self.config.queue_limit:
            self.metrics.record_rejection()
            raise AllocationRejected(
                f"queue full ({self.config.queue_limit} requests waiting)"
            )
        now = self.clock.now()
        self._queue.append(_Entry(
            request=request,
            future=sink,
            submitted=now,
            deadline=now + timeout if timeout is not None else math.inf,
        ))
        self.metrics.record_admission(len(self._queue))

    def _unqueue(self, sink: Any) -> None:
        """Purge a cancelled sink's entry from the queue (else a no-op)."""
        if sink.cancelled():
            self._queue = [entry for entry in self._queue if entry.future is not sink]

    def _check_held(self, lease: Lease) -> None:
        """Raise unless ``lease`` is still held on a serving service."""
        if lease.revoked:
            raise LeaseRevoked(f"lease {lease.lease_id} was revoked by a fault")
        if not lease.active:
            raise AllocationError(f"lease {lease.lease_id} already released")
        self._check_open()

    def release(self, lease: Lease) -> None:
        """Free the lease's resource (and its circuit, if still held).

        Raises :class:`LeaseRevoked` if a fault already revoked the
        lease, :class:`AllocationError` on double release, and
        :class:`ServiceClosed`/:class:`ServiceFaulted` when the service
        no longer serves (mutating an abandoned MRSIN silently would
        mask bugs).
        """
        self._check_held(lease)
        self.mrsin.complete_service(lease.resource)
        self._engine.note_release(lease.resource)
        lease.active = False
        lease.transmitting = False
        del self._leases[lease.lease_id]
        self.metrics.record_release()

    def end_transmission(self, lease: Lease) -> None:
        """Release only the circuit; the resource keeps serving.

        Model item 5: *"The circuit ... can be released once the
        request has been transmitted"* — the processor's input link
        becomes free for its next request.  Raises like
        :meth:`release` on a revoked lease or a closed/faulted
        service.
        """
        self._check_held(lease)
        if not lease.transmitting:
            return
        self.mrsin.complete_transmission(lease.resource)
        self._engine.note_transmission_end(lease.resource)
        lease.transmitting = False

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def apply_fault_event(self, event: FaultEvent) -> bool:
        """Apply one :class:`~repro.faults.injector.FaultEvent` to the MRSIN.

        Returns whether the event changed anything (repairing a healthy
        component, or re-failing a failed one, is a no-op).  Severed
        circuits are *not* reclaimed here — :meth:`reconcile_faults`
        does that at the next tick boundary, mirroring how the paper's
        monitor only observes network status between cycles.
        """
        from repro.faults.injector import apply_event

        changed = apply_event(self.mrsin, event)
        if changed:
            if event.repair:
                self.metrics.record_repair_applied()
            else:
                self.metrics.record_fault_injected()
        return changed

    def reconcile_faults(self) -> list[Lease]:
        """Revoke every lease whose allocation a fault has severed.

        A severed allocation — a failed link or switchbox on the held
        circuit, or the resource itself failed — cannot be released by
        its holder (the component is gone), so the service reclaims it:
        the surviving links and the resource slot go back to the pool,
        the warm engine retracts the unit of flow, and the lease is
        revoked (``lease.on_revoke`` is called).  A severed
        :attr:`background` circuit, which has no lease, is reclaimed and
        leaves the background set.  Returns the leases revoked; called
        at the top of every :meth:`run_one_cycle`.
        """
        revoked: list[Lease] = []
        severed = self.mrsin.severed_resources()
        if not severed:
            return revoked
        by_resource = {lease.resource: lease for lease in self._leases.values()}
        for idx in severed:
            self.mrsin.revoke(idx)
            self._engine.note_release(idx)
            lease = by_resource.get(idx)
            if lease is None:
                self.background.discard(idx)
                continue
            lease.active = False
            lease.transmitting = False
            lease.revoked = True
            if lease.on_revoke is not None:
                lease.on_revoke(lease)
            del self._leases[lease.lease_id]
            self.metrics.record_revocation()
            revoked.append(lease)
        return revoked

    # ------------------------------------------------------------------
    # The scheduling cycle
    # ------------------------------------------------------------------
    def run_one_cycle(self) -> list[Lease]:
        """Run one scheduling cycle synchronously; returns new leases.

        The tick loop calls this every ``tick_interval``; tests may
        call it directly for exact tick control.

        Phase durations (reconcile / solve / apply) are recorded into
        the metrics' timing histograms via ``clock.perf_ns()`` — real
        nanoseconds under the monotonic clock, exactly 0 under a
        virtual clock, so deterministic runs stay byte-identical.
        """
        t_start = self.clock.perf_ns()
        self.reconcile_faults()
        now = self.clock.now()
        self._expire_deadlines(now)
        t_reconciled = self.clock.perf_ns()
        batch = self._select_batch()
        leases: list[Lease] = []
        t_solved = t_reconciled
        if batch:
            requests = [entry.request for entry in batch]
            mapping = self._scheduler.schedule_incremental(
                self.mrsin, requests, engine=self._engine
            )
            t_solved = self.clock.perf_ns()
            # Charge the serial status-read / switch-write overhead the
            # monitor cost model accounts for (once per solve — this is
            # precisely what batching amortises).
            self.counter.charge("transform_arc", len(self.mrsin.network.links))
            self.counter.charge("extract", sum(len(a.path) for a in mapping.assignments))
            circuits = self.mrsin.apply_mapping(mapping)
            self._engine.commit(mapping)
            by_processor = {entry.request.processor: entry for entry in batch}
            served: set[_Entry] = set()
            try:
                for assignment, circuit in zip(mapping.assignments, circuits):
                    entry = by_processor[assignment.request.processor]
                    served.add(entry)
                    if entry.future.done():
                        # The winner's acquire was cancelled while queued:
                        # undo the allocation on the spot instead of leaking
                        # the resource into _leases with no one to release it.
                        self.mrsin.complete_service(assignment.resource.index)
                        self._engine.note_release(assignment.resource.index)
                        continue
                    lease = Lease(
                        lease_id=next(self._ids),
                        request=entry.request,
                        resource=assignment.resource.index,
                        circuit=circuit,
                        acquired_at=now,
                        waited=now - entry.submitted,
                    )
                    self._leases[lease.lease_id] = lease
                    self.metrics.record_allocation(lease.waited)
                    entry.future.set_result(lease)
                    leases.append(lease)
            finally:
                # One rebuild per cycle, not one list.remove per winner.
                if served:
                    self._queue = [e for e in self._queue if e not in served]
        t_applied = self.clock.perf_ns()
        self.metrics.record_tick_timing(
            reconcile_ns=t_reconciled - t_start,
            solve_ns=t_solved - t_reconciled,
            apply_ns=t_applied - t_solved,
        )
        self.metrics.record_tick(batch_size=len(leases), queue_depth=len(self._queue))
        return leases

    def _expire_deadlines(self, now: float) -> None:
        """Reject queued entries whose deadline has passed."""
        alive: list[_Entry] = []
        expired: list[_Entry] = []
        for entry in self._queue:
            if entry.future.cancelled():
                continue
            (expired if entry.deadline <= now else alive).append(entry)
        # Rebuilt before any sink fires: on_done may submit again.
        self._queue = alive
        for entry in expired:
            self.metrics.record_timeout()
            entry.future.set_exception(
                AllocationTimeout(
                    f"request from processor {entry.request.processor} "
                    f"expired after {now - entry.submitted:g} time units"
                )
            )

    def _select_batch(self) -> list[_Entry]:
        """FIFO batch: ≤1 request per processor, usable input links only.

        Mirrors :meth:`MRSIN.schedulable_requests` over the service's
        own queue (model item 5), truncated at ``max_batch``.  A
        processor whose input link is occupied *or failed* stays queued
        — its requests wait out the fault (or their deadline).
        """
        limit = self.config.max_batch or len(self._queue)
        network = self.mrsin.network
        processor_link, link_usable = network.processor_link, network.link_usable
        batch: list[_Entry] = []
        seen: set[int] = set()
        for entry in self._queue:
            if len(batch) >= limit:
                break
            if entry.future.done():
                # Cancelled while queued (the eager done-callback runs
                # via call_soon, so the entry may still be here).
                continue
            proc = entry.request.processor
            if proc in seen:
                continue
            link = processor_link(proc)
            if link.occupied or not link_usable(link):
                continue
            seen.add(proc)
            batch.append(entry)
        return batch

    def peek_batch(self) -> list[Request]:
        """The requests the next cycle would feed the solver (read-only).

        :func:`repro.service.invariants.checked_cycle` computes a cold
        schedule on exactly the batch the warm tick is about to solve.
        Entries whose deadline the cycle would expire first are left
        out, so the two agree with or without deadlines.  Call
        :meth:`reconcile_faults` first if faults may have landed since
        the last tick.
        """
        now = self.clock.now()
        queue = self._queue
        self._queue = [entry for entry in queue if entry.deadline > now]
        try:
            return [entry.request for entry in self._select_batch()]
        finally:
            self._queue = queue

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Current metrics snapshot plus live queue/lease/fault gauges."""
        snap = self.metrics.snapshot()
        snap["queue_depth"] = self.queue_depth
        snap["active_leases"] = self.active_leases
        snap["utilization"] = self.mrsin.utilization()
        failed = self.mrsin.failed_components()
        snap["failed_links"] = len(failed["links"])
        snap["failed_switchboxes"] = len(failed["switchboxes"])
        snap["failed_resources"] = len(failed["resources"])
        snap["engine_builds"] = self._engine.builds
        snap["engine_warm_ticks"] = self._engine.warm_ticks
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocationService({self.mrsin.network.name!r}, "
            f"queue={self.queue_depth}, leases={self.active_leases})"
        )
