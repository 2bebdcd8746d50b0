"""Golden allocation traces: the service's grants are pinned byte for byte.

A seeded, hand-ticked :class:`AllocationService` stream — transient
faults from a :class:`FaultInjector`, two-phase leases, 5 % cancelled
acquires and short deadlines — is hashed tick by tick.  The digests
below were recorded on the commit *before* grants and releases were
made O(path) (hop-table circuit switching, scan-free admission and
release), so any change to which request gets which resource over
which links, to revocation, or to expiry order fails here.  On the same
stream every warm tick must grant exactly as many requests as a cold
:class:`OptimalScheduler` solve of the same batch (Theorem 2).
"""

import asyncio
import hashlib

import pytest

from repro.core import MRSIN, Request
from repro.core.scheduler import OptimalScheduler
from repro.faults import FaultInjector
from repro.networks import benes, clos, omega
from repro.service.clock import VirtualClock
from repro.service.server import AllocationService, ServiceConfig
from repro.util.rng import spawn_rngs

TICKS = 320
REQUEST_P = 0.5
CANCEL_P = 0.05
DEADLINE_TICKS = 3.0
FAULT_RATE = 0.4
MEAN_REPAIR = 5.0
COUNTERS = (
    "ticks", "submitted", "allocated", "released", "timed_out", "rejected_full",
    "revoked", "faults_injected", "repairs_applied", "max_queue_depth",
)

#: name -> (builder, seed, sha256 of the trace, final counters).
GOLDEN = {
    "omega-64": (
        lambda: omega(64), 17,
        "4f3151622ae003253f66262d3294e1a1f735fd6132a29bd55b057ddffbffc2d0",
        {"ticks": 320, "submitted": 8223, "allocated": 6805, "released": 6721,
         "timed_out": 1011, "rejected_full": 0, "revoked": 20,
         "faults_injected": 141, "repairs_applied": 140, "max_queue_depth": 49},
    ),
    "benes-16": (
        lambda: benes(16), 23,
        "5123f69c62d63b4d93f062cca2dde4da523e08b89bfb17b3e9e50358793e61a8",
        {"ticks": 320, "submitted": 1959, "allocated": 1600, "released": 1559,
         "timed_out": 253, "rejected_full": 0, "revoked": 26,
         "faults_injected": 112, "repairs_applied": 110, "max_queue_depth": 15},
    ),
    "clos-16": (
        lambda: clos(8, 2, 8), 29,
        "de6562c924748f2e13160d1cf63b1d3fd139aa85f973c7cecad369c3c0a5c9c9",
        {"ticks": 320, "submitted": 1929, "allocated": 1552, "released": 1510,
         "timed_out": 277, "rejected_full": 0, "revoked": 26,
         "faults_injected": 141, "repairs_applied": 140, "max_queue_depth": 16},
    ),
}


async def _trace(network, seed):
    """Run the stream; returns (digest, counters, warm/cold mismatch ticks)."""
    arrivals, holds, cancels, faults = spawn_rngs(seed, 4)
    mrsin = MRSIN(network)
    clock = VirtualClock()
    service = AllocationService(
        mrsin, config=ServiceConfig(queue_limit=4 * mrsin.n_processors), clock=clock
    )
    injector = FaultInjector(
        mrsin, rng=faults, fault_rate=FAULT_RATE,
        transient_fraction=1.0, mean_repair=MEAN_REPAIR,
    )
    cold = OptimalScheduler()
    digest = hashlib.sha256()
    idle = set(range(mrsin.n_processors))
    tasks = {}  # processor -> (queued acquire, tick it was submitted)
    live = {}  # lease_id -> lease
    holding = set()  # lease ids whose circuit still occupies their processor's link
    end_tx_at, release_at = {}, {}
    mismatches = []
    for tick in range(TICKS):
        for lease_id in end_tx_at.pop(tick, ()):
            if lease_id in live:
                service.end_transmission(live[lease_id])
                holding.discard(lease_id)
                idle.add(live[lease_id].request.processor)
        for lease_id in release_at.pop(tick, ()):
            lease = live.pop(lease_id, None)
            if lease is not None:
                service.release(lease)
        injector.inject(service, float(tick))
        revoked = [lease.lease_id for lease in service.reconcile_faults()]
        for lease_id in revoked:
            lease = live.pop(lease_id)
            if lease_id in holding:
                holding.discard(lease_id)
                idle.add(lease.request.processor)

        candidates = sorted(idle)
        wants = arrivals.random(len(candidates)) < REQUEST_P
        quits = cancels.random(len(candidates)) < CANCEL_P
        for processor, want in zip(candidates, wants):
            if want:
                acquire = service.acquire(Request(processor), timeout=DEADLINE_TICKS)
                tasks[processor] = (asyncio.ensure_future(acquire), tick)
                idle.discard(processor)
        await asyncio.sleep(0)
        for processor, want, quit_ in zip(candidates, wants, quits):
            if want and quit_:
                tasks.pop(processor)[0].cancel()
                idle.add(processor)

        # The cycle expires deadlines before it selects its batch.
        batch = [
            request for request in service.peek_batch()
            if tasks[request.processor][1] + DEADLINE_TICKS > tick
        ]
        cold_count = len(cold.schedule(mrsin, batch)) if batch else 0
        leases = service.run_one_cycle()
        await asyncio.sleep(0)
        if len(leases) != cold_count:
            mismatches.append(tick)
        for lease in leases:
            processor = lease.request.processor
            del tasks[processor]
            live[lease.lease_id] = lease
            holding.add(lease.lease_id)
            links = tuple(link.index for link in lease.circuit.links)
            digest.update(repr((tick, lease.lease_id, processor, lease.resource, links)).encode())
            hold = int(holds.integers(1, 4))
            end_tx_at.setdefault(tick + 1, []).append(lease.lease_id)
            release_at.setdefault(tick + 1 + hold, []).append(lease.lease_id)
        digest.update(repr(("revoked", tick, revoked)).encode())
        for processor in [p for p, (task, _) in tasks.items() if task.done()]:
            tasks.pop(processor)[0].exception()  # the AllocationTimeout, retrieved
            idle.add(processor)
            digest.update(repr(("expired", tick, processor)).encode())
        await clock.advance(1.0)
    snap = service.snapshot()
    counters = {key: snap[key] for key in COUNTERS}
    digest.update(repr(sorted(counters.items())).encode())
    queued = [task for task, _ in tasks.values()]
    for task in queued:
        task.cancel()
    await asyncio.gather(*queued, return_exceptions=True)
    await service.close()
    return digest.hexdigest(), counters, mismatches


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_allocation_trace_matches_golden_digest(name):
    builder, seed, golden_digest, golden_counters = GOLDEN[name]
    digest, counters, mismatches = asyncio.run(_trace(builder(), seed))
    assert mismatches == [], f"warm != cold grant count on ticks {mismatches}"
    assert counters == golden_counters
    assert digest == golden_digest
    # The stream must actually exercise what it pins.
    assert counters["allocated"] > 3 * TICKS // 2
    assert counters["revoked"] > 0 and counters["timed_out"] > 0
