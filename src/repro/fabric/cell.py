"""The cell worker: one allocation service, one process, no event loop.

:func:`cell_main` is the target of each cell's OS process.  It serves
the broker's bulk-synchronous protocol in plain synchronous code: a
blocking ``conn.recv()`` picks up each
:class:`~repro.fabric.messages.RoundWork`, :meth:`CellWorker.run_round`
submits the arrivals and runs the round's ticks, and the
:class:`~repro.fabric.messages.RoundResult` goes back on the pipe.
Requests still queued at a round boundary stay in the service's queue;
their tickets complete in a later round.  Ticks run on a
:class:`~repro.service.clock.VirtualClock` stepped one unit per tick,
so a cell's behaviour is a pure function of the arrivals it is fed —
the source of the fabric's seed-deterministic totals.
"""

from __future__ import annotations

from functools import partial
from multiprocessing.connection import Connection

from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.fabric.messages import (
    CellSpec,
    FabricRequest,
    GrantMsg,
    RoundResult,
    RoundWork,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    UnplacedMsg,
)
from repro.networks import build_network
from repro.service.clock import VirtualClock, process_time_ns
from repro.service.metrics import TICK_PHASES
from repro.service.server import (
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    Lease,
    ServiceConfig,
    Ticket,
)
from repro.util.histogram import LatencyHistogram

__all__ = ["CellWorker", "cell_main"]


class CellWorker:
    """Round-by-round driver of one cell's allocation service.

    Lives inside the cell process, but is plain-Python testable: the
    broker-facing behaviour is ``run_round(work) -> RoundResult`` plus
    ``snapshot_reply()``, with no pipe in sight.
    """

    def __init__(self, spec: CellSpec) -> None:
        self.spec = spec
        self.clock = VirtualClock()
        self.mrsin = MRSIN(build_network(spec.topology, spec.ports))
        self.service = AllocationService(
            self.mrsin,
            config=ServiceConfig(
                queue_limit=spec.queue_limit,
                default_timeout=float(spec.spill_after),
            ),
            clock=self.clock,
        )
        self._tick = 0
        # (end_transmission_tick, release_tick, lease, origin request)
        self._held: list[tuple[int, int, Lease, FabricRequest]] = []
        self._granted: list[GrantMsg] = []
        self._released: list[str] = []
        self._unplaced: list[UnplacedMsg] = []

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def run_round(self, work: RoundWork) -> RoundResult:
        """Inject the round's arrivals, run its ticks, account exactly."""
        cpu_start = process_time_ns()
        self._granted = []
        self._released = []
        self._unplaced = []
        by_tick: dict[int, list[FabricRequest]] = {}
        for arrival in work.arrivals:
            by_tick.setdefault(arrival.arrive_tick % work.ticks, []).append(arrival)
        for offset in range(work.ticks):
            for arrival in by_tick.get(offset, ()):
                self._submit(arrival)
            self._step_tick()
            self.clock.step(1.0)
            self._tick += 1
        return self._round_result(work, cpu_start)

    def snapshot_reply(self) -> SnapshotReply:
        """Full metrics snapshot plus raw mergeable histograms."""
        metrics = self.service.metrics
        hists: dict[str, LatencyHistogram] = {"wait": metrics.wait_hist}
        for phase in TICK_PHASES:
            hists[f"tick_{phase}"] = metrics.phase_hists[phase]
        return SnapshotReply(
            cell=self.spec.index,
            cell_id=self.spec.cell_id,
            snapshot=self.service.snapshot(),
            hists=hists,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lease_name(self, lease: Lease) -> str:
        return f"{self.spec.cell_id}:{self.spec.lease_base + lease.lease_id}"

    def _submit(self, arrival: FabricRequest) -> None:
        request = Request(arrival.processor, tag=arrival.req_id)
        try:
            self.service.submit(request, on_done=partial(self._settled, arrival))
        except AllocationRejected:
            self._unplaced.append(UnplacedMsg(arrival, "rejected"))

    def _settled(self, arrival: FabricRequest, ticket: Ticket) -> None:
        """Ticket callback, run inside this tick's service cycle."""
        if ticket.lease is not None:
            self._adopt(ticket.lease, arrival)
        elif isinstance(ticket.error, AllocationTimeout):
            self._unplaced.append(UnplacedMsg(arrival, "timeout"))

    def _adopt(self, lease: Lease, arrival: FabricRequest) -> None:
        """Take custody of a fresh grant: name it, schedule its life."""
        self._granted.append(
            GrantMsg(
                req_id=arrival.req_id,
                lease_id=self._lease_name(lease),
                waited_ticks=lease.waited,
                spilled=arrival.spilled,
            )
        )
        end_tx = self._tick + 1
        self._held.append(
            (end_tx, end_tx + max(arrival.hold_ticks, 1), lease, arrival)
        )

    def _step_tick(self) -> None:
        """One tick: lease lifecycle, then a service cycle.

        ``_held`` is rebound before the cycle runs, so the grants the
        cycle adopts (via :meth:`_settled`) land on the new list.
        """
        surviving: list[tuple[int, int, Lease, FabricRequest]] = []
        for end_tx, release_at, lease, arrival in self._held:
            if lease.revoked or not lease.active:
                continue  # a fault (or cell chaos) already severed it
            if self._tick >= release_at:
                self.service.release(lease)
                self._released.append(self._lease_name(lease))
                continue
            if self._tick >= end_tx and lease.transmitting:
                self.service.end_transmission(lease)
            surviving.append((end_tx, release_at, lease, arrival))
        self._held = surviving
        self.service.run_one_cycle()

    def _round_result(self, work: RoundWork, cpu_start: int) -> RoundResult:
        free = len(self.mrsin.free_resources())
        busy = sum(1 for res in self.mrsin.resources if res.busy)
        return RoundResult(
            round_no=work.round_no,
            cell=self.spec.index,
            granted=tuple(self._granted),
            released=tuple(self._released),
            unplaced=tuple(self._unplaced),
            spare=max(free - self.service.queue_depth, 0),
            queue_depth=self.service.queue_depth,
            active_leases=self.service.active_leases,
            busy_resources=busy,
            compute_ns=max(process_time_ns() - cpu_start, 0),
        )


def cell_main(conn: Connection, spec: CellSpec) -> None:
    """Process entry point: serve the broker until Shutdown or EOF."""
    worker = CellWorker(spec)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break  # broker went away; nothing left to serve
            if isinstance(message, Shutdown):
                break
            if isinstance(message, RoundWork):
                conn.send(worker.run_round(message))
            elif isinstance(message, SnapshotRequest):
                conn.send(worker.snapshot_reply())
    except (BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # broker died mid-send or the run was interrupted
    finally:
        conn.close()
