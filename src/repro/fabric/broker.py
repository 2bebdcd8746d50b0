"""The cross-shard broker: routing, custody, spill, and supervision.

The broker owns the fabric's cell processes and everything that spans
them:

- **Routing** — every arrival goes to its home cell first; the broker
  only batches and forwards.
- **Custody** — a registry of every live lease's fabric-wide name
  (``cell_id:local_id``) and serving cell, maintained from the grant
  and release lists in each :class:`~repro.fabric.messages.RoundResult`.
- **Spill** — requests a home cell reports unplaced are escalated and
  routed over the reduced inter-cell network
  (:func:`~repro.fabric.spill.solve_spill`); placements ship next
  round to a gateway port of the host cell, requests the flow cannot
  carry fail definitively.
- **Supervision** — a cell that dies (crash, kill, unresponsive pipe)
  has its leases revoked from the registry, its in-flight requests
  re-escalated through the spill tier, and may later rejoin as a fresh
  process under a new lease epoch.

Rounds are bulk-synchronous (send to all live cells, barrier on all
results), so fabric totals are seed-deterministic even though the
cells are real OS processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Sequence

from repro.fabric.cell import cell_main
from repro.fabric.messages import (
    CellSpec,
    FabricRequest,
    GrantMsg,
    RoundResult,
    RoundWork,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
)
from repro.fabric.partition import FabricPartition, gateway_port
from repro.fabric.spill import SpillTopology, solve_spill
from repro.service.clock import process_time_ns
from repro.service.invariants import InvariantError
from repro.service.metrics import TICK_PHASES, tick_timing, wait_percentiles
from repro.util.counters import OpCounter
from repro.util.histogram import LatencyHistogram

__all__ = [
    "FabricBroker",
    "FabricError",
    "LEASE_EPOCH_STRIDE",
    "RoundOutcome",
]

#: Local lease ids per cell incarnation: incarnation ``e`` names its
#: leases from ``e * LEASE_EPOCH_STRIDE``, so a rejoined cell can never
#: reuse a name revoked from its predecessor.
LEASE_EPOCH_STRIDE = 1_000_000_000

#: Seconds the broker waits on one cell's reply before declaring it dead.
ROUND_TIMEOUT_S = 120.0


class FabricError(Exception):
    """The broker was used incorrectly or the protocol broke down."""


@dataclass
class _CellHandle:
    """One cell process as the broker sees it."""

    spec: CellSpec
    process: BaseProcess
    conn: Connection
    epoch: int
    alive: bool = True


@dataclass(frozen=True)
class RoundOutcome:
    """Everything the broker learned from one bulk-synchronous round."""

    round_no: int
    granted: tuple[GrantMsg, ...]
    spill_failed: tuple[FabricRequest, ...]
    released: int
    escalated: int
    spill_planned: int
    home_timeouts: int
    home_rejections: int
    deaths: tuple[int, ...]
    queue_depths: dict[int, int]
    active_leases: dict[int, int]
    spares: dict[int, int]
    critical_ns: int
    broker_ns: int
    idle: bool


class FabricBroker:
    """Supervisor of one fabric: spawn, route, spill, revoke, merge."""

    def __init__(
        self,
        partition: FabricPartition,
        *,
        queue_limit: int = 64,
        spill_after: int = 4,
        spill_topology: SpillTopology | None = None,
    ) -> None:
        self.partition = partition
        self.queue_limit = queue_limit
        self.spill_after = spill_after
        self.spill_topology = spill_topology or SpillTopology()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._handles: list[_CellHandle] = []
        self._registry: dict[str, int] = {}
        self._inflight: dict[int, dict[int, FabricRequest]] = {
            i: {} for i in range(partition.n_cells)
        }
        self._pending_spill: list[FabricRequest] = []
        self._repooled: list[FabricRequest] = []
        self._round_no = 0
        self._started = False
        self._closed = False
        self.spill_counter = OpCounter()
        self.events: list[dict[str, Any]] = []
        self.counters: dict[str, int] = {
            "offered": 0,
            "allocated": 0,
            "spill_allocated": 0,
            "released": 0,
            "home_timeouts": 0,
            "home_rejections": 0,
            "escalated": 0,
            "spill_planned": 0,
            "spill_failed": 0,
            "spill_solves": 0,
            "revoked_on_death": 0,
            "cells_died": 0,
            "cells_killed": 0,
            "cells_rejoined": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every cell process (epoch 0)."""
        if self._started:
            raise FabricError("fabric already started")
        self._started = True
        for placement in self.partition.cells:
            self._handles.append(self._spawn(placement.index, epoch=0))

    def close(self) -> None:
        """Shut every live cell down and reap the processes."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                handle.conn.send(Shutdown())
            except (BrokenPipeError, OSError):
                pass
            handle.alive = False
        for handle in self._handles:
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():  # pragma: no cover - stuck cell
                handle.process.terminate()
                handle.process.join(timeout=10.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "FabricBroker":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _spawn(self, index: int, epoch: int) -> _CellHandle:
        placement = self.partition.cells[index]
        spec = CellSpec(
            index=index,
            cell_id=placement.cell_id,
            topology=self.partition.topology,
            ports=self.partition.ports,
            queue_limit=self.queue_limit,
            spill_after=self.spill_after,
            lease_base=epoch * LEASE_EPOCH_STRIDE,
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=cell_main,
            args=(child_conn, spec),
            name=f"fabric-{placement.cell_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._inflight[index] = {}
        return _CellHandle(
            spec=spec, process=process, conn=parent_conn, epoch=epoch
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    @property
    def live_cells(self) -> list[int]:
        """Indices of cells currently serving."""
        return [h.spec.index for h in self._handles if h.alive]

    def kill_cell(self, index: int) -> None:
        """SIGKILL a cell (chaos): revoke its leases, respill its work."""
        handle = self._handle(index)
        if not handle.alive:
            raise FabricError(f"cell {index} is already down")
        pid = handle.process.pid
        if pid is None:  # pragma: no cover - started processes have pids
            raise FabricError(f"cell {index} has no pid")
        os.kill(pid, signal.SIGKILL)
        handle.process.join(timeout=10.0)
        self.counters["cells_killed"] += 1
        self._on_death(handle, reason="killed")

    def rejoin_cell(self, index: int) -> None:
        """Bring a dead cell back as a fresh process, one epoch later.

        The new incarnation starts empty (no leases, no queue) under a
        lease base that cannot collide with names its predecessor
        issued; traffic to the cell resumes on the next round.
        """
        handle = self._handle(index)
        if handle.alive:
            raise FabricError(f"cell {index} is still up")
        handle.process.join(timeout=10.0)
        epoch = handle.epoch + 1
        self._handles[index] = self._spawn(index, epoch=epoch)
        self.counters["cells_rejoined"] += 1
        self.events.append(
            {
                "round": self._round_no,
                "event": "cell-rejoin",
                "cell": index,
                "cell_id": handle.spec.cell_id,
                "epoch": epoch,
            }
        )

    def _handle(self, index: int) -> _CellHandle:
        if not self._started:
            raise FabricError("fabric not started")
        if not 0 <= index < len(self._handles):
            raise FabricError(f"no cell {index}")
        return self._handles[index]

    def _on_death(self, handle: _CellHandle, *, reason: str) -> None:
        """A cell is gone: revoke custody, re-escalate its in-flight work."""
        handle.alive = False
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - pipe already torn down
            pass
        index = handle.spec.index
        revoked = sorted(
            lease for lease, cell in self._registry.items() if cell == index
        )
        for lease in revoked:
            del self._registry[lease]
        inflight = self._inflight[index]
        repooled = [inflight[req_id] for req_id in sorted(inflight)]
        self._inflight[index] = {}
        self._repooled.extend(repooled)
        self.counters["cells_died"] += 1
        self.counters["revoked_on_death"] += len(revoked)
        self.events.append(
            {
                "round": self._round_no,
                "event": "cell-death",
                "cell": index,
                "cell_id": handle.spec.cell_id,
                "reason": reason,
                "revoked": revoked,
                "repooled": len(repooled),
            }
        )

    # ------------------------------------------------------------------
    # The bulk-synchronous round
    # ------------------------------------------------------------------
    def run_round(
        self, arrivals: Sequence[FabricRequest], ticks: int
    ) -> RoundOutcome:
        """One round: deliver, barrier, account, spill-route.

        ``critical_ns`` in the outcome is the slowest cell's CPU cost
        for the round — the round's span on a one-core-per-cell
        deployment — and ``broker_ns`` the broker's own serial CPU.
        """
        if not self._started or self._closed:
            raise FabricError("fabric not running")
        cpu_start = process_time_ns()
        self._round_no += 1
        deaths: list[int] = []
        pool: list[FabricRequest] = list(self._repooled)
        self._repooled = []

        batches: dict[int, list[FabricRequest]] = {
            i: [] for i in range(self.partition.n_cells)
        }
        for request in self._pending_spill:
            batches[request.cell].append(request)
        self._pending_spill = []
        for request in arrivals:
            batches[request.cell].append(request)

        # A batch aimed at a dead cell is a delivery failure, not a
        # placement failure: back to the escalation pool.
        for index, batch in sorted(batches.items()):
            if batch and not self._handles[index].alive:
                pool.extend(batch)
                batches[index] = []

        for handle in self._handles:
            if not handle.alive:
                continue
            index = handle.spec.index
            work = RoundWork(
                round_no=self._round_no,
                ticks=ticks,
                arrivals=tuple(batches[index]),
            )
            try:
                handle.conn.send(work)
            except (BrokenPipeError, OSError):
                self._on_death(handle, reason="send-failed")
                deaths.append(index)
                pool.extend(batches[index])
                continue
            for request in work.arrivals:
                self._inflight[index][request.req_id] = request

        results: dict[int, RoundResult] = {}
        for handle in self._handles:
            if not handle.alive:
                continue
            index = handle.spec.index
            try:
                if not handle.conn.poll(ROUND_TIMEOUT_S):
                    raise EOFError(f"cell {index} unresponsive")
                message = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                self._on_death(handle, reason="recv-failed")
                deaths.append(index)
                continue
            if not isinstance(message, RoundResult):
                raise FabricError(
                    f"cell {index} sent {type(message).__name__}, "
                    "expected RoundResult"
                )
            if message.round_no != self._round_no:
                raise FabricError(
                    f"cell {index} answered round {message.round_no} "
                    f"during round {self._round_no}"
                )
            results[index] = message

        # Deaths detected mid-round repooled their in-flight work into
        # self._repooled; fold it into this round's escalation pool so
        # the spill solve sees it immediately.
        pool.extend(self._repooled)
        self._repooled = []

        granted_all: list[GrantMsg] = []
        spill_failed: list[FabricRequest] = []
        released = 0
        home_timeouts = 0
        home_rejections = 0
        for index in sorted(results):
            result = results[index]
            for grant in result.granted:
                self._inflight[index].pop(grant.req_id, None)
                if grant.lease_id in self._registry:
                    raise InvariantError(
                        f"duplicate lease name {grant.lease_id!r}"
                    )
                self._registry[grant.lease_id] = index
                granted_all.append(grant)
            for lease_id in result.released:
                if self._registry.pop(lease_id, None) is not None:
                    released += 1
            for unplaced in result.unplaced:
                self._inflight[index].pop(unplaced.request.req_id, None)
                if unplaced.request.spilled:
                    # Second strike: the spill host could not place it
                    # either — fail it definitively.
                    spill_failed.append(unplaced.request)
                elif unplaced.reason == "rejected":
                    home_rejections += 1
                    pool.append(unplaced.request)
                else:
                    home_timeouts += 1
                    pool.append(unplaced.request)

        escalated = len(pool)
        planned = self._route_spills(pool, results, spill_failed)

        spares = {i: r.spare for i, r in sorted(results.items())}
        queue_depths = {i: r.queue_depth for i, r in sorted(results.items())}
        active = {i: r.active_leases for i, r in sorted(results.items())}
        self.counters["offered"] += len(arrivals)
        self.counters["allocated"] += len(granted_all)
        self.counters["spill_allocated"] += sum(1 for g in granted_all if g.spilled)
        self.counters["released"] += released
        self.counters["home_timeouts"] += home_timeouts
        self.counters["home_rejections"] += home_rejections
        self.counters["escalated"] += escalated
        self.counters["spill_planned"] += planned
        self.counters["spill_failed"] += len(spill_failed)
        idle = (
            not self._pending_spill
            and not self._repooled
            and all(not flights for flights in self._inflight.values())
            and all(r.queue_depth == 0 for r in results.values())
            and all(r.active_leases == 0 for r in results.values())
            and not granted_all
        )
        critical_ns = max(
            (r.compute_ns for r in results.values()), default=0
        )
        return RoundOutcome(
            round_no=self._round_no,
            granted=tuple(granted_all),
            spill_failed=tuple(spill_failed),
            released=released,
            escalated=escalated,
            spill_planned=planned,
            home_timeouts=home_timeouts,
            home_rejections=home_rejections,
            deaths=tuple(deaths),
            queue_depths=queue_depths,
            active_leases=active,
            spares=spares,
            critical_ns=critical_ns,
            broker_ns=max(process_time_ns() - cpu_start, 0),
            idle=idle,
        )

    def _route_spills(
        self,
        pool: list[FabricRequest],
        results: dict[int, RoundResult],
        spill_failed: list[FabricRequest],
    ) -> int:
        """Route the escalation pool over the reduced network.

        Placements become next round's deliveries (retargeted at a
        stable gateway port of the host cell); demand the max flow
        cannot carry is appended to ``spill_failed``.  Returns the
        number of placements planned.
        """
        if not pool:
            return 0
        pool.sort(key=lambda request: request.req_id)
        demands: dict[int, int] = {}
        for request in pool:
            demands[request.origin_cell] = demands.get(request.origin_cell, 0) + 1
        spares = {index: result.spare for index, result in results.items()}
        routes = solve_spill(
            demands,
            spares,
            topology=self.spill_topology,
            n_cells=self.partition.n_cells,
            counter=self.spill_counter,
        )
        self.counters["spill_solves"] += 1
        by_origin: dict[int, list[FabricRequest]] = {}
        for request in pool:
            by_origin.setdefault(request.origin_cell, []).append(request)
        planned = 0
        for origin in sorted(by_origin):
            waiting = by_origin[origin]
            for host in sorted(h for (o, h) in routes if o == origin):
                quota = routes[(origin, host)]
                while quota > 0 and waiting:
                    request = waiting.pop(0)
                    self._pending_spill.append(
                        replace(
                            request,
                            cell=host,
                            processor=gateway_port(
                                request.req_id, self.partition.ports
                            ),
                            spilled=True,
                        )
                    )
                    planned += 1
                    quota -= 1
            spill_failed.extend(waiting)
        return planned

    # ------------------------------------------------------------------
    # Custody and reporting
    # ------------------------------------------------------------------
    @property
    def registry_size(self) -> int:
        """Live leases under broker custody, fabric-wide."""
        return len(self._registry)

    def snapshot(self) -> dict[str, Any]:
        """Per-cell snapshots plus exact merged fabric-wide metrics.

        Wait and tick-phase quantiles are computed on histograms merged
        with :meth:`LatencyHistogram.merge` — lossless, not an average
        of per-cell quantiles.
        """
        replies: dict[int, SnapshotReply] = {}
        for handle in self._handles:
            if not handle.alive:
                continue
            index = handle.spec.index
            try:
                handle.conn.send(SnapshotRequest())
                if not handle.conn.poll(ROUND_TIMEOUT_S):
                    raise EOFError(f"cell {index} unresponsive")
                message = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                self._on_death(handle, reason="snapshot-failed")
                continue
            if not isinstance(message, SnapshotReply):
                raise FabricError(
                    f"cell {index} sent {type(message).__name__}, "
                    "expected SnapshotReply"
                )
            replies[index] = message

        wait = LatencyHistogram()
        phases = {phase: LatencyHistogram() for phase in TICK_PHASES}
        allocated = 0
        for index in sorted(replies):
            reply = replies[index]
            wait.merge(reply.hists["wait"])
            for phase in TICK_PHASES:
                phases[phase].merge(reply.hists[f"tick_{phase}"])
            allocated += int(reply.snapshot["allocated"])

        return {
            "cells": {
                replies[index].cell_id: replies[index].snapshot
                for index in sorted(replies)
            },
            "merged": {
                "allocated": allocated,
                "wait_percentiles": wait_percentiles(wait),
                "tick_timing": tick_timing(phases),
            },
            "broker": {
                "rounds": self._round_no,
                "live_cells": self.live_cells,
                "registry_size": self.registry_size,
                "pending_spill": len(self._pending_spill),
                "counters": dict(sorted(self.counters.items())),
                "events": len(self.events),
                "spill_solver_ops": dict(
                    sorted(self.spill_counter.counts.items())
                ),
            },
        }
