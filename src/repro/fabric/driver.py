"""The seeded fabric driver: workloads and invariants.

:func:`run_fabric` stands a whole fabric up (broker + one process per
cell), plays a seeded Poisson workload through it in bulk-synchronous
rounds, drains it to quiescence, verifies the conservation and
zero-leak invariants with real exceptions, and returns a
:class:`FabricRunResult`: the seed-deterministic totals plus the
elapsed wall seconds, whatever the host gives us (throughput worth
quoting is measured by ``python3 -m bench --workload fabric-skew``).

Per-cell arrival streams are seeded by stable label hashes, so a
cell's workload does not depend on how many other cells exist — a
1-cell and an 8-cell fabric see identical per-cell traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fabric.broker import (
    FabricBroker,
    FabricInvariantError,
    RoundOutcome,
)
from repro.fabric.messages import FabricRequest
from repro.fabric.partition import FabricPartition
from repro.fabric.spill import SpillTopology
from repro.service.clock import perf_counter_ns
from repro.util.labels import label_hash
from repro.util.rng import make_rng
from repro.util.tables import Table

__all__ = [
    "ChaosSchedule",
    "FabricConfig",
    "FabricRunResult",
    "run_fabric",
]

#: Rounds a finished workload gets to drain (expire its holds and
#: settle every spill) before the run is declared stuck.
MAX_DRAIN_ROUNDS = 80


@dataclass(frozen=True)
class FabricConfig:
    """One fabric run, fully specified (a pure function of itself)."""

    topology: str = "omega"
    ports: int = 32
    cells: int = 4
    seed: int = 0
    rounds: int = 40
    ticks_per_round: int = 8
    rate: float = 0.18
    spill_after: int = 4
    max_hold: int = 6
    queue_limit: int = 0  # 0 = auto: 4 * ports
    group_size: int = 4
    uplink: int = 8
    trunk: int = 32

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.ticks_per_round < 1:
            raise ValueError(
                f"ticks_per_round must be >= 1, got {self.ticks_per_round}"
            )
        if not 0 < self.rate:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.spill_after < 1:
            raise ValueError(f"spill_after must be >= 1, got {self.spill_after}")
        if self.max_hold < 1:
            raise ValueError(f"max_hold must be >= 1, got {self.max_hold}")
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        # The cell shape and the spill tier validate themselves; build
        # both now so a config that cannot run fails where it is made,
        # not inside run_fabric after cell processes were spawned.
        FabricPartition(self.topology, self.ports, self.cells)
        self.spill_topology()

    @property
    def effective_queue_limit(self) -> int:
        """The admission-queue bound each cell runs with."""
        return self.queue_limit if self.queue_limit > 0 else 4 * self.ports

    def spill_topology(self) -> SpillTopology:
        """The reduced inter-cell network shape for this run."""
        return SpillTopology(
            group_size=self.group_size, uplink=self.uplink, trunk=self.trunk
        )


@dataclass(frozen=True)
class ChaosSchedule:
    """Whole-cell failure plan: kill one cell, optionally rejoin it."""

    cell: int = 1
    kill_round: int = 10
    rejoin_round: int | None = 20

    def __post_init__(self) -> None:
        if self.kill_round < 1:
            raise ValueError(f"kill_round must be >= 1, got {self.kill_round}")
        if self.rejoin_round is not None and self.rejoin_round <= self.kill_round:
            raise ValueError(
                f"rejoin_round {self.rejoin_round} must come after "
                f"kill_round {self.kill_round}"
            )


@dataclass
class FabricRunResult:
    """Outcome of one fabric run, invariants already enforced."""

    config: FabricConfig
    totals: dict[str, int]
    per_round_granted: tuple[int, ...]
    events: list[dict[str, Any]]
    snapshot: dict[str, Any]
    rounds_run: int
    drain_rounds: int
    wall_s: float
    revoked_lease_ids: tuple[str, ...] = field(default_factory=tuple)

    @property
    def wall_allocs_per_sec(self) -> float:
        """Allocations over elapsed wall time (host-timesharing bound)."""
        return self.totals["allocated"] / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        """ASCII summary table of the run."""
        cfg = self.config
        table = Table(
            ["metric", "value"],
            title=(
                f"fabric {cfg.topology}-{cfg.ports} x {cfg.cells} cells, "
                f"seed {cfg.seed}"
            ),
        )
        for key, value in sorted(self.totals.items()):
            table.add_row(key, value)
        table.add_row("rounds (load + drain)", f"{self.rounds_run}+{self.drain_rounds}")
        table.add_row("wall seconds", f"{self.wall_s:.3f}")
        table.add_row("wall allocs/sec", f"{self.wall_allocs_per_sec:.0f}")
        merged = self.snapshot["merged"]
        for label, ticks in merged["wait_percentiles"].items():
            table.add_row(f"wait {label} (ticks)", f"{ticks:.3f}")
        return table.render()


def _cell_arrivals(
    config: FabricConfig,
    cell: int,
    rng: np.random.Generator,
    next_id: int,
) -> tuple[list[FabricRequest], int]:
    """One round of Poisson arrivals for one cell (home-routed)."""
    mean = config.rate * config.ports * config.ticks_per_round
    count = int(rng.poisson(mean))
    requests: list[FabricRequest] = []
    for _ in range(count):
        processor = int(rng.integers(0, config.ports))
        hold = int(rng.integers(1, config.max_hold + 1))
        arrive = int(rng.integers(0, config.ticks_per_round))
        requests.append(
            FabricRequest(
                req_id=next_id,
                cell=cell,
                processor=processor,
                hold_ticks=hold,
                origin_cell=cell,
                arrive_tick=arrive,
                spilled=False,
            )
        )
        next_id += 1
    return requests, next_id


def run_fabric(
    config: FabricConfig, *, chaos: ChaosSchedule | None = None
) -> FabricRunResult:
    """Run one seeded fabric workload end to end, invariants enforced.

    Raises :class:`FabricInvariantError` if the fabric fails to drain,
    loses a request (conservation: every offered request is granted or
    definitively spill-failed, modulo leases revoked by chaos), or
    leaks a lease (non-empty custody registry, busy resources, or
    active leases after the drain).
    """
    partition = FabricPartition(config.topology, config.ports, config.cells)
    if chaos is not None and not 0 <= chaos.cell < config.cells:
        raise ValueError(f"chaos cell {chaos.cell} outside fabric")
    rngs = [
        make_rng(config.seed + label_hash(placement.label, bits=32))
        for placement in partition.cells
    ]
    totals = {
        "offered": 0,
        "allocated": 0,
        "spill_allocated": 0,
        "released": 0,
        "escalated": 0,
        "spill_planned": 0,
        "spill_failed": 0,
        "home_timeouts": 0,
        "home_rejections": 0,
        "revoked_on_death": 0,
        "cells_killed": 0,
        "cells_rejoined": 0,
    }
    per_round: list[int] = []
    next_id = 0
    wall_start = perf_counter_ns()
    broker = FabricBroker(
        partition,
        queue_limit=config.effective_queue_limit,
        spill_after=config.spill_after,
        spill_topology=config.spill_topology(),
    )
    with broker:
        for round_no in range(1, config.rounds + 1):
            if chaos is not None and round_no == chaos.kill_round:
                broker.kill_cell(chaos.cell)
            if (
                chaos is not None
                and chaos.rejoin_round is not None
                and round_no == chaos.rejoin_round
            ):
                broker.rejoin_cell(chaos.cell)
            arrivals: list[FabricRequest] = []
            for cell in range(config.cells):
                fresh, next_id = _cell_arrivals(config, cell, rngs[cell], next_id)
                arrivals.extend(fresh)
            totals["offered"] += len(arrivals)
            outcome = broker.run_round(arrivals, config.ticks_per_round)
            _absorb(totals, per_round, outcome)

        drain_rounds = 0
        while drain_rounds < MAX_DRAIN_ROUNDS:
            outcome = broker.run_round([], config.ticks_per_round)
            drain_rounds += 1
            _absorb(totals, per_round, outcome)
            if outcome.idle:
                break
        else:
            raise FabricInvariantError(
                f"fabric failed to drain within {MAX_DRAIN_ROUNDS} rounds"
            )

        totals["cells_killed"] = broker.counters["cells_killed"]
        totals["cells_rejoined"] = broker.counters["cells_rejoined"]
        totals["revoked_on_death"] = broker.counters["revoked_on_death"]
        snapshot = broker.snapshot()
        registry_size = broker.registry_size
        revoked_ids = tuple(
            lease
            for event in broker.events
            if event["event"] == "cell-death"
            for lease in event["revoked"]
        )
        events = list(broker.events)
    wall_s = (perf_counter_ns() - wall_start) / 1e9

    _enforce_invariants(totals, snapshot, registry_size)
    return FabricRunResult(
        config=config,
        totals=totals,
        per_round_granted=tuple(per_round),
        events=events,
        snapshot=snapshot,
        rounds_run=config.rounds,
        drain_rounds=drain_rounds,
        wall_s=wall_s,
        revoked_lease_ids=revoked_ids,
    )


def _absorb(
    totals: dict[str, int], per_round: list[int], outcome: RoundOutcome
) -> None:
    granted = len(outcome.granted)
    totals["allocated"] += granted
    totals["spill_allocated"] += sum(1 for g in outcome.granted if g.spilled)
    totals["released"] += outcome.released
    totals["escalated"] += outcome.escalated
    totals["spill_planned"] += outcome.spill_planned
    totals["spill_failed"] += len(outcome.spill_failed)
    totals["home_timeouts"] += outcome.home_timeouts
    totals["home_rejections"] += outcome.home_rejections
    per_round.append(granted)


def _enforce_invariants(
    totals: dict[str, int], snapshot: dict[str, Any], registry_size: int
) -> None:
    """Conservation and zero-leak checks — real raises, -O safe."""
    offered = totals["offered"]
    settled = totals["allocated"] + totals["spill_failed"]
    if settled != offered:
        raise FabricInvariantError(
            f"request conservation violated: offered {offered}, "
            f"settled {settled} (allocated {totals['allocated']} + "
            f"spill_failed {totals['spill_failed']})"
        )
    if registry_size != 0:
        raise FabricInvariantError(
            f"lease leak: {registry_size} leases still in custody after drain"
        )
    expected_released = totals["allocated"] - totals["revoked_on_death"]
    if totals["released"] != expected_released:
        raise FabricInvariantError(
            f"lease conservation violated: released {totals['released']}, "
            f"expected allocated - revoked = {expected_released}"
        )
    for cell_id, cell_snapshot in sorted(snapshot["cells"].items()):
        # Live cells must end quiescent: every lease either released
        # or revoked, no resource left busy.
        outstanding = (
            int(cell_snapshot["allocated"])
            - int(cell_snapshot["released"])
            - int(cell_snapshot["revoked"])
        )
        if outstanding != 0:
            raise FabricInvariantError(
                f"cell {cell_id} leaked {outstanding} leases"
            )
