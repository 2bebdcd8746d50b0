"""The seeded fabric driver: workloads, whole-cell chaos, invariants.

:func:`run_fabric` stands a whole fabric up (broker + one process per
cell), plays a seeded Poisson workload through it in bulk-synchronous
rounds, drains it to quiescence, verifies the conservation and
zero-leak invariants with real exceptions, and returns a
:class:`FabricRunResult`: the seed-deterministic totals plus the
elapsed wall seconds, whatever the host gives us (throughput worth
quoting is measured by ``python3 -m bench --workload fabric-skew``).

The faults layer breaks components *inside* one service; the fabric's
failure unit is a whole cell process (SIGKILL — no goodbye, no flush).
Given a :class:`ChaosSchedule`, the same run kills one cell mid-load,
optionally rejoins it under a fresh lease epoch, and additionally
enforces that custody revocation touched the dead cell's leases only,
that the surviving cells kept granting through the outage and that the
stranded work re-entered the spill tier.

Per-cell arrival streams are seeded by stable label hashes, so a
cell's workload does not depend on how many other cells exist — a
1-cell and an 8-cell fabric see identical per-cell traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fabric.broker import FabricBroker
from repro.fabric.messages import FabricRequest
from repro.fabric.partition import FabricPartition
from repro.fabric.spill import SpillTopology
from repro.service.clock import perf_counter_ns
from repro.service.invariants import InvariantError
from repro.util.labels import label_hash
from repro.util.rng import make_rng
from repro.util.tables import Table

__all__ = [
    "ChaosSchedule",
    "FabricConfig",
    "FabricRunResult",
    "run_fabric",
]

#: The run totals, read off ``FabricBroker.counters`` after the drain.
TOTALS = (
    "offered", "allocated", "spill_allocated", "released", "escalated",
    "spill_planned", "spill_failed", "home_timeouts", "home_rejections",
    "revoked_on_death", "cells_killed", "cells_rejoined",
)

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
        if not 0 < self.rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
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
    chaos: ChaosSchedule | None = None

    @property
    def wall_allocs_per_sec(self) -> float:
        """Allocations over elapsed wall time (host-timesharing bound)."""
        return self.totals["allocated"] / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def granted_during_outage(self) -> int:
        """Grants landed while the killed cell was down (0 without chaos)."""
        if self.chaos is None:
            return 0
        end = self.chaos.rejoin_round or len(self.per_round_granted)
        # per_round_granted is 0-indexed by round; rounds are 1-based.
        return sum(self.per_round_granted[self.chaos.kill_round - 1 : end])

    def render(self) -> str:
        """ASCII summary table of the run."""
        cfg = self.config
        title = f"fabric {cfg.topology}-{cfg.ports} x {cfg.cells} cells, seed {cfg.seed}"
        if self.chaos is not None:
            title += f", kill cell {self.chaos.cell} @ round {self.chaos.kill_round}"
        table = Table(["metric", "value"], title=title)
        for key, value in sorted(self.totals.items()):
            table.add_row(key, value)
        if self.chaos is not None:
            table.add_row("rejoin round", self.chaos.rejoin_round or "never")
            table.add_row("leases revoked at kill", len(self.revoked_lease_ids))
            table.add_row("grants during outage", self.granted_during_outage)
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

    Raises :class:`~repro.service.invariants.InvariantError` if the
    fabric fails to drain, loses a request (conservation: every offered
    request is granted or definitively spill-failed, modulo leases
    revoked by chaos), or leaks a lease (non-empty custody registry,
    busy resources, or active leases after the drain) — and, under a
    ``chaos`` schedule, if revocation touched any lease but the killed
    cell's, the survivors stopped granting during the outage, or the
    run never reached the spill tier.  A schedule the run cannot play
    is a ``ValueError`` before any cell process exists.
    """
    if chaos is not None:
        if config.cells < 2:
            raise ValueError(f"cells must be >= 2 to kill one, got {config.cells}")
        if not 0 <= chaos.cell < config.cells:
            raise ValueError(f"chaos cell {chaos.cell} outside fabric")
        if chaos.kill_round > config.rounds:
            raise ValueError(
                f"kill_round {chaos.kill_round} beyond the {config.rounds} rounds of load"
            )
        if chaos.rejoin_round is not None and chaos.rejoin_round > config.rounds:
            raise ValueError(
                f"rejoin_round {chaos.rejoin_round} beyond the {config.rounds} rounds of load"
            )
    partition = FabricPartition(config.topology, config.ports, config.cells)
    rngs = [
        make_rng(config.seed + label_hash(placement.label, bits=32))
        for placement in partition.cells
    ]
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
            if chaos is not None and round_no == chaos.rejoin_round:
                broker.rejoin_cell(chaos.cell)
            arrivals: list[FabricRequest] = []
            for cell in range(config.cells):
                fresh, next_id = _cell_arrivals(config, cell, rngs[cell], next_id)
                arrivals.extend(fresh)
            outcome = broker.run_round(arrivals, config.ticks_per_round)
            per_round.append(len(outcome.granted))

        drain_rounds = 0
        while drain_rounds < MAX_DRAIN_ROUNDS:
            outcome = broker.run_round([], config.ticks_per_round)
            drain_rounds += 1
            per_round.append(len(outcome.granted))
            if outcome.idle:
                break
        else:
            raise InvariantError(
                f"fabric failed to drain within {MAX_DRAIN_ROUNDS} rounds"
            )

        snapshot = broker.snapshot()
        registry_size = broker.registry_size
        events = list(broker.events)
        totals = {key: broker.counters[key] for key in TOTALS}
    wall_s = (perf_counter_ns() - wall_start) / 1e9

    result = FabricRunResult(
        config=config,
        totals=totals,
        per_round_granted=tuple(per_round),
        events=events,
        snapshot=snapshot,
        rounds_run=config.rounds,
        drain_rounds=drain_rounds,
        wall_s=wall_s,
        revoked_lease_ids=tuple(
            lease
            for event in events
            if event["event"] == "cell-death"
            for lease in event["revoked"]
        ),
        chaos=chaos,
    )
    _enforce_invariants(result, registry_size)
    return result


def _enforce_invariants(result: FabricRunResult, registry_size: int) -> None:
    """Conservation, zero-leak and chaos checks — real raises, -O safe."""
    totals = result.totals
    offered = totals["offered"]
    settled = totals["allocated"] + totals["spill_failed"]
    if settled != offered:
        raise InvariantError(
            f"request conservation violated: offered {offered}, "
            f"settled {settled} (allocated {totals['allocated']} + "
            f"spill_failed {totals['spill_failed']})"
        )
    if registry_size != 0:
        raise InvariantError(
            f"lease leak: {registry_size} leases still in custody after drain"
        )
    expected_released = totals["allocated"] - totals["revoked_on_death"]
    if totals["released"] != expected_released:
        raise InvariantError(
            f"lease conservation violated: released {totals['released']}, "
            f"expected allocated - revoked = {expected_released}"
        )
    for cell_id, cell_snapshot in sorted(result.snapshot["cells"].items()):
        # Live cells must end quiescent: every lease either released
        # or revoked, no resource left busy.
        outstanding = (
            int(cell_snapshot["allocated"])
            - int(cell_snapshot["released"])
            - int(cell_snapshot["revoked"])
        )
        if outstanding != 0:
            raise InvariantError(f"cell {cell_id} leaked {outstanding} leases")
    chaos = result.chaos
    if chaos is None:
        return
    kills = [
        event for event in result.events
        if event["event"] == "cell-death" and event["reason"] == "killed"
    ]
    if len(kills) != 1:
        raise InvariantError(
            f"expected exactly one scheduled kill, saw {len(kills)}"
        )
    # Custody revocation: the dead cell's leases, all of them, no others
    # (revoked_lease_ids spans every death, so a second one shows here).
    prefix = f"{kills[0]['cell_id']}:"
    foreign = [
        lease for lease in result.revoked_lease_ids
        if not lease.startswith(prefix)
    ]
    if foreign:
        raise InvariantError(
            f"revocation bled outside the killed cell: {foreign[:3]!r}"
        )
    if totals["revoked_on_death"] != len(kills[0]["revoked"]):
        raise InvariantError(
            "revocation accounting mismatch: "
            f"{totals['revoked_on_death']} != {len(kills[0]['revoked'])}"
        )
    # Continued service: the fabric degrades, it does not stop.
    if result.granted_during_outage == 0:
        raise InvariantError("fabric stopped granting during the outage window")
    # Respill: stranded work must have re-entered the spill tier.
    if totals["escalated"] == 0:
        raise InvariantError(
            "death stranded no work and home cells never spilled — "
            "the scenario exercised nothing (raise the load)"
        )
    if chaos.rejoin_round is not None and totals["cells_rejoined"] != 1:
        raise InvariantError("scheduled rejoin did not happen")
