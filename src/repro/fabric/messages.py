"""The picklable broker <-> cell wire protocol.

Everything crossing a process boundary is a frozen dataclass of plain
values (plus :class:`~repro.util.histogram.LatencyHistogram`, whose
attribute-only state pickles losslessly), so the default pickler works
under both ``fork`` and ``spawn`` start methods.

The protocol is bulk-synchronous: the broker sends one
:class:`RoundWork` per cell per round and barriers on the matching
:class:`RoundResult` from every live cell.  Because each cell runs its
ticks on a :class:`~repro.service.clock.VirtualClock` and the broker
only acts on complete rounds, the fabric's allocation totals are a
pure function of the seed — real multiprocessing, deterministic
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.histogram import LatencyHistogram

__all__ = [
    "CellSpec",
    "FabricRequest",
    "GrantMsg",
    "RoundResult",
    "RoundWork",
    "Shutdown",
    "SnapshotReply",
    "SnapshotRequest",
    "UnplacedMsg",
]


@dataclass(frozen=True)
class CellSpec:
    """Everything a cell process needs to build its service.

    ``lease_base`` offsets local lease ids so names stay unique across
    a kill/rejoin: incarnation ``e`` of a cell issues names
    ``cell_id:{e * 10**9 + local_id}`` and can never collide with an
    id revoked from incarnation ``e - 1``.
    """

    index: int
    cell_id: str
    topology: str
    ports: int
    queue_limit: int
    spill_after: int
    lease_base: int

    def __post_init__(self) -> None:
        if self.spill_after < 1:
            raise ValueError(f"spill_after must be >= 1, got {self.spill_after}")
        if self.lease_base < 0:
            raise ValueError(f"lease_base must be >= 0, got {self.lease_base}")


@dataclass(frozen=True)
class FabricRequest:
    """One allocation request as routed by the broker.

    ``cell``/``processor`` are the *serving* cell and its local input
    port; ``origin_cell`` is where the request came from (they differ
    exactly when ``spilled`` — the broker retargeted the request at a
    gateway port of a host cell with exported spare capacity).
    ``arrive_tick`` staggers the request within its round (arrivals
    are Poisson *per tick*, not a burst at each round boundary).
    """

    req_id: int
    cell: int
    processor: int
    hold_ticks: int
    origin_cell: int
    arrive_tick: int = 0
    spilled: bool = False


@dataclass(frozen=True)
class RoundWork:
    """One bulk-synchronous round: inject ``arrivals``, run ``ticks``."""

    round_no: int
    ticks: int
    arrivals: tuple[FabricRequest, ...] = ()

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")


@dataclass(frozen=True)
class GrantMsg:
    """A lease granted this round, under its fabric-wide name."""

    req_id: int
    lease_id: str
    waited_ticks: float
    spilled: bool


@dataclass(frozen=True)
class UnplacedMsg:
    """A request the cell could not place (escalation candidate).

    ``reason`` is ``"timeout"`` (queued past ``spill_after`` ticks) or
    ``"rejected"`` (bounced off the admission queue).
    """

    request: FabricRequest
    reason: str


@dataclass(frozen=True)
class RoundResult:
    """A cell's complete accounting for one round.

    ``spare`` is the capacity the cell exports to the spill tier:
    free healthy resources beyond what its own queue will consume.
    ``compute_ns`` is the process-CPU cost of the round — the critical
    path's raw material on hosts with fewer cores than cells.
    """

    round_no: int
    cell: int
    granted: tuple[GrantMsg, ...]
    released: tuple[str, ...]
    unplaced: tuple[UnplacedMsg, ...]
    spare: int
    queue_depth: int
    active_leases: int
    busy_resources: int
    compute_ns: int


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask a cell for its full metrics snapshot."""


@dataclass(frozen=True)
class SnapshotReply:
    """A cell's metrics snapshot plus mergeable histograms.

    ``hists`` carries the raw :class:`LatencyHistogram` objects (wait
    plus one per tick phase) so the broker can merge them losslessly
    with :meth:`LatencyHistogram.merge` instead of averaging quantiles.
    """

    cell: int
    cell_id: str
    snapshot: dict[str, Any] = field(compare=False)
    hists: dict[str, LatencyHistogram] = field(compare=False)


@dataclass(frozen=True)
class Shutdown:
    """Orderly cell shutdown (the reply is the process exiting)."""
