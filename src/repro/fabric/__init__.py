"""The sharded allocation fabric: many cells, one lease namespace.

One :class:`~repro.service.server.AllocationService` is capped by a
single core's tick rate.  The fabric partitions a large installation
into **cells** — each an independent MRSIN served by its own
allocation service, synchronously, in its own OS process — and
puts a **cross-shard broker** in front: every request is routed to its
home cell first, and requests a home cell cannot place are escalated
to a **spill tier** solved over a reduced inter-cell flow network (a
small Clos/fat-tree whose nodes are cells and whose capacities are
exported spare capacity).  This is the paper's Section IV monitor
generalised to a monitor-per-cell, with the inter-cell network playing
the role of the shared interconnect one level up.

Layout:

- :mod:`repro.fabric.partition` — deterministic cell placement and the
  stable ``cell_id`` namespace (SHA-256 label hashing, never builtin
  ``hash``);
- :mod:`repro.fabric.messages` — the picklable broker↔cell protocol;
- :mod:`repro.fabric.cell` — the cell worker process;
- :mod:`repro.fabric.spill` — the reduced inter-cell spill network and
  its max-flow routing;
- :mod:`repro.fabric.broker` — process supervision, lease custody,
  spill escalation, whole-cell failure handling, snapshot merging;
- :mod:`repro.fabric.driver` — the seeded multi-process driver, with
  an optional whole-cell kill/rejoin schedule, under hard invariants
  (:class:`repro.service.invariants.InvariantError`).
"""

from repro.fabric.broker import FabricBroker, FabricError
from repro.fabric.driver import (
    ChaosSchedule,
    FabricConfig,
    FabricRunResult,
    run_fabric,
)
from repro.fabric.partition import FabricPartition
from repro.fabric.spill import SpillTopology, solve_spill

__all__ = [
    "ChaosSchedule",
    "FabricBroker",
    "FabricConfig",
    "FabricError",
    "FabricPartition",
    "FabricRunResult",
    "SpillTopology",
    "run_fabric",
    "solve_spill",
]
