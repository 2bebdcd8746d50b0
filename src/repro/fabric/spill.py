"""The spill tier: inter-cell routing over a reduced flow network.

When a home cell cannot place a request (admission-queue overflow or a
queue wait past ``spill_after`` ticks), the broker escalates it to the
spill tier.  Spill routing is itself an instance of the paper's
resource-sharing problem **one level up**: the "processors" are cells
with unplaced demand, the "resources" are cells exporting spare
capacity, and the interconnect is a small Clos/fat-tree whose leaves
are cells, grouped under aggregation pods with bounded uplinks and a
bounded core trunk.  A max-flow solve over that reduced network (a few
dozen nodes, regardless of how many thousand ports the cells contain)
decides how many requests each origin may ship to each destination —
capacity limits on pods and trunk fall out of the flow constraints
rather than ad-hoc rate limiting.  The network goes straight onto a
:class:`~repro.flows.kernel.FlowKernel`, as the scheduler's Table II
rows do: Dinic's :meth:`~repro.flows.kernel.FlowKernel.max_flow`
solves it and :meth:`~repro.flows.kernel.FlowKernel.decompose` walks
the flow into unit origin -> host routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.flows.kernel import FlowKernel
from repro.util.counters import OpCounter

__all__ = ["SpillTopology", "build_spill_network", "solve_spill"]


@dataclass(frozen=True)
class SpillTopology:
    """Shape of the reduced inter-cell network.

    Attributes
    ----------
    group_size:
        Cells per aggregation pod (fat-tree leaves per edge switch).
    uplink:
        Per-cell link capacity to its pod, in requests per round —
        both directions (out of an origin, into a destination).
    trunk:
        Core capacity between any pod pair, in requests per round.
    """

    group_size: int = 4
    uplink: int = 8
    trunk: int = 32

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.uplink < 1:
            raise ValueError(f"uplink must be >= 1, got {self.uplink}")
        if self.trunk < 1:
            raise ValueError(f"trunk must be >= 1, got {self.trunk}")


def build_spill_network(
    demands: Mapping[int, int],
    spares: Mapping[int, int],
    topology: SpillTopology,
    n_cells: int,
) -> tuple[FlowKernel, int, int]:
    """The reduced Clos: source -> origins -> pods -> core -> pods -> hosts -> sink.

    Returns ``(kernel, source, sink)``.  Node ``c`` is cell ``c`` as an
    origin and node ``n_cells + c`` the same cell as a destination;
    then come the source, the sink, the core trunk (``sink + 1``), and
    the ascending then the descending side of each pod.  Same-pod
    spills bypass the core over an intra-pod arc, exactly as a
    fat-tree keeps pod-local traffic off the spine.
    """
    n_groups = (n_cells + topology.group_size - 1) // topology.group_size
    source, sink, core = range(2 * n_cells, 2 * n_cells + 3)
    up = core + 1
    down = up + n_groups
    kernel = FlowKernel(down + n_groups)
    for cell in range(n_cells):
        group = cell // topology.group_size
        demand = demands.get(cell, 0)
        if demand > 0:
            kernel.add_arc(source, cell, demand)
            kernel.add_arc(cell, up + group, topology.uplink)
        spare = spares.get(cell, 0)
        if spare > 0:
            kernel.add_arc(down + group, n_cells + cell, topology.uplink)
            kernel.add_arc(n_cells + cell, sink, spare)
    pod_capacity = topology.uplink * topology.group_size
    for group in range(n_groups):
        kernel.add_arc(up + group, down + group, pod_capacity)
        if n_groups > 1:
            kernel.add_arc(up + group, core, topology.trunk)
            kernel.add_arc(core, down + group, topology.trunk)
    return kernel, source, sink


def solve_spill(
    demands: Mapping[int, int],
    spares: Mapping[int, int],
    *,
    topology: SpillTopology,
    n_cells: int,
    counter: OpCounter | None = None,
) -> dict[tuple[int, int], int]:
    """Max-flow spill routing: how many requests go origin -> host.

    Returns ``{(origin_cell, host_cell): count}`` covering the largest
    demand volume the reduced network admits; what the flow leaves
    behind is genuinely unplaceable this round (no spare reachable
    within pod/trunk capacity) and the broker fails it.  The result is
    deterministic: the network is built in cell order, and Dinic's
    augmentation order and the decomposition's walk are functions of
    arc order alone.
    """
    total_demand = sum(demands.values())
    total_spare = sum(spares.values())
    if total_demand == 0 or total_spare == 0:
        return {}
    kernel, source, sink = build_spill_network(demands, spares, topology, n_cells)
    baseline = kernel.snapshot()
    kernel.max_flow(source, sink)
    kernel.charge(counter, baseline)
    to = kernel.to
    routes: dict[tuple[int, int], int] = {}
    for path in kernel.decompose(source, sink, range(0, kernel.n_arcs, 2)):
        # A path leaves the source into an origin cell and reaches the
        # sink from a destination cell.
        key = (to[path[0]], to[path[-1] ^ 1] - n_cells)
        routes[key] = routes.get(key, 0) + 1
    return routes
