"""The per-tick scheduling engine: Transformation 1 rewritten each cycle.

In the paper's Sec. IV the monitor schedules each cycle from the
network status it reads in that cycle — the switchboxes' per-port
status bits (Table I) — and carries nothing else from one cycle to the
next.  :class:`KernelFlowEngine` does the same on the flat-array
:class:`~repro.flows.kernel.FlowKernel`: it allocates one kernel from
the network's wiring-time layout
(:meth:`~repro.networks.topology.MultistageNetwork.flow_layout`) on its
first cycle, and every cycle rewrites that kernel's capacities from the
live :class:`~repro.core.model.MRSIN`:

- every arc closes (one slice assignment from the layout, reverse arcs
  included, so no flow survives a cycle);
- a link arc opens while its link is free and usable
  (:meth:`~repro.networks.topology.MultistageNetwork.open_links`), a
  sink arc while its resource is available, and a source arc for each
  request of the batch;
- one :meth:`FlowKernel.unit_paths
  <repro.flows.kernel.FlowKernel.unit_paths>` call solves and reads
  the augmenting paths back, with the network's wiring-time
  :attr:`~repro.networks.topology.MultistageNetwork.flow_levels` as
  the first phase and the batch size as the value bound.

Held circuits need no bookkeeping: their links are occupied and their
resources busy, so their arcs are closed in the rewrite.  The engine's
answer is therefore a function of the MRSIN and the batch alone, and
grants exactly as many requests as a cold
:meth:`OptimalScheduler.schedule
<repro.core.scheduler.OptimalScheduler.schedule>` of the same batch
(the differential tests check this every tick).  It differs from cold
Table II row 1 only in how ``s``'s arcs are linked: the layout's
adjacency, in processor order, where row 1 links only the batch's
source arcs, in request order.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.mapping import Mapping
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.transform import kernel_mapping
from repro.flows.kernel import FlowKernel
from repro.util.counters import OpCounter

__all__ = ["KernelFlowEngine"]


class KernelFlowEngine:
    """Homogeneous (Transformation 1 / max flow) cycles on one kernel.

    Parameters
    ----------
    mrsin:
        The system whose scheduling cycles this engine serves.  The
        engine reads its link and resource state each cycle and never
        mutates it.
    counter:
        Optional :class:`~repro.util.counters.OpCounter` charged with
        the solver operations of each solve (same cost model as the
        cold path).

    Priority or heterogeneous cycles are solved cold
    (:meth:`OptimalScheduler.schedule_incremental
    <repro.core.scheduler.OptimalScheduler.schedule_incremental>`
    dispatches).  Statistics: ``builds`` counts kernel allocations (1
    once the engine has scheduled), ``warm_ticks`` the cycles scheduled
    on the kernel, and ``last_new_flow`` the allocations found by the
    latest solve.
    """

    def __init__(self, mrsin: MRSIN, *, counter: OpCounter | None = None) -> None:
        self.mrsin = mrsin
        self.counter = counter
        self.builds = 0
        self.warm_ticks = 0
        self.last_new_flow = 0
        self._kernel: FlowKernel | None = None

    def schedule(self, requests: Sequence[Request]) -> Mapping:
        """One scheduling cycle on the live MRSIN: the optimal mapping.

        A request whose processor's input link is occupied or unusable
        goes unserved (its link arc is closed); the service's batch
        selection leaves such requests queued before they get here.
        """
        reqs = list(requests)
        procs = [r.processor for r in reqs]
        if len(set(procs)) != len(procs):
            raise ValueError("at most one request per processor per cycle (model item 5)")
        mrsin = self.mrsin
        network = mrsin.network
        layout = network.flow_layout()
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = layout.kernel.copy()
            self.builds += 1
        cap = kernel.cap
        cap[:] = layout.kernel.cap
        up = network.open_links()
        sink0 = layout.first_link + 2 * len(up)
        cap[layout.first_link:sink0:2] = up
        resources = mrsin.resources
        cap[sink0::2] = [1 if resources[r].available else 0 for r, _ in layout.sinks]
        for p in procs:
            cap[2 * p] = 1  # s -> (p, i); the layout's arc order
        baseline = kernel.snapshot()
        paths = kernel.unit_paths(
            0, 1, levels=network.flow_levels, value_bound=len(reqs)
        )
        kernel.charge(self.counter, baseline)
        mapping = kernel_mapping(
            paths, layout.link_of_arc, {r.processor: r for r in reqs}, mrsin
        )
        self.last_new_flow = len(paths)
        self.warm_ticks += 1
        return mapping

    # No-ops: each cycle reads what these report from the MRSIN.  They
    # stay until the benchmark's bare-engine replay stops calling them.
    def commit(self, mapping: Mapping) -> None:
        """No-op: an applied mapping shows as occupied links and busy resources."""

    def note_transmission_end(self, resource: int) -> None:
        """No-op: a torn-down circuit shows as free links."""

    def note_release(self, resource: int) -> None:
        """No-op: a freed resource shows as available."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelFlowEngine({self.mrsin.network.name!r}, "
            f"builds={self.builds}, warm_ticks={self.warm_ticks})"
        )
