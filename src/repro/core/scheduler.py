"""The optimal scheduler facade — the paper's Table II dispatch.

==============================  ============================  ==========================
Scheduling discipline           Equivalent flow problem        Algorithms
==============================  ============================  ==========================
Homogeneous, no priority        Maximum flow                   Dinic (kernel); Ford–Fulkerson
Homogeneous, priority/pref.     Min-cost flow                  Primal-dual (kernel); out-of-kilter
Heterogeneous, restricted       Real multicommodity LP         Per-type Dinic (kernel), certified; else Simplex
Heterogeneous, general          Integer multicommodity         Branch & bound (NP-hard)
Heterogeneous + priority        Multicommodity min-cost LP     Simplex (no kernel route); else B & B
==============================  ============================  ==========================

:class:`OptimalScheduler` inspects the MRSIN (heterogeneous? priorities
in play?) and runs the matching transformation + solver, returning a
:class:`~repro.core.mapping.Mapping` ready for
:meth:`~repro.core.model.MRSIN.apply_mapping`.  By default the two
homogeneous rows never build a :class:`~repro.flows.graph.FlowNetwork`:
:func:`~repro.core.transform.lower_to_kernel` emits Transformation 1 /
2 straight onto a :class:`~repro.flows.kernel.FlowKernel` (the lowering
the warm engine builds on too), the kernel solves, and one array walk
reads the mapping back.  That route is the ``"kernel"`` value of
``maxflow=`` / ``mincost=``, not a table entry: the two tables hold the
object solvers only — Dinic, Edmonds–Karp, Ford–Fulkerson,
push-relabel, out-of-kilter, SSP — which run on the object
transformations and are the oracles the default is tested against.

The heterogeneous row first solves one kernel max flow per requested
type on the same lowering, freezing the paths earlier types took.  The
total is kept only when it equals ``min(F_all, sum F_k)`` — the
type-blind max flow and the per-type max flows, each an upper bound on
the LP optimum — and is then optimal; otherwise the multicommodity LP
runs exactly as the paper describes, branch and bound included.  With
priorities the LP always runs: a kernel route would pick a different
optimum among equal-cost ties, and the service's pinned traces record
the LP's.  A fractional min-cost optimum goes to the same branch and
bound, minimising cost.

Fault tolerance falls out of the reduction for free: failed links,
switchboxes, and resources enter every transformation at capacity 0
(see :func:`repro.core.transform.lower_to_kernel`), so each solve
is exactly the same flow problem on the *surviving* subnetwork and the
mapping extracted is optimal for the degraded system — the paper's
untagged-request premise ("any free resource of a type will do") is
what makes rerouting around faults automatic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Hashable, Sequence

from repro.core.mapping import Mapping
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.transform import (
    extract_mapping,
    extract_multicommodity_mapping,
    heterogeneous_max_problem,
    heterogeneous_min_cost_problem,
    kernel_mapping,
    lower_to_kernel,
    transformation1,
    transformation2,
)
from repro.core.incremental import KernelFlowEngine
from repro.flows.dinic import dinic
from repro.flows.lp import LPStatus
from repro.flows.maxflow import edmonds_karp, ford_fulkerson
from repro.flows.mincost import MinCostResult, min_cost_flow
from repro.flows.multicommodity import (
    solve_integral_multicommodity,
    solve_max_multicommodity,
    solve_min_cost_multicommodity,
)
from repro.flows.out_of_kilter import out_of_kilter
from repro.flows.push_relabel import push_relabel
from repro.flows.validate import FlowViolation, check_flow, is_integral
from repro.util.counters import OpCounter

__all__ = ["Discipline", "OptimalScheduler", "SchedulerStats"]


class Discipline(enum.Enum):
    """The four scheduling disciplines of Table II."""

    HOMOGENEOUS = "homogeneous"
    PRIORITY = "homogeneous+priority"
    HETEROGENEOUS = "heterogeneous"
    HETEROGENEOUS_PRIORITY = "heterogeneous+priority"


@dataclass
class SchedulerStats:
    """Bookkeeping from the last :meth:`OptimalScheduler.schedule` call."""

    discipline: Discipline | None = None
    flow_value: float = 0.0
    flow_cost: float = 0.0
    n_requests: int = 0
    n_allocated: int = 0


# The object-graph max-flow solvers, each called as
# ``solver(net, source, sink, counter=)``.  The default of ``maxflow=``
# and ``mincost=``, "kernel", is an entry of neither table: that route
# lowers with no object graph.
MAXFLOW_ALGORITHMS = {
    "dinic": dinic,
    "edmonds_karp": edmonds_karp,
    "ford_fulkerson": ford_fulkerson,
    "push_relabel": push_relabel,
}

# Each is called as ``solver(net, source, sink, target_flow=F0, counter=)``.
MINCOST_ALGORITHMS: dict[str, Callable[..., MinCostResult]] = {
    # The algorithm Table II names; the kernel's differential oracle
    # and what MonitorScheduler's instruction counts are about.
    "out_of_kilter": out_of_kilter,
    # Object-graph successive shortest paths: the independent solver
    # bench/solve.py checks the default's count and cost against.
    "ssp": min_cost_flow,
}


class OptimalScheduler:
    """Optimal request→resource mapping via network-flow reductions.

    Parameters
    ----------
    maxflow:
        ``"kernel"`` (default — Dinic on the flat-array kernel, lowered
        without an object graph), or a key of
        :data:`MAXFLOW_ALGORITHMS`, an object-graph oracle: ``"dinic"``
        (the algorithm the paper's distributed architecture realises),
        ``"edmonds_karp"``, ``"ford_fulkerson"``, ``"push_relabel"``.
    mincost:
        ``"kernel"`` (default — primal-dual shortest paths on the
        flat-array kernel, lowered the same way), or a key of
        :data:`MINCOST_ALGORITHMS`, an object-graph oracle:
        ``"out_of_kilter"`` (the paper's named algorithm) or ``"ssp"``
        (successive shortest paths).
    counter:
        Optional :class:`~repro.util.counters.OpCounter` charged with
        abstract operations (the monitor architecture's cost model).
    """

    def __init__(
        self,
        *,
        maxflow: str = "kernel",
        mincost: str = "kernel",
        counter: OpCounter | None = None,
    ) -> None:
        if maxflow != "kernel" and maxflow not in MAXFLOW_ALGORITHMS:
            raise ValueError(f"unknown maxflow algorithm {maxflow!r}")
        if mincost != "kernel" and mincost not in MINCOST_ALGORITHMS:
            raise ValueError(f"unknown mincost algorithm {mincost!r}")
        self.maxflow = maxflow
        self.mincost = mincost
        self.counter = counter
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    def classify(self, mrsin: MRSIN, requests: Sequence[Request] | None = None) -> Discipline:
        """Which Table II row applies to this system right now."""
        reqs = mrsin.schedulable_requests() if requests is None else list(requests)
        hetero = len({r.resource_type for r in reqs}) > 1 or mrsin.is_heterogeneous
        priority = any(r.priority != 1 for r in reqs) or any(
            res.preference != 1 for res in mrsin.resources
        )
        if hetero and priority:
            return Discipline.HETEROGENEOUS_PRIORITY
        if hetero:
            return Discipline.HETEROGENEOUS
        if priority:
            return Discipline.PRIORITY
        return Discipline.HOMOGENEOUS

    def schedule(
        self,
        mrsin: MRSIN,
        requests: Sequence[Request] | None = None,
        *,
        discipline: Discipline | None = None,
    ) -> Mapping:
        """Compute the optimal mapping for the current cycle.

        ``requests`` defaults to
        :meth:`~repro.core.model.MRSIN.schedulable_requests`.  The
        discipline is auto-detected unless forced (e.g. to run the
        priority machinery on a priority-free instance in ablations).
        """
        reqs = mrsin.schedulable_requests() if requests is None else list(requests)
        if discipline is None:
            discipline = self.classify(mrsin, reqs)
        self.stats = SchedulerStats(discipline=discipline, n_requests=len(reqs))
        if not reqs:
            return Mapping()
        if discipline is Discipline.HOMOGENEOUS:
            mapping = self._schedule_homogeneous(mrsin, reqs)
        elif discipline is Discipline.PRIORITY:
            mapping = self._schedule_priority(mrsin, reqs)
        elif discipline is Discipline.HETEROGENEOUS:
            mapping = self._schedule_heterogeneous(mrsin, reqs)
        else:
            mapping = self._schedule_heterogeneous_priority(mrsin, reqs)
        self.stats.n_allocated = len(mapping)
        return mapping

    def schedule_incremental(
        self,
        mrsin: MRSIN,
        requests: Sequence[Request] | None = None,
        *,
        engine: KernelFlowEngine,
    ) -> Mapping:
        """Warm-start variant of :meth:`schedule`.

        Homogeneous cycles are solved on ``engine``'s persistent
        network — usually 0–2 Dinic phases atop the standing flow
        instead of a full rebuild-and-solve — and allocate exactly as
        many requests as the cold path would on the same state.  Any
        other discipline takes the cold per-cycle solve: priorities a
        fresh kernel min-cost flow, heterogeneity the certified per-type
        kernel max flows (or, uncertified or prioritised, the LP).

        Either way the caller must apply the returned mapping and then
        call ``engine.commit(mapping)`` so the persistent flow keeps
        tracking the physical circuits.
        """
        reqs = mrsin.schedulable_requests() if requests is None else list(requests)
        discipline = self.classify(mrsin, reqs)
        if discipline is not Discipline.HOMOGENEOUS:
            return self.schedule(mrsin, reqs, discipline=discipline)
        self.stats = SchedulerStats(discipline=discipline, n_requests=len(reqs))
        if not reqs:
            return Mapping()
        mapping = engine.schedule(reqs)
        self.stats.flow_value = engine.last_new_flow
        self.stats.n_allocated = len(mapping)
        return mapping

    # ------------------------------------------------------------------
    def _schedule_on_kernel(
        self, mrsin: MRSIN, reqs: Sequence[Request], *, priced: bool
    ) -> Mapping:
        """Rows 1-2 on the ``"kernel"`` route: lower, solve, read the paths.

        Row 1 is :meth:`FlowKernel.unit_paths
        <repro.flows.kernel.FlowKernel.unit_paths>`, the warm engine's
        solve: the network's wiring-time levels stand in for the first
        BFS, ``min(requests, sink arcs)`` for the last, and the
        augmenting paths, certified, for the walk.  Row 2's min-cost
        flow is walked back by :meth:`FlowKernel.decompose
        <repro.flows.kernel.FlowKernel.decompose>`.
        """
        lowered = lower_to_kernel(mrsin, reqs, priced=priced)
        kernel, s, t = lowered.kernel, lowered.source, lowered.sink
        baseline = kernel.snapshot()
        if priced:
            value, cost = kernel.min_cost_flow(s, t, lowered.cost, len(reqs))
            self.stats.flow_cost = float(cost)
            paths = kernel.decompose(s, t, range(0, kernel.n_arcs, 2))
            # A real exception, not an assert: it guards circuit
            # realisability and must survive `python -O`.
            if len(paths) != value:
                raise FlowViolation(f"a flow of value {value} decomposed into {len(paths)} units")
        else:
            paths = kernel.unit_paths(
                s, t, levels=mrsin.network.flow_levels,
                value_bound=min(len(reqs), len(lowered.sink_arc)),
            )
        kernel.charge(self.counter, baseline)
        self.stats.flow_value = len(paths)
        request_of = {req.processor: req for req in reqs}
        return kernel_mapping(paths, lowered.link_of_arc, request_of, mrsin)

    def _schedule_homogeneous(self, mrsin: MRSIN, reqs: Sequence[Request]) -> Mapping:
        if self.maxflow == "kernel":
            return self._schedule_on_kernel(mrsin, reqs, priced=False)
        problem = transformation1(mrsin, reqs)
        algorithm = MAXFLOW_ALGORITHMS[self.maxflow]
        result = algorithm(problem.net, problem.source, problem.sink, counter=self.counter)
        # Real exceptions, not asserts: these integrality/legality
        # checks guard circuit realisability and must survive `python -O`.
        if not is_integral(problem.net):
            raise FlowViolation("unit-capacity max flow must be integral")
        check_flow(problem.net, problem.source, problem.sink)
        self.stats.flow_value = result.value
        return extract_mapping(problem, mrsin)

    def _schedule_priority(self, mrsin: MRSIN, reqs: Sequence[Request]) -> Mapping:
        if self.mincost == "kernel":
            return self._schedule_on_kernel(mrsin, reqs, priced=True)
        problem = transformation2(mrsin, reqs)
        if problem.required_flow is None:
            raise ValueError("transformation2 produced no required flow F0")
        algorithm = MINCOST_ALGORITHMS[self.mincost]
        result = algorithm(
            problem.net, problem.source, problem.sink,
            target_flow=problem.required_flow, counter=self.counter,
        )
        if not is_integral(problem.net):
            raise FlowViolation("0-1 min-cost flow must be integral")
        check_flow(problem.net, problem.source, problem.sink)
        self.stats.flow_value = result.value
        self.stats.flow_cost = result.cost
        return extract_mapping(problem, mrsin)

    def _schedule_typed_on_kernel(self, mrsin: MRSIN, reqs: Sequence[Request]) -> Mapping | None:
        """Row 3 as one kernel max flow per type; ``None`` unless certified.

        The types are solved one after another on one lowering: each
        opens its own source and sink arcs, and the paths earlier types
        took are frozen, as the warm engine freezes granted circuits.
        The type-blind max flow ``F_all`` (every request, every free
        resource of a requested type) and the per-type max flows ``F_k``
        each bound the integral optimum and the LP's from above, so a
        total reaching ``min(F_all, sum F_k)`` is optimal.  Every type
        order is tried when there are at most three types.  Each type's
        solve is row 1's :meth:`FlowKernel.unit_paths
        <repro.flows.kernel.FlowKernel.unit_paths>`, bounded by the
        type's requests.
        """
        lowered = lower_to_kernel(mrsin, reqs)
        kernel, s, t = lowered.kernel, lowered.source, lowered.sink
        cap, base = kernel.cap, kernel.base
        types = list(dict.fromkeys(req.resource_type for req in reqs))
        # Each type's source and sink arcs (the lowering left out the
        # sink arcs of types nobody asks for).
        gates: dict[Hashable, list[int]] = {rtype: [] for rtype in types}
        for req in reqs:
            gates[req.resource_type].append(lowered.source_arc[req.processor])
        asking = {rtype: len(gate) for rtype, gate in gates.items()}
        for r, a in lowered.sink_arc.items():
            gates[mrsin.resources[r].resource_type].append(a)
        levels = mrsin.network.flow_levels

        def solve_in(order: Sequence[Hashable]) -> list[list[int]]:
            kernel.reset()
            for gate in gates.values():
                for a in gate:
                    cap[a] = 0
            found: list[list[int]] = []
            for rtype in order:
                for a in gates[rtype]:
                    cap[a] = base[a]
                paths = kernel.unit_paths(s, t, levels=levels, value_bound=asking[rtype])
                for path in paths:
                    for a in path:
                        cap[a] = cap[a ^ 1] = 0
                for a in gates[rtype]:
                    cap[a] = 0
                found += paths
            return found

        baseline = kernel.snapshot()
        # F_all runs first, on the fresh lowering; solve_in resets it.
        bound = min(kernel.max_flow(s, t), sum(len(solve_in([rtype])) for rtype in types))
        orders = permutations(types) if len(types) <= 3 else [types]
        certified = next((paths for paths in map(solve_in, orders) if len(paths) == bound), None)
        kernel.charge(self.counter, baseline)
        if certified is None:
            return None
        self.stats.flow_value = bound
        request_of = {req.processor: req for req in reqs}
        return kernel_mapping(certified, lowered.link_of_arc, request_of, mrsin)

    def _schedule_heterogeneous(self, mrsin: MRSIN, reqs: Sequence[Request]) -> Mapping:
        mapping = self._schedule_typed_on_kernel(mrsin, reqs)
        if mapping is not None:
            return mapping
        problem, meta = heterogeneous_max_problem(mrsin, reqs)
        result = solve_max_multicommodity(problem)
        if result.status is not LPStatus.OPTIMAL:
            raise FlowViolation(f"multicommodity LP stopped {result.status.value}, not optimal")
        if not result.integral:
            # General-topology fallback: the NP-hard integral problem,
            # via branch and bound on the LP relaxation.
            result = solve_integral_multicommodity(problem)
        self.stats.flow_value = result.total_flow
        return extract_multicommodity_mapping(result, problem, meta, mrsin)

    def _schedule_heterogeneous_priority(self, mrsin: MRSIN, reqs: Sequence[Request]) -> Mapping:
        problem, meta = heterogeneous_min_cost_problem(mrsin, reqs)
        result = solve_min_cost_multicommodity(problem)
        if result.status is not LPStatus.OPTIMAL:
            raise FlowViolation(f"multicommodity LP stopped {result.status.value}, not optimal")
        if not result.integral:
            # The same branch and bound as row 3, minimising cost.
            result = solve_integral_multicommodity(problem)
        self.stats.flow_value = result.total_flow
        # Integral flows at integral prices: report the cost as a whole
        # number, not the simplex's rounding residue.
        self.stats.flow_cost = float(round(result.cost))
        return extract_multicommodity_mapping(result, problem, meta, mrsin)
