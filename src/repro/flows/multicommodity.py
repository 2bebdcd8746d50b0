"""Multicommodity flow for heterogeneous MRSINs (Section III-D).

A heterogeneous MRSIN *"is equivalent to a flow network carrying
different types of commodities"*: one source–sink pair per resource
type, flows of different commodities sharing link capacity.  The paper
formulates both the multicommodity **maximum flow** and the
multicommodity **minimum cost flow** as linear programs and solves them
with the Simplex method; for *restricted topologies* (Evans–Jarvis
class, which includes the loop-free stage-structured MRSINs) the LP
optimum is integral, while the general integral problem is NP-hard —
handled here by a small branch-and-bound over the LP relaxation.

The LP uses the node–arc formulation exactly as printed in the paper:
variables ``f_i(e)`` per commodity and arc, conservation per node and
commodity, and the bundling constraint ``sum_i f_i(e) <= c(e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.flows.lp import LinearProgram, LPStatus, Sense
from repro.flows.simplex import simplex_solve

__all__ = [
    "Commodity",
    "MultiCommodityProblem",
    "MultiCommodityResult",
    "solve_max_multicommodity",
    "solve_min_cost_multicommodity",
    "solve_integral_multicommodity",
]

Node = Hashable
INT_TOL = 1e-6


@dataclass(frozen=True)
class Commodity:
    """One commodity: a resource type's source–sink pair.

    Attributes
    ----------
    name:
        Identifier (e.g. the resource type).
    source, sink:
        The commodity's ``s_i`` / ``t_i`` nodes in the shared network.
    demand:
        Required flow value for min-cost problems; ignored (may be
        ``None``) for maximum-flow problems.
    """

    name: Hashable
    source: Node
    sink: Node
    demand: float | None = None


@dataclass
class MultiCommodityProblem:
    """A shared-capacity network plus its commodities.

    Every commodity pays the arc's own ``cost`` as its unit cost
    ``w_i(e)``.
    """

    net: FlowNetwork
    commodities: list[Commodity]


@dataclass
class MultiCommodityResult:
    """Solution of a multicommodity problem.

    Attributes
    ----------
    status:
        LP status (branch-and-bound reports OPTIMAL or INFEASIBLE).
    flow_values:
        Per-commodity flow value ``F_i``, by commodity position.
    total_flow:
        ``sum_i F_i``.
    cost:
        Total cost ``sum_i sum_e w_i(e) f_i(e)``.
    arc_flows:
        ``(commodity index, arc index) -> flow``; zero entries omitted.
    integral:
        Whether every arc flow is integral (Evans–Jarvis topologies
        guarantee this for the pure LP).
    iterations:
        Simplex pivots (summed over branch-and-bound nodes, if any).
    nodes_explored:
        Branch-and-bound nodes (0 when the bare LP was integral).
    """

    status: LPStatus
    flow_values: list[float]
    total_flow: float
    cost: float
    arc_flows: dict[tuple[int, int], float]
    integral: bool
    iterations: int = 0
    nodes_explored: int = 0

    def commodity_flow(self, k: int, arc: Arc) -> float:
        """Flow of commodity ``k`` on ``arc`` (0.0 if absent)."""
        return self.arc_flows.get((k, arc.index), 0.0)


def _build_lp(
    problem: MultiCommodityProblem,
    *,
    maximize_total: bool,
    fixed_bounds: dict[tuple[str, int, int], tuple[float, float]] | None = None,
) -> LinearProgram:
    """Assemble the node–arc LP of Section III-D.

    ``maximize_total=True`` builds the multicommodity maximum flow
    problem (auxiliary ``F_i`` variables, objective ``sum F_i``);
    otherwise the min-cost problem with fixed demands.  ``fixed_bounds``
    lets branch-and-bound pin individual ``f_i(e)`` variables.
    """
    net = problem.net
    lp = LinearProgram(maximize=maximize_total)
    fixed_bounds = fixed_bounds or {}
    for k, com in enumerate(problem.commodities):
        for arc in net.arcs:
            key = ("f", k, arc.index)
            low, high = fixed_bounds.get(key, (0.0, arc.capacity))
            cost = 0.0 if maximize_total else arc.cost
            lp.add_variable(key, low=low, high=high, objective=cost)
        if maximize_total:
            lp.add_variable(("F", k), low=0.0, high=math.inf, objective=1.0)
    # Conservation per commodity and node (the paper's constraint 1).
    for k, com in enumerate(problem.commodities):
        for node in net.nodes:
            coeffs: dict[Hashable, float] = {}
            for arc in net.out_arcs(node):
                coeffs[("f", k, arc.index)] = coeffs.get(("f", k, arc.index), 0.0) + 1.0
            for arc in net.in_arcs(node):
                coeffs[("f", k, arc.index)] = coeffs.get(("f", k, arc.index), 0.0) - 1.0
            if node == com.source:
                if maximize_total:
                    coeffs[("F", k)] = -1.0
                    lp.add_constraint(coeffs, Sense.EQ, 0.0)
                else:
                    lp.add_constraint(coeffs, Sense.EQ, float(com.demand or 0.0))
            elif node == com.sink:
                if maximize_total:
                    coeffs[("F", k)] = 1.0
                    lp.add_constraint(coeffs, Sense.EQ, 0.0)
                else:
                    lp.add_constraint(coeffs, Sense.EQ, -float(com.demand or 0.0))
            else:
                lp.add_constraint(coeffs, Sense.EQ, 0.0)
    # Bundling: commodities share each arc's capacity (constraint 2).
    for arc in net.arcs:
        coeffs = {("f", k, arc.index): 1.0 for k in range(len(problem.commodities))}
        lp.add_constraint(coeffs, Sense.LE, arc.capacity)
    return lp


def _package(
    problem: MultiCommodityProblem,
    values: dict[Hashable, float],
    status: LPStatus,
    iterations: int,
) -> MultiCommodityResult:
    net = problem.net
    arc_flows: dict[tuple[int, int], float] = {}
    flow_values: list[float] = []
    cost = 0.0
    for k, com in enumerate(problem.commodities):
        out = 0.0
        for arc in net.arcs:
            f = values.get(("f", k, arc.index), 0.0)
            if abs(f) > INT_TOL:
                arc_flows[(k, arc.index)] = f
                cost += arc.cost * f
        for arc in net.out_arcs(com.source):
            out += values.get(("f", k, arc.index), 0.0)
        for arc in net.in_arcs(com.source):
            out -= values.get(("f", k, arc.index), 0.0)
        flow_values.append(out)
    integral = all(abs(f - round(f)) <= INT_TOL for f in arc_flows.values())
    return MultiCommodityResult(
        status=status,
        flow_values=flow_values,
        total_flow=sum(flow_values),
        cost=cost,
        arc_flows=arc_flows,
        integral=integral,
        iterations=iterations,
    )


def solve_max_multicommodity(problem: MultiCommodityProblem) -> MultiCommodityResult:
    """Multicommodity maximum flow: maximise ``sum_i F_i`` by LP.

    The LP relaxation; on Evans–Jarvis (restricted) topologies the
    result is already integral.  Use
    :func:`solve_integral_multicommodity` when integrality must be
    enforced on arbitrary networks.
    """
    lp = _build_lp(problem, maximize_total=True)
    res = simplex_solve(lp)
    return _package(problem, res.values, res.status, res.iterations)


def solve_min_cost_multicommodity(problem: MultiCommodityProblem) -> MultiCommodityResult:
    """Multicommodity minimum-cost flow with fixed per-commodity demands."""
    for com in problem.commodities:
        if com.demand is None:
            raise ValueError(f"commodity {com.name!r} needs a demand for the min-cost problem")
    lp = _build_lp(problem, maximize_total=False)
    res = simplex_solve(lp)
    return _package(problem, res.values, res.status, res.iterations)


def solve_integral_multicommodity(
    problem: MultiCommodityProblem,
    *,
    max_nodes: int = 2_000,
) -> MultiCommodityResult:
    """Integral multicommodity flow by branch-and-bound.

    Maximum flow, or, when every commodity carries a demand, minimum
    cost at those demands (the problem of
    :func:`solve_min_cost_multicommodity`); the incumbent and the bound
    follow the objective's sense.  The general problem is NP-hard (the
    paper cites this), so this is exponential in the worst case;
    ``max_nodes`` caps the search.  The LP relaxation provides bounds;
    branching fixes one fractional ``f_i(e)`` to ``floor`` or ``ceil``
    of its relaxed value (0/1 on unit-capacity networks).  A node whose
    LP stops at the simplex iteration limit raises ``RuntimeError``
    like an exhausted node budget: only an infeasible node may be
    pruned.
    """
    maximize = any(com.demand is None for com in problem.commodities)
    sign = 1.0 if maximize else -1.0  # search maximises sign * objective
    best: MultiCommodityResult | None = None
    best_value = -math.inf
    total_iter = 0
    explored = 0
    stack: list[dict[tuple[str, int, int], tuple[float, float]]] = [{}]
    while stack:
        if explored >= max_nodes:
            raise RuntimeError(f"branch-and-bound exceeded {max_nodes} nodes")
        bounds = stack.pop()
        explored += 1
        lp = _build_lp(problem, maximize_total=maximize, fixed_bounds=bounds)
        res = simplex_solve(lp)
        total_iter += res.iterations
        if res.status is LPStatus.ITERATION_LIMIT:
            raise RuntimeError(f"simplex hit its iteration limit at branch-and-bound node {explored}")
        if res.status is not LPStatus.OPTIMAL:
            continue  # infeasible under these bounds: prune
        if sign * res.objective <= best_value + INT_TOL:
            continue  # bound: cannot beat the incumbent
        fractional = None
        for key, val in res.values.items():
            if key[0] == "f" and abs(val - round(val)) > INT_TOL:
                fractional = key
                break
        if fractional is None:
            best = _package(problem, res.values, res.status, res.iterations)
            best_value = sign * res.objective
            continue
        val = res.values[fractional]
        lo_branch = dict(bounds)
        lo_branch[fractional] = (0.0, math.floor(val))
        hi_branch = dict(bounds)
        hi_branch[fractional] = (math.ceil(val), problem.net.arcs[fractional[2]].capacity)
        stack.append(lo_branch)
        stack.append(hi_branch)
    if best is None:
        return MultiCommodityResult(
            status=LPStatus.INFEASIBLE,
            flow_values=[0.0] * len(problem.commodities),
            total_flow=0.0,
            cost=0.0,
            arc_flows={},
            integral=True,
            iterations=total_iter,
            nodes_explored=explored,
        )
    best.iterations = total_iter
    best.nodes_explored = explored
    return best
