"""Fulkerson's out-of-kilter algorithm (the paper's Section III-C solver).

The paper: *"Edmonds and Karp have developed a scaled out-of-kilter
algorithm to obtain the minimum cost flow of a general flow network in
polynomial time.  For a flow network of 0-1 capacity, the time
complexity is bounded by O(|V| |E|^2)."*  We implement the classic
(unscaled) out-of-kilter method, which suffices for the 0–1 networks
produced by Transformation 2.  It is selectable (``mincost=
"out_of_kilter"``), the differential oracle of the scheduler's default
(:mod:`repro.flows.kernel`), and what ``MonitorScheduler`` costs.

The method works on a *circulation* network where every arc has bounds
``l(e) <= f(e) <= u(e)`` and a cost, with node potentials ``pi``.
Every arc is classified by its reduced cost
``cbar(e) = c(e) + pi(tail) - pi(head)``:

- ``cbar > 0`` — in kilter iff ``f = l``;
- ``cbar = 0`` — in kilter iff ``l <= f <= u``;
- ``cbar < 0`` — in kilter iff ``f = u``.

The *kilter number* measures the violation.  The algorithm repeatedly
selects an out-of-kilter arc and alternates primal steps (augment
around a cycle through the arc, found by a labeling search that never
worsens any kilter number) with dual steps (potential updates) until
every arc is in kilter — at which point complementary slackness makes
the circulation cost-optimal.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.flows.mincost import InfeasibleFlowError, MinCostResult, flow_demanded
from repro.util.counters import OpCounter

__all__ = ["out_of_kilter", "min_cost_circulation"]

Node = Hashable
EPS = 1e-9


def _reduced_cost(arc: Arc, pi: dict[Node, float]) -> float:
    """``cbar(e) = c(e) + pi(tail) - pi(head)``."""
    return arc.cost + pi[arc.tail] - pi[arc.head]


def _kilter_number(arc: Arc, cbar: float) -> float:
    """Distance of the arc from its kilter condition."""
    if cbar > EPS:
        return abs(arc.flow - arc.lower)
    if cbar < -EPS:
        return abs(arc.capacity - arc.flow)
    return max(arc.flow - arc.capacity, arc.lower - arc.flow, 0.0)


def _needs_increase(arc: Arc, cbar: float) -> bool:
    """Whether fixing this out-of-kilter arc requires raising its flow."""
    if cbar > EPS:
        return arc.flow < arc.lower - EPS
    if cbar < -EPS:
        return arc.flow < arc.capacity - EPS
    return arc.flow < arc.lower - EPS


def _forward_slack(arc: Arc, cbar: float) -> float:
    """How much the labeling search may *increase* this arc's flow."""
    if cbar > EPS:
        # Raising flow is only kilter-improving while below the lower bound.
        return max(arc.lower - arc.flow, 0.0)
    return max(arc.capacity - arc.flow, 0.0)


def _backward_slack(arc: Arc, cbar: float) -> float:
    """How much the labeling search may *decrease* this arc's flow."""
    if cbar < -EPS:
        # Lowering flow is only kilter-improving while above the capacity.
        return max(arc.flow - arc.capacity, 0.0)
    return max(arc.flow - arc.lower, 0.0)


def min_cost_circulation(
    net: FlowNetwork,
    *,
    counter: OpCounter | None = None,
) -> float:
    """Find a minimum-cost feasible circulation by the out-of-kilter method.

    Mutates ``net``'s flow in place (starting from the current, possibly
    infeasible, assignment) and returns the final total cost.  Raises
    :class:`InfeasibleFlowError` when no circulation satisfies the
    bounds.
    """
    pi: dict[Node, float] = {node: 0.0 for node in net.nodes}
    # Generous polynomial bound; out-of-kilter on integral data
    # terminates well within it.  Guards against silent nontermination.
    max_steps = 20 * (net.n_nodes + 5) * (net.n_arcs + 5) ** 2 + 10_000
    steps = 0
    while True:
        target_arc = None
        for arc in net.arcs:
            cbar = _reduced_cost(arc, pi)
            if _kilter_number(arc, cbar) > EPS:
                target_arc = arc
                break
        if target_arc is None:
            return net.total_cost()
        # Fix this arc, alternating labeling and potential updates.
        while True:
            steps += 1
            if steps > max_steps:
                raise RuntimeError("out-of-kilter failed to terminate (step cap hit)")
            if counter is not None:
                counter.charge("kilter_step")
            cbar0 = _reduced_cost(target_arc, pi)
            if _kilter_number(target_arc, cbar0) <= EPS:
                break
            increase = _needs_increase(target_arc, cbar0)
            if increase:
                start, goal = target_arc.head, target_arc.tail
                need = (
                    target_arc.lower - target_arc.flow
                    if cbar0 > EPS
                    else target_arc.capacity - target_arc.flow
                )
            else:
                start, goal = target_arc.tail, target_arc.head
                need = (
                    target_arc.flow - target_arc.capacity
                    if cbar0 < -EPS
                    else target_arc.flow - target_arc.lower
                )
            # Labeling search (BFS) over kilter-preserving moves.
            labeled: dict[Node, tuple[Node, Arc, bool] | None] = {start: None}
            queue: deque[Node] = deque([start])
            while queue and goal not in labeled:
                node = queue.popleft()
                if counter is not None:
                    counter.charge("node_visit")
                for arc, forward in net.incident(node):
                    if arc is target_arc:
                        continue
                    if counter is not None:
                        counter.charge("arc_scan")
                    cbar = _reduced_cost(arc, pi)
                    slack = _forward_slack(arc, cbar) if forward else _backward_slack(arc, cbar)
                    if slack <= EPS:
                        continue
                    nxt = arc.head if forward else arc.tail
                    if nxt not in labeled:
                        labeled[nxt] = (node, arc, forward)
                        queue.append(nxt)
            if goal in labeled:
                # Breakthrough: augment around the cycle through target_arc.
                path: list[tuple[Arc, bool]] = []
                cur = goal
                while cur != start:
                    prev, arc, forward = labeled[cur]  # type: ignore[misc]
                    path.append((arc, forward))
                    cur = prev
                delta = need
                for arc, forward in path:
                    cbar = _reduced_cost(arc, pi)
                    slack = _forward_slack(arc, cbar) if forward else _backward_slack(arc, cbar)
                    delta = min(delta, slack)
                for arc, forward in path:
                    arc.flow += delta if forward else -delta
                target_arc.flow += delta if increase else -delta
                if counter is not None:
                    counter.charge("augmentation")
            else:
                # Non-breakthrough: dual (potential) update.
                in_s = set(labeled)
                theta = math.inf
                for arc in net.arcs:
                    cbar = _reduced_cost(arc, pi)
                    if arc.tail in in_s and arc.head not in in_s:
                        if cbar > EPS and arc.flow < arc.capacity - EPS:
                            theta = min(theta, cbar)
                    elif arc.head in in_s and arc.tail not in in_s:
                        if cbar < -EPS and arc.flow > arc.lower + EPS:
                            theta = min(theta, -cbar)
                if not math.isfinite(theta):
                    raise InfeasibleFlowError(
                        "no feasible circulation: kilter state cannot be repaired"
                    )
                for node in pi:
                    if node not in in_s:
                        pi[node] += theta
                if counter is not None:
                    counter.charge("dual_update")


def out_of_kilter(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    target_flow: int,
    counter: OpCounter | None = None,
) -> MinCostResult:
    """Min-cost ``source``→``sink`` flow of value ``target_flow``.

    Implements the paper's usage: the s-t problem is closed into a
    circulation by a return arc ``t -> s`` with bounds
    ``[target_flow, target_flow]`` and zero cost, then
    :func:`min_cost_circulation` is run.  The temporary return arc is
    removed before returning, leaving a legal s-t flow on ``net``.
    """
    if not flow_demanded(net, source, sink, target_flow):
        return MinCostResult(0, 0.0, 0)
    return_arc = net.add_arc(sink, source, capacity=target_flow, lower=target_flow, cost=0.0)
    try:
        min_cost_circulation(net, counter=counter)
    finally:
        # Detach the temporary return arc; it is by construction the
        # most recently added arc, which is the only removal
        # FlowNetwork sanctions (arc indices are stable identifiers).
        net.pop_arc(return_arc)
    augmentations = counter["augmentation"] if counter is not None else 0
    return MinCostResult(value=net.flow_value(source), cost=net.total_cost(), augmentations=augmentations)
