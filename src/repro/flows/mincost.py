"""Minimum-cost flow by successive shortest paths (Section III-C).

Transformation 2 reduces priority/preference scheduling to finding a
minimum-cost flow of prescribed value ``F0`` (the number of pending
requests).  The paper's named algorithm lives in
:mod:`repro.flows.out_of_kilter` and the scheduler's default in
:mod:`repro.flows.kernel`; this module holds the object-graph solver
kept as the independent check on both, and their shared contract:

- :func:`min_cost_flow` — successive shortest augmenting paths with
  node potentials (Bellman–Ford initialisation, Dijkstra per
  augmentation).  This is the primal–dual method; with integral
  capacities it returns an integral assignment, the property Theorem 3
  relies on.  The test suite checks it against NetworkX and against
  out-of-kilter, and ``bench/``'s output checks use it as the
  independent solver on every priority instance.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.flows.maxflow import augment_along
from repro.util.counters import OpCounter

__all__ = ["MinCostResult", "InfeasibleFlowError", "flow_demanded", "min_cost_flow"]

Node = Hashable


class InfeasibleFlowError(ValueError):
    """Raised when the requested flow value cannot be circulated."""


@dataclass
class MinCostResult:
    """Outcome of a min-cost flow computation.

    Attributes
    ----------
    value:
        Flow value actually circulated.
    cost:
        Total cost ``sum w(e) f(e)`` of the final assignment.
    augmentations:
        Number of augmentations: shortest paths here, breakthrough
        cycles in out-of-kilter.
    """

    value: int
    cost: float
    augmentations: int


def flow_demanded(net: FlowNetwork, source: Node, sink: Node, target_flow: int | None) -> bool:
    """Check a min-cost request; ``False`` when the zero flow answers it.

    The contract all ``MINCOST_ALGORITHMS`` entries open with: a
    negative target or a non-zero initial flow is a ``ValueError``; an
    explicit target is a demand on terminals that must exist, and a
    positive one cannot be met from a node to itself
    (:class:`InfeasibleFlowError`); target 0 touches nothing.  ``None``
    (SSP's "as much as fits") demands nothing of degenerate terminals.
    """
    if target_flow is not None and target_flow < 0:
        raise ValueError(f"negative target flow {target_flow}")
    if any(arc.flow != 0 for arc in net.arcs):
        raise ValueError("min-cost flow requires a zero initial flow")
    missing = source not in net or sink not in net
    if target_flow is None:
        return not missing and source != sink
    if missing:
        raise InfeasibleFlowError("terminal missing from network")
    if target_flow > 0 and source == sink:
        raise InfeasibleFlowError(f"no flow can be circulated from {source!r} to itself")
    return target_flow > 0


def _move_cost(arc: Arc, forward: bool) -> float:
    """Cost of one unit along a residual move (cancellation refunds)."""
    return arc.cost if forward else -arc.cost


def _bellman_ford_potentials(net: FlowNetwork, source: Node) -> dict[Node, float]:
    """Shortest-path distances from ``source`` over the residual graph.

    Plain Bellman–Ford; detects negative residual cycles, which cannot
    occur at a zero flow unless the input itself has a negative-cost
    cycle of positive capacity (rejected, since none of the paper's
    transformations produce one).
    """
    dist: dict[Node, float] = {node: math.inf for node in net.nodes}
    dist[source] = 0.0
    n = net.n_nodes
    for i in range(n):
        changed = False
        for arc in net.arcs:
            for forward in (True, False):
                if arc.residual(forward) <= 0:
                    continue
                u, v = (arc.tail, arc.head) if forward else (arc.head, arc.tail)
                cand = dist[u] + _move_cost(arc, forward)
                if cand < dist[v] - 1e-12:
                    dist[v] = cand
                    changed = True
        if not changed:
            return dist
    raise ValueError("negative-cost residual cycle: problem is unbounded below")


def _dijkstra(
    net: FlowNetwork,
    source: Node,
    potential: dict[Node, float],
    counter: OpCounter | None,
) -> tuple[dict[Node, float], dict[Node, tuple[Node, Arc, bool]]]:
    """Reduced-cost Dijkstra over the residual graph.

    Returns (distance map over reachable nodes, predecessor map).
    Reduced costs ``c(e) + pi(u) - pi(v)`` are nonnegative by the
    potential invariant, so Dijkstra is valid even with cancellation
    moves of negative raw cost.
    """
    dist: dict[Node, float] = {source: 0.0}
    pred: dict[Node, tuple[Node, Arc, bool]] = {}
    done: set[Node] = set()
    tie = itertools.count()
    heap: list[tuple[float, int, Node]] = [(0.0, next(tie), source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if counter is not None:
            counter.charge("node_visit")
        for arc, forward in net.incident(node):
            if counter is not None:
                counter.charge("arc_scan")
            if arc.residual(forward) <= 0:
                continue
            nxt = arc.head if forward else arc.tail
            if nxt in done:
                continue
            reduced = _move_cost(arc, forward) + potential[node] - potential[nxt]
            if reduced < -1e-7:
                raise AssertionError(
                    f"negative reduced cost {reduced} on {arc!r}: potential invariant broken"
                )
            cand = d + max(reduced, 0.0)
            if cand < dist.get(nxt, math.inf) - 1e-12:
                dist[nxt] = cand
                pred[nxt] = (node, arc, forward)
                heapq.heappush(heap, (cand, next(tie), nxt))
    return dist, pred


def min_cost_flow(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    target_flow: int | None = None,
    counter: OpCounter | None = None,
) -> MinCostResult:
    """Circulate flow from ``source`` to ``sink`` at minimum total cost.

    With ``target_flow`` given, exactly that value is pushed (raising
    :class:`InfeasibleFlowError` if the network cannot carry it) — the
    paper's formulation with fixed ``F0``.  Without it, the maximum
    flow is found and, among maximum flows, one of minimum cost: the
    successive-shortest-path invariant guarantees every intermediate
    flow value is reached at its own minimum cost.

    The network's current flow must be zero (the potential
    initialisation assumes it); call :meth:`FlowNetwork.zero_flow`
    first when reusing a network.
    """
    if not flow_demanded(net, source, sink, target_flow):
        return MinCostResult(0, 0.0, 0)
    if any(arc.cost < 0 for arc in net.arcs):
        potential = _bellman_ford_potentials(net, source)
    else:
        potential = {node: 0.0 for node in net.nodes}
    value = 0
    augmentations = 0
    while target_flow is None or value < target_flow:
        dist, pred = _dijkstra(net, source, potential, counter)
        if sink not in dist:
            if target_flow is not None:
                raise InfeasibleFlowError(
                    f"only {value} of {target_flow} units can be circulated"
                )
            break
        # Reconstruct the shortest residual path.
        path: list[tuple[Arc, bool]] = []
        node = sink
        while node != source:
            prev, arc, forward = pred[node]
            path.append((arc, forward))
            node = prev
        path.reverse()
        amount = min(arc.residual(forward) for arc, forward in path)
        if target_flow is not None:
            amount = min(amount, target_flow - value)
        augment_along(path, amount)
        if counter is not None:
            counter.charge("augmentation")
            counter.charge("arc_update", len(path))
        value += amount
        augmentations += 1
        # Update potentials with the new distances; nodes unreachable in
        # this round can never become reachable again (flow only changed
        # on reachable nodes), so their stale potentials are harmless.
        for node, d in dist.items():
            potential[node] += d
    return MinCostResult(value=value, cost=net.total_cost(), augmentations=augmentations)
