"""Goldberg–Tarjan push–relabel maximum flow (FIFO active-node rule).

A third, structurally independent max-flow solver: unlike the
augmenting-path family (Ford–Fulkerson, Dinic), push–relabel maintains
a *preflow* and node height labels, pushing excess downhill and
relabeling stuck nodes.  The paper predates it (Goldberg & Tarjan,
1988 — contemporaneous with the journal version), but it provides the
test suite a solver with no shared machinery to cross-validate the
others, and the ablation benchmark a modern comparison point.

Highest-level details implemented: FIFO active queue, gap-free simple
relabeling, and the standard ``height[s] = |V|`` initialisation with
source saturation.  Complexity ``O(|V|^2 |E|)`` — worse on paper than
Dinic's unit-network bound, usually competitive in practice.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.flows.maxflow import MaxFlowResult
from repro.util.counters import OpCounter

__all__ = ["push_relabel"]

Node = Hashable


def push_relabel(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    counter: OpCounter | None = None,
) -> MaxFlowResult:
    """Maximum flow by FIFO push–relabel.

    Mutates ``net``'s flow in place and returns a
    :class:`~repro.flows.maxflow.MaxFlowResult` (``augmentations``
    counts *pushes*).  The network's current flow must be zero (the
    preflow initialisation assumes it).
    """
    for arc in net.arcs:
        if arc.flow != 0:
            raise ValueError("push_relabel requires a zero initial flow")
    if source not in net or sink not in net or source == sink:
        return MaxFlowResult(value=0, augmentations=0)

    n = net.n_nodes
    height: dict[Node, int] = {v: 0 for v in net.nodes}
    excess: dict[Node, int] = {v: 0 for v in net.nodes}
    height[source] = n

    # Saturate every source out-arc.
    pushes = 0
    active: deque[Node] = deque()
    for arc in net.out_arcs(source):
        if arc.capacity <= 0:
            continue
        arc.flow = arc.capacity
        excess[arc.head] += arc.capacity
        excess[source] -= arc.capacity
        if arc.head not in (source, sink) and arc.head not in active:
            active.append(arc.head)
        pushes += 1

    # Per-node residual move lists with a current-arc cursor.
    moves: dict[Node, list[tuple[Arc, bool]]] = {
        v: list(net.incident(v)) for v in net.nodes
    }
    cursor: dict[Node, int] = {v: 0 for v in net.nodes}

    def push(v: Node, arc: Arc, forward: bool) -> None:
        nonlocal pushes
        w = arc.head if forward else arc.tail
        delta = min(excess[v], arc.residual(forward))
        if forward:
            arc.flow += delta
        else:
            arc.flow -= delta
        excess[v] -= delta
        excess[w] += delta
        pushes += 1
        if counter is not None:
            counter.charge("push")
        if w not in (source, sink) and excess[w] > 0 and w not in active:
            active.append(w)

    while active:
        v = active.popleft()
        while excess[v] > 0:
            if cursor[v] == len(moves[v]):
                # Relabel: one above the lowest admissible neighbour.
                if counter is not None:
                    counter.charge("relabel")
                best = None
                for arc, forward in moves[v]:
                    if arc.residual(forward) <= 0:
                        continue
                    w = arc.head if forward else arc.tail
                    if best is None or height[w] < best:
                        best = height[w]
                if best is None:
                    break  # isolated excess; cannot route anywhere
                height[v] = best + 1
                cursor[v] = 0
                continue
            arc, forward = moves[v][cursor[v]]
            w = arc.head if forward else arc.tail
            if arc.residual(forward) > 0 and height[v] == height[w] + 1:
                push(v, arc, forward)
            else:
                cursor[v] += 1
        # Re-queueing is handled inside push(); a node that exits the
        # loop with zero excess is simply done for now.

    return MaxFlowResult(value=net.flow_value(source), augmentations=pushes)
