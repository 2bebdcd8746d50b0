"""Ford–Fulkerson maximum flow by augmenting-path search (Section III-B).

The paper describes Ford and Fulkerson's primal–dual scheme: *"the flow
value is increased by iteratively searching for flow augmenting paths
until the minimum cut-set of the network is saturated"*.  Two search
orders are provided:

- :func:`edmonds_karp` — breadth-first search, i.e. shortest
  augmenting path first; ``O(|V||E|^2)`` in general.  It is the
  subject of the paper's Fig. 3 walk-through (FIG3) and the max-flow
  oracle most of the test suite measures against.
- :func:`ford_fulkerson` — depth-first search, the classic labeling
  scheme.  On unit-capacity networks (every MRSIN transformation) the
  number of augmentations is bounded by the flow value, so both are
  fast; DFS is included because the distributed architecture's
  resource-token phase is a depth-first search and tests compare
  against it.

Both mutate the network's flow assignment in place and optionally
charge an :class:`~repro.util.counters.OpCounter` so the monitor
architecture's instruction-count cost model can be evaluated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.util.counters import OpCounter

__all__ = ["MaxFlowResult", "edmonds_karp", "ford_fulkerson", "augment_along"]

Node = Hashable


@dataclass
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes
    ----------
    value:
        The maximum flow ``F``.
    augmentations:
        Number of augmenting paths advanced; on unit-capacity networks
        this equals ``value``.
    """

    value: int
    augmentations: int


def augment_along(path: list[tuple[Arc, bool]], amount: int) -> None:
    """Advance ``amount`` units of flow along a residual path.

    ``path`` is a list of ``(arc, forward)`` residual moves; forward
    moves gain flow, backward moves are cancelled.  This is the
    paper's Fig. 3 operation: *"if arc e points in the opposite
    direction as the s-t path, then additional flow may be pushed
    through the s-t path by cancelling its current flow"*.
    """
    for arc, forward in path:
        if forward:
            arc.flow += amount
        else:
            arc.flow -= amount


def _bottleneck(path: list[tuple[Arc, bool]]) -> int:
    """Residual capacity of a path: the minimum over its moves."""
    return min(arc.residual(forward) for arc, forward in path)


def _bfs_augmenting_path(
    net: FlowNetwork, source: Node, sink: Node, counter: OpCounter | None
) -> list[tuple[Arc, bool]] | None:
    """Shortest residual ``source``→``sink`` path, or ``None``."""
    parent: dict[Node, tuple[Node, Arc, bool]] = {}
    queue: deque[Node] = deque([source])
    seen = {source}
    while queue:
        node = queue.popleft()
        if counter is not None:
            counter.charge("node_visit")
        for arc, forward in net.incident(node):
            if counter is not None:
                counter.charge("arc_scan")
            if arc.residual(forward) <= 0:
                continue
            nxt = arc.head if forward else arc.tail
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (node, arc, forward)
            if nxt == sink:
                path: list[tuple[Arc, bool]] = []
                cur = sink
                while cur != source:
                    prev, a, fwd = parent[cur]
                    path.append((a, fwd))
                    cur = prev
                path.reverse()
                return path
            queue.append(nxt)
    return None


def _dfs_augmenting_path(
    net: FlowNetwork, source: Node, sink: Node, counter: OpCounter | None
) -> list[tuple[Arc, bool]] | None:
    """Any residual ``source``→``sink`` path found depth-first."""
    stack: list[tuple[Node, list[tuple[Arc, bool]]]] = [(source, [])]
    seen = {source}
    while stack:
        node, path = stack.pop()
        if counter is not None:
            counter.charge("node_visit")
        if node == sink:
            return path
        for arc, forward in net.incident(node):
            if counter is not None:
                counter.charge("arc_scan")
            if arc.residual(forward) <= 0:
                continue
            nxt = arc.head if forward else arc.tail
            if nxt in seen:
                continue
            seen.add(nxt)
            stack.append((nxt, path + [(arc, forward)]))
    return None


def _run(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    finder,
    counter: OpCounter | None,
    flow_limit: int | None,
) -> MaxFlowResult:
    if source == sink:
        # Nothing flows from a node to itself (and the DFS finder would
        # report the empty path as augmenting).
        return MaxFlowResult(value=0, augmentations=0)
    if source not in net or sink not in net:
        # A terminal with no incident arcs simply admits no flow; the
        # transformations prune unreachable nodes, so tolerate this.
        return MaxFlowResult(value=net.flow_value(source) if source in net else 0, augmentations=0)
    value = net.flow_value(source)
    augmentations = 0
    while flow_limit is None or value < flow_limit:
        path = finder(net, source, sink, counter)
        if path is None:
            break
        amount = _bottleneck(path)
        if flow_limit is not None:
            amount = min(amount, flow_limit - value)
        augment_along(path, amount)
        if counter is not None:
            counter.charge("augmentation")
            counter.charge("arc_update", len(path))
        value += amount
        augmentations += 1
    return MaxFlowResult(value=value, augmentations=augmentations)


def edmonds_karp(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    counter: OpCounter | None = None,
    flow_limit: int | None = None,
) -> MaxFlowResult:
    """Maximum flow by shortest augmenting paths (BFS).

    Augments on top of whatever flow is already assigned, which the
    scheduler relies on when re-optimising after a partial allocation.
    ``flow_limit`` stops early once the given value is reached.
    """
    return _run(net, source, sink, _bfs_augmenting_path, counter, flow_limit)


def ford_fulkerson(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    counter: OpCounter | None = None,
    flow_limit: int | None = None,
) -> MaxFlowResult:
    """Maximum flow by depth-first augmenting-path search.

    Identical optimum as :func:`edmonds_karp` (max-flow is unique in
    value, not in assignment); kept as an independent implementation
    for cross-checking and because its path choices resemble the
    token backtracking of the distributed architecture.
    """
    return _run(net, source, sink, _dfs_augmenting_path, counter, flow_limit)
