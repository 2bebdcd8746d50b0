"""Dinic's maximum-flow algorithm with explicit layered networks.

Section IV of the paper realises Dinic's algorithm in hardware, so the
layered network is a first-class object here rather than an internal
detail: the distributed token-propagation simulator is tested for
equivalence against :func:`build_layered_network` (request-token phase
builds the layered network, Theorem 4) and against the blocking flow
found per phase (resource-token phase).

Algorithm (the paper's Fig. 7 control flow):

1. Construct the layered network from the current flow: breadth-first
   ranks over *useful links* — unsaturated arcs taken forward, or
   arcs with nonzero flow taken backward — stopping at the layer that
   first contains the sink.
2. Find a *maximal* (blocking) flow in the layered network by
   depth-first search: every s-t path in the layered network gets
   saturated.  "Finding a maximal flow is sufficient ... computing the
   maximal flow is easier than computing the maximum flow."
3. Augment and repeat until the sink is unreachable.

On the unit-capacity networks produced by Transformation 1 the
complexity is ``O(|V|^{2/3} |E|)`` (Even–Tarjan, cited as [35]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.flows.graph import Arc, FlowNetwork
from repro.util.counters import OpCounter

__all__ = ["LayeredNetwork", "DinicResult", "build_layered_network", "blocking_flow", "dinic"]

Node = Hashable


@dataclass
class LayeredNetwork:
    """The auxiliary layered (level) network of one Dinic phase.

    Attributes
    ----------
    layers:
        ``layers[i]`` is the set of nodes at BFS distance ``i`` from
        the source over useful links; ``layers[0] == {source}``.  The
        last layer contains the sink iff the phase can augment.
    level:
        Node → layer index for all reached nodes.
    moves:
        Adjacency over useful links: node → list of ``(arc, forward)``
        residual moves that lead from its layer to the next one.
    reaches_sink:
        Whether the sink appears in the final layer.
    """

    source: Node
    sink: Node
    layers: list[set[Node]] = field(default_factory=list)
    level: dict[Node, int] = field(default_factory=dict)
    moves: dict[Node, list[tuple[Arc, bool]]] = field(default_factory=dict)
    reaches_sink: bool = False

    @property
    def depth(self) -> int:
        """Number of layers (= shortest augmenting path length + 1)."""
        return len(self.layers)


def build_layered_network(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    counter: OpCounter | None = None,
) -> LayeredNetwork:
    """Construct the layered network for the current flow assignment.

    Layer construction follows the paper exactly: *"A layer consists
    of nodes that are not included in the previous layers and have
    either an unsaturated arc or an arc with nonzero flow originating
    from any node in the layer before it."*  Construction stops with
    the first layer containing the sink (nothing beyond it can lie on
    a shortest augmenting path).
    """
    layered = LayeredNetwork(source=source, sink=sink)
    if source not in net or sink not in net:
        return layered
    layered.layers.append({source})
    layered.level[source] = 0
    frontier = [source]
    while frontier and not layered.reaches_sink:
        next_layer: set[Node] = set()
        for node in frontier:
            incident = net.incident(node)
            if counter is not None:
                counter.charge("node_visit")
                counter.charge("arc_scan", len(incident))
            for arc, forward in incident:
                # arc.residual(forward) <= 0, with the attribute reads
                # inlined: this is the innermost loop of every solve.
                if forward:
                    if arc.capacity - arc.flow <= 0:
                        continue
                elif arc.flow - arc.lower <= 0:
                    continue
                nxt = arc.head if forward else arc.tail
                # Nodes in `level` all sit in an earlier layer (the
                # current next layer is levelled only after this
                # frontier pass), so membership alone rules them out.
                if nxt in layered.level:
                    continue
                next_layer.add(nxt)
                layered.moves.setdefault(node, []).append((arc, forward))
        if not next_layer:
            break
        depth = len(layered.layers)
        for node in next_layer:
            layered.level[node] = depth
        layered.layers.append(next_layer)
        if sink in next_layer:
            layered.reaches_sink = True
            break
        frontier = list(next_layer)
    return layered


def blocking_flow(
    net: FlowNetwork,
    layered: LayeredNetwork,
    *,
    counter: OpCounter | None = None,
) -> int:
    """Saturate every s-t path of the layered network (maximal flow).

    Depth-first search with move pruning: a move that dead-ends is
    discarded so it is never retried — the software analogue of the
    resource token *"marking of a port is cleared whenever a resource
    token backtracks through the port"* rule.

    Returns the amount of flow added to the underlying network.
    """
    if not layered.reaches_sink:
        return 0
    source, sink = layered.source, layered.sink
    total = 0
    # Mutable per-node move cursors; exhausted moves are popped.
    moves = {node: list(ms) for node, ms in layered.moves.items()}
    while True:
        # Depth-first walk from the source.
        path: list[tuple[Arc, bool]] = []
        node = source
        while node != sink:
            if counter is not None:
                counter.charge("node_visit")
            available = moves.get(node, [])
            # Drop saturated moves from the tail of the list.
            while available:
                arc, forward = available[-1]
                residual = arc.capacity - arc.flow if forward else arc.flow - arc.lower
                if residual <= 0:
                    available.pop()
                    if counter is not None:
                        counter.charge("arc_scan")
                else:
                    break
            if not available:
                if not path:
                    node = None  # type: ignore[assignment]
                    break
                # Backtrack: the move that led here is fruitless.
                arc, forward = path.pop()
                prev = arc.tail if forward else arc.head
                moves[prev].pop()
                node = prev
                if counter is not None:
                    counter.charge("backtrack")
                continue
            arc, forward = available[-1]
            path.append((arc, forward))
            node = arc.head if forward else arc.tail
        if node is None:
            break  # source exhausted: flow is maximal
        amount = min(arc.residual(forward) for arc, forward in path)
        for arc, forward in path:
            if forward:
                arc.flow += amount
            else:
                arc.flow -= amount
        if counter is not None:
            counter.charge("augmentation")
            counter.charge("arc_update", len(path))
        total += amount
    return total


@dataclass
class DinicResult:
    """Outcome of a Dinic max-flow run.

    Attributes
    ----------
    value:
        The maximum flow.  Integral: capacities and lower bounds are
        ints (Theorem 1's unit-capacity construction), so every
        augmentation amount is an int.
    phases:
        Number of layered-network phases executed (each corresponds to
        one scheduling iteration of the distributed architecture).
    """

    value: int
    phases: int


def dinic(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    counter: OpCounter | None = None,
) -> DinicResult:
    """Compute the maximum flow with Dinic's algorithm.

    Augments on top of the network's current flow assignment (the
    scheduler uses this across scheduling cycles).  Each phase builds
    a layered network and pushes a blocking flow; phases strictly
    increase the source–sink distance, so the loop terminates.
    """
    phases = 0
    value = net.flow_value(source) if source in net else 0
    while True:
        layered = build_layered_network(net, source, sink, counter=counter)
        if not layered.reaches_sink:
            break
        phases += 1
        value += blocking_flow(net, layered, counter=counter)
    return DinicResult(value=value, phases=phases)
