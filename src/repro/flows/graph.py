"""The :class:`FlowNetwork` digraph underlying every solver in :mod:`repro.flows`.

A flow network here follows the paper's Section III-A definition: a
digraph ``D = (V, E)`` with distinguished source ``s`` and sink ``t``
(tracked by the caller, not the graph), a nonnegative capacity ``c(e)``
on every arc, an optional cost ``w(e)`` per unit of flow, and a current
flow assignment ``f(e)``.  Parallel arcs are allowed (they arise when a
switchbox offers several links between the same pair of elements), so
arcs are first-class objects addressed by index rather than by
endpoint pair.

Design notes
------------
- Node ids are arbitrary hashables.  The MRSIN transformations use
  structured tuples such as ``("p", 3)`` or ``("x", 1, 2)``.
- The flow assignment lives *on the network* (``arc.flow``); algorithms
  mutate it in place and return summary results.  This mirrors the
  paper's usage where a flow network is repeatedly re-augmented across
  scheduling iterations.
- Residual traversal is done arc-wise: an arc can be used *forward*
  with residual ``capacity - flow`` or *backward* with residual
  ``flow``.  No separate residual-graph object is materialised; the
  layered networks of Dinic's algorithm reference ``(arc, forward)``
  pairs directly, which is exactly the paper's "useful link" notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

if TYPE_CHECKING:  # deferred: kernel imports graph for its own types
    from repro.flows.kernel import CompiledNetwork

__all__ = ["Arc", "FlowNetwork", "Node"]

Node = Hashable


@dataclass
class Arc:
    """One directed arc of a flow network.

    Attributes
    ----------
    index:
        Position in :attr:`FlowNetwork.arcs`; stable for the lifetime
        of the network and usable as a key.
    tail, head:
        Endpoints; the arc carries flow from ``tail`` to ``head``.
    capacity:
        Upper flow bound ``c(e) >= 0``.
    cost:
        Cost per unit of flow, ``w(e)`` in the paper; 0 for pure
        max-flow problems.
    lower:
        Lower flow bound; 0 everywhere except in circulation
        formulations (out-of-kilter).
    flow:
        Current flow assignment ``f(e)``.
    """

    index: int
    tail: Node
    head: Node
    capacity: int
    cost: float = 0.0
    lower: int = 0
    flow: int = 0

    @property
    def residual_forward(self) -> int:
        """Extra flow this arc can still carry in its own direction."""
        return self.capacity - self.flow

    @property
    def residual_backward(self) -> int:
        """Flow that could be cancelled (pushed against the arc)."""
        return self.flow - self.lower

    def residual(self, forward: bool) -> int:
        """Residual capacity in the given traversal direction."""
        return self.residual_forward if forward else self.residual_backward

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cost = f", cost={self.cost}" if self.cost else ""
        return (
            f"Arc#{self.index}({self.tail!r}->{self.head!r}, "
            f"f={self.flow}/{self.capacity}{cost})"
        )


class FlowNetwork:
    """A mutable digraph with capacities, costs, and a flow assignment.

    The class is a plain adjacency structure plus convenience queries;
    all algorithmic work lives in the solver modules.
    """

    def __init__(self) -> None:
        self.arcs: list[Arc] = []
        self._out: dict[Node, list[int]] = {}
        self._in: dict[Node, list[int]] = {}
        # Per-node incidence lists ((arc, forward) pairs, out-arcs
        # first), built once per node and invalidated by add_arc.  The
        # solvers walk incident() in their innermost loops; handing
        # them a ready-made list instead of re-zipping _out/_in per
        # traversal is what makes repeated (warm-start) solves on a
        # persistent network cheap.
        self._inc: dict[Node, list[tuple[Arc, bool]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register ``node`` (idempotent) and return it."""
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []
        return node

    def add_arc(
        self,
        tail: Node,
        head: Node,
        capacity: int,
        cost: float = 0.0,
        lower: int = 0,
    ) -> Arc:
        """Add an arc ``tail -> head`` and return it.

        Endpoints are registered automatically.  Self-loops are
        rejected: the paper's networks are loop-free and a self-loop
        can never carry useful flow.
        """
        if tail == head:
            raise ValueError(f"self-loop at {tail!r} not allowed in a loop-free RSIN")
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity} on {tail!r}->{head!r}")
        if lower < 0 or lower > capacity:
            raise ValueError(f"lower bound {lower} outside [0, {capacity}]")
        self.add_node(tail)
        self.add_node(head)
        arc = Arc(len(self.arcs), tail, head, capacity, cost, lower)
        self.arcs.append(arc)
        self._out[tail].append(arc.index)
        self._in[head].append(arc.index)
        self._inc.pop(tail, None)
        self._inc.pop(head, None)
        return arc

    def pop_arc(self, arc: Arc) -> None:
        """Remove ``arc``, which must be the most recently added one.

        Arc indices are stable identifiers, so arbitrary removal is
        not offered; the only sanctioned deletion is unwinding a
        temporary arc in LIFO order (e.g. the out-of-kilter return
        arc).  Raises :class:`ValueError` when ``arc`` is not the
        last arc of this network.
        """
        if not self.arcs or self.arcs[-1] is not arc:
            raise ValueError(
                f"pop_arc: {arc!r} is not the most recently added arc; "
                "only LIFO removal keeps arc indices stable"
            )
        self.arcs.pop()
        self._out[arc.tail].pop()
        self._in[arc.head].pop()
        self._inc.pop(arc.tail, None)
        self._inc.pop(arc.head, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Iterable[Node]:
        """All registered nodes (insertion order)."""
        return self._out.keys()

    @property
    def n_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._out)

    @property
    def n_arcs(self) -> int:
        """Number of arcs."""
        return len(self.arcs)

    def __contains__(self, node: Node) -> bool:
        return node in self._out

    def out_arcs(self, node: Node) -> Iterator[Arc]:
        """Arcs leaving ``node`` — the paper's ``beta(v)``."""
        return (self.arcs[i] for i in self._out[node])

    def in_arcs(self, node: Node) -> Iterator[Arc]:
        """Arcs entering ``node`` — the paper's ``alpha(v)``."""
        return (self.arcs[i] for i in self._in[node])

    def incident(self, node: Node) -> list[tuple[Arc, bool]]:
        """All residual moves out of ``node``: ``(arc, forward)`` pairs.

        ``forward=True`` means leaving along an out-arc; ``False``
        means walking an in-arc backwards (flow cancellation).  The
        list (out-arcs first, then in-arcs, each in insertion order)
        is precomputed per node and reused until the next ``add_arc``
        touching ``node`` — callers must not mutate it.
        """
        cached = self._inc.get(node)
        if cached is None:
            cached = [(self.arcs[i], True) for i in self._out[node]]
            cached.extend((self.arcs[i], False) for i in self._in[node])
            self._inc[node] = cached
        return cached

    def find_arcs(self, tail: Node, head: Node) -> list[Arc]:
        """All (parallel) arcs from ``tail`` to ``head``."""
        return [self.arcs[i] for i in self._out.get(tail, ()) if self.arcs[i].head == head]

    # ------------------------------------------------------------------
    # Flow bookkeeping
    # ------------------------------------------------------------------
    def zero_flow(self) -> None:
        """Reset the flow assignment to all-zero.

        The zero is an ``int`` so that networks with integer
        capacities (every unit-capacity MRSIN transformation) keep
        exact integer flows through augmentation — no float drift on
        the hot scheduling path.
        """
        for arc in self.arcs:
            arc.flow = 0

    def net_outflow(self, node: Node) -> int:
        """Flow leaving minus flow entering ``node``.

        Positive at a source, negative at a sink, zero at conserved
        intermediate nodes.
        """
        out = sum(self.arcs[i].flow for i in self._out[node])
        inn = sum(self.arcs[i].flow for i in self._in[node])
        return out - inn

    def flow_value(self, source: Node) -> int:
        """Value of the current flow, measured at ``source``."""
        return self.net_outflow(source)

    def total_cost(self) -> float:
        """Total cost ``sum_e w(e) f(e)`` of the current assignment."""
        return sum(arc.cost * arc.flow for arc in self.arcs)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "FlowNetwork":
        """Deep copy (nodes, arcs, and the current flow assignment)."""
        dup = FlowNetwork()
        for node in self.nodes:
            dup.add_node(node)
        for arc in self.arcs:
            new = dup.add_arc(arc.tail, arc.head, arc.capacity, arc.cost, arc.lower)
            new.flow = arc.flow
        return dup

    def compile(self) -> "CompiledNetwork":
        """Lower this network onto the flat-array flow kernel.

        Returns a :class:`~repro.flows.kernel.CompiledNetwork` bound to
        this network: object arc ``k`` becomes kernel arc pair
        ``2 * k`` and solved flows are written back onto ``Arc.flow``.
        Raises ``ValueError`` naming the first arc with ``lower > 0``
        (the kernel solves without lower bounds).  The
        compiled form captures *structure* (nodes, capacities); arcs
        added after compilation are not visible to it — compile again
        after structural changes.
        """
        from repro.flows.kernel import CompiledNetwork

        return CompiledNetwork(self)

    def decompose_paths(self, source: Node, sink: Node) -> list[list[Arc]]:
        """Decompose an integral flow into arc-disjoint ``s``–``t`` paths.

        This realises the paper's Theorem 2 in reverse: each unit of
        flow defines one nonoverlapping path, hence one
        request→resource circuit.  The current flow must be integral
        and legal; a leftover circulation (flow on a cycle touching
        neither terminal) is ignored, matching the fact that such a
        cycle corresponds to no allocation.

        Returns a list of paths, each a list of arcs from ``source``
        to ``sink``.  The flow assignment itself is not modified.
        """
        # Sparse: only arcs actually carrying flow enter the walk
        # structure, so idle arcs cost one attribute read each.
        remaining: dict[int, int] = {}
        for arc in self.arcs:
            if arc.flow:
                rem = int(round(arc.flow))
                if abs(arc.flow - rem) > 1e-9:
                    raise ValueError(f"flow on {arc!r} is not integral")
                remaining[arc.index] = rem
        paths: list[list[Arc]] = []
        while True:
            # Walk from the source along positive-flow arcs.  If the walk
            # re-enters a node already on the path, the loop between the
            # two visits is a flow cycle: cancel it and keep walking.  By
            # conservation, a walk that cannot be extended has reached the
            # sink or started with no outgoing flow at the source.
            path: list[Arc] = []
            on_path: dict[Node, int] = {source: 0}
            node = source
            while node != sink:
                nxt: Arc | None = None
                for i in self._out[node]:
                    if remaining.get(i, 0) > 0:
                        nxt = self.arcs[i]
                        break
                if nxt is None:
                    break
                remaining[nxt.index] -= 1
                if nxt.head in on_path:
                    # Cancel the cycle: drop arcs back to the first visit.
                    cut = on_path[nxt.head]
                    for dropped in path[cut:]:
                        del on_path[dropped.head]
                    path = path[:cut]
                    node = nxt.head
                else:
                    path.append(nxt)
                    node = nxt.head
                    on_path[node] = len(path)
            if node != sink or not path:
                break
            paths.append(path)
        return paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowNetwork(|V|={self.n_nodes}, |E|={self.n_arcs})"
