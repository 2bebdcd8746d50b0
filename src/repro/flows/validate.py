"""Flow legality checks shared by solvers, tests, and transformations.

Section III-A of the paper defines a *legal flow* as an assignment
satisfying (1) flow conservation at every node other than the terminals
and (2) the capacity limitation on every arc.  These checks are the
invariants the property-based tests enforce after every solver run.
"""

from __future__ import annotations

from typing import Hashable

from repro.flows.graph import FlowNetwork

__all__ = ["check_flow", "is_integral", "FlowViolation"]

# Tolerance for float flows produced by the LP-based solvers.
EPS = 1e-7


class FlowViolation(AssertionError):
    """Raised when a flow assignment violates legality constraints."""


def check_flow(
    net: FlowNetwork,
    source: Hashable | None = None,
    sink: Hashable | None = None,
) -> int:
    """Verify the current assignment is a legal flow; return its value.

    Conservation is enforced at every node except ``source`` and
    ``sink``.  If both terminals are given, the net outflow of the
    source must equal the net inflow of the sink and that common value
    is returned; with no terminals, the assignment must be a
    circulation and 0 is returned.  Arc flows are ints (Theorem 2), so
    the value is too; :data:`EPS` only cushions the legality comparisons.

    Raises
    ------
    FlowViolation
        On any capacity, lower-bound, or conservation violation.
    """
    for arc in net.arcs:
        if arc.flow < arc.lower - EPS or arc.flow > arc.capacity + EPS:
            raise FlowViolation(
                f"capacity violated on {arc!r}: {arc.flow} not in "
                f"[{arc.lower}, {arc.capacity}]"
            )
    for node in net.nodes:
        if node == source or node == sink:
            continue
        imbalance = net.net_outflow(node)
        if abs(imbalance) > EPS:
            raise FlowViolation(f"conservation violated at {node!r}: net outflow {imbalance}")
    if source is None:
        return 0
    value = net.net_outflow(source)
    if sink is not None:
        sink_value = -net.net_outflow(sink)
        if abs(value - sink_value) > EPS:
            raise FlowViolation(
                f"source emits {value} but sink absorbs {sink_value}"
            )
    return value


def is_integral(net: FlowNetwork) -> bool:
    """True if every arc carries an integral amount of flow.

    Integrality is what makes a flow *realisable* as circuit-switched
    paths (Theorems 1 and 2): half a unit of flow has no meaning as a
    switch setting.
    """
    return all(abs(arc.flow - round(arc.flow)) <= EPS for arc in net.arcs)
