"""Unit tests for the FlowNetwork data structure."""

import pytest

from repro.flows.graph import FlowNetwork
from repro.flows.maxflow import edmonds_karp
from repro.flows.validate import FlowViolation, check_flow, is_integral


def diamond() -> FlowNetwork:
    """s -> a,b -> t with unit capacities."""
    net = FlowNetwork()
    net.add_arc("s", "a", 1)
    net.add_arc("s", "b", 1)
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    return net


class TestConstruction:
    def test_add_arc_registers_endpoints(self):
        net = FlowNetwork()
        arc = net.add_arc("u", "v", 3)
        assert "u" in net and "v" in net
        assert arc.capacity == 3 and arc.flow == 0.0

    def test_add_node_idempotent(self):
        net = FlowNetwork()
        net.add_node("x")
        net.add_node("x")
        assert net.n_nodes == 1

    def test_self_loop_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError, match="self-loop"):
            net.add_arc("u", "u", 1)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError, match="negative capacity"):
            net.add_arc("u", "v", -1)

    def test_bad_lower_bound_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError, match="lower bound"):
            net.add_arc("u", "v", 1, lower=2)

    def test_parallel_arcs_are_distinct(self):
        net = FlowNetwork()
        a1 = net.add_arc("u", "v", 1)
        a2 = net.add_arc("u", "v", 1)
        assert a1.index != a2.index
        assert len(net.find_arcs("u", "v")) == 2

    def test_counts(self):
        net = diamond()
        assert net.n_nodes == 4
        assert net.n_arcs == 4


class TestQueries:
    def test_out_in_arcs(self):
        net = diamond()
        assert {a.head for a in net.out_arcs("s")} == {"a", "b"}
        assert {a.tail for a in net.in_arcs("t")} == {"a", "b"}

    def test_incident_directions(self):
        net = diamond()
        moves = list(net.incident("a"))
        forwards = [(a.head, fwd) for a, fwd in moves if fwd]
        backwards = [(a.tail, fwd) for a, fwd in moves if not fwd]
        assert forwards == [("t", True)]
        assert backwards == [("s", False)]

    def test_residuals(self):
        net = diamond()
        arc = net.arcs[0]
        arc.flow = 1.0
        assert arc.residual_forward == 0.0
        assert arc.residual_backward == 1.0
        assert arc.residual(True) == 0.0
        assert arc.residual(False) == 1.0


class TestFlowBookkeeping:
    def test_flow_value_and_conservation(self):
        net = diamond()
        edmonds_karp(net, "s", "t")
        assert net.flow_value("s") == 2.0
        assert check_flow(net, "s", "t") == 2.0

    def test_zero_flow_resets(self):
        net = diamond()
        edmonds_karp(net, "s", "t")
        net.zero_flow()
        assert net.flow_value("s") == 0.0

    def test_total_cost(self):
        net = FlowNetwork()
        a = net.add_arc("s", "t", 2, cost=3.0)
        a.flow = 2.0
        assert net.total_cost() == 6.0

    def test_check_flow_detects_capacity_violation(self):
        net = diamond()
        net.arcs[0].flow = 2.0
        with pytest.raises(FlowViolation, match="capacity"):
            check_flow(net, "s", "t")

    def test_check_flow_detects_conservation_violation(self):
        net = diamond()
        net.arcs[0].flow = 1.0  # into "a" but not out
        with pytest.raises(FlowViolation, match="conservation"):
            check_flow(net, "s", "t")

    def test_is_integral(self):
        net = diamond()
        assert is_integral(net)
        net.arcs[0].flow = 0.5
        assert not is_integral(net)


class TestCopyAndDecompose:
    def test_copy_is_deep(self):
        net = diamond()
        edmonds_karp(net, "s", "t")
        dup = net.copy()
        dup.arcs[0].flow = 0.0
        assert net.arcs[0].flow != dup.arcs[0].flow
        assert dup.n_nodes == net.n_nodes and dup.n_arcs == net.n_arcs

    def test_decompose_simple(self):
        net = diamond()
        edmonds_karp(net, "s", "t")
        paths = net.decompose_paths("s", "t")
        assert len(paths) == 2
        for path in paths:
            assert path[0].tail == "s" and path[-1].head == "t"

    def test_decompose_requires_integral(self):
        net = diamond()
        net.arcs[0].flow = 0.5
        with pytest.raises(ValueError, match="integral"):
            net.decompose_paths("s", "t")

    def test_decompose_ignores_disjoint_cycle(self):
        net = diamond()
        # Flow cycle not touching s or t.
        net.add_arc("a", "b", 1).flow = 1.0
        net.add_arc("b", "a", 1).flow = 1.0
        paths = net.decompose_paths("s", "t")
        assert paths == []

    def test_decompose_cancels_cycle_on_path(self):
        # s -> a -> t plus a cycle a -> b -> a carrying flow.
        net = FlowNetwork()
        sa = net.add_arc("s", "a", 1)
        at = net.add_arc("a", "t", 1)
        ab = net.add_arc("a", "b", 1)
        ba = net.add_arc("b", "a", 1)
        for arc in (sa, at, ab, ba):
            arc.flow = 1.0
        paths = net.decompose_paths("s", "t")
        assert len(paths) == 1
        assert [arc.index for arc in paths[0]] in ([sa.index, at.index],)
