"""Corner-branch tests across the flows package.

Small behaviours that the algorithm-level tests do not pin down:
empty/degenerate inputs, error messages, result-object accessors.
"""

import math

import pytest

from repro.core.scheduler import MAXFLOW_ALGORITHMS, MINCOST_ALGORITHMS
from repro.flows.graph import FlowNetwork
from repro.flows.dinic import LayeredNetwork, dinic
from repro.flows.lp import LinearProgram, LPResult, LPStatus, Sense
from repro.flows.maxflow import augment_along, edmonds_karp
from repro.flows.kernel import FlowKernel
from repro.flows.mincost import InfeasibleFlowError, _dijkstra, min_cost_flow
from repro.flows.mincut import min_cut, residual_reachable
from repro.flows.multicommodity import Commodity, MultiCommodityProblem, solve_max_multicommodity
from repro.flows.simplex import simplex_standard_form
from repro.flows.validate import EPS, FlowViolation, check_flow
import numpy as np


class TestGraphEdges:
    def test_find_arcs_empty(self):
        net = FlowNetwork()
        net.add_node("a")
        assert net.find_arcs("a", "b") == []
        assert net.find_arcs("ghost", "b") == []

    def test_flow_value_of_isolated_source(self):
        net = FlowNetwork()
        net.add_node("s")
        assert net.flow_value("s") == 0.0

    def test_decompose_empty_flow(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 3)
        assert net.decompose_paths("s", "t") == []

    def test_incident_on_leaf(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        moves = list(net.incident("t"))
        assert len(moves) == 1 and moves[0][1] is False


class TestMaxflowEdges:
    def test_augment_along_empty_path_noop(self):
        augment_along([], 5.0)  # must not raise

    def test_missing_terminals_tolerated(self):
        net = FlowNetwork()
        net.add_node("s")
        assert edmonds_karp(net, "s", "t").value == 0.0
        assert edmonds_karp(net, "nope", "t").value == 0.0

    @pytest.mark.parametrize("name", sorted(MAXFLOW_ALGORITHMS))
    def test_source_equals_sink_is_zero_flow(self, name):
        # Regression: the DFS finder reported the empty path as
        # augmenting and ford_fulkerson died in min() of nothing; every
        # registry entry must agree that nothing flows from a node to itself.
        net = FlowNetwork()
        net.add_arc("s", "a", 2)
        net.add_arc("a", "s", 1)
        net.add_arc("a", "t", 1)
        assert MAXFLOW_ALGORITHMS[name](net, "s", "s").value == 0
        assert all(arc.flow == 0 for arc in net.arcs)


class TestDinicEdges:
    def test_layered_network_accessors(self):
        ln = LayeredNetwork(source="s", sink="t")
        assert ln.depth == 0
        assert ln.moves == {}

    def test_dinic_missing_source(self):
        net = FlowNetwork()
        net.add_node("t")
        assert dinic(net, "s", "t").value == 0.0


class TestMincutEdges:
    def test_residual_reachable_missing_source(self):
        net = FlowNetwork()
        net.add_node("a")
        assert residual_reachable(net, "zzz") == set()

    def test_min_cut_requires_max_flow(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        with pytest.raises(ValueError, match="not maximum"):
            min_cut(net, "s", "t")

    def test_cut_sides_partition(self):
        net = FlowNetwork()
        net.add_arc("s", "m", 2)
        net.add_arc("m", "t", 1)
        edmonds_karp(net, "s", "t")
        cut = min_cut(net, "s", "t")
        assert cut.source_side | cut.sink_side == set(net.nodes)
        assert not cut.source_side & cut.sink_side


class TestMincostEdges:
    def test_missing_terminal_without_target_ok(self):
        net = FlowNetwork()
        net.add_node("s")
        res = min_cost_flow(net, "s", "t")
        assert res.value == 0.0 and res.cost == 0.0

    def test_missing_terminal_with_target_raises(self):
        net = FlowNetwork()
        net.add_node("s")
        with pytest.raises(InfeasibleFlowError):
            min_cost_flow(net, "s", "t", target_flow=1)


    @pytest.mark.parametrize("name", sorted(MINCOST_ALGORITHMS))
    def test_registry_entries_share_one_contract(self, name):
        # Regression: SSP died in min() of an empty path on
        # source == sink, out-of-kilter tripped over its own self-loop
        # return arc, and a negative target was value 0 from one and a
        # "negative capacity" from the other.
        solver = MINCOST_ALGORITHMS[name]

        def fresh() -> FlowNetwork:
            net = FlowNetwork()
            net.add_arc("a", "b", 2, cost=1)
            net.add_arc("b", "a", 1, cost=1)
            net.add_arc("b", "t", 1, cost=3)
            return net

        def untouched(net: FlowNetwork) -> bool:
            return all(arc.flow == 0 for arc in net.arcs)

        net = fresh()
        with pytest.raises(InfeasibleFlowError):
            solver(net, "a", "a", target_flow=1)
        for source, sink in (("a", "ghost"), ("ghost", "t")):
            with pytest.raises(InfeasibleFlowError, match="terminal missing"):
                solver(net, source, sink, target_flow=1)
        with pytest.raises(ValueError, match="negative target flow"):
            solver(net, "a", "t", target_flow=-1)
        assert untouched(net) and net.n_arcs == 3
        for source, sink in (("a", "t"), ("a", "a")):
            res = solver(net, source, sink, target_flow=0)
            assert (res.value, res.cost, res.augmentations) == (0, 0, 0)
            assert untouched(net)
        net.arcs[0].flow = 1
        with pytest.raises(ValueError, match="zero initial flow"):
            solver(net, "a", "t", target_flow=1)
        # ... and on the one non-degenerate call.
        res = solver(fresh(), "a", "t", target_flow=1)
        assert (res.value, res.cost) == (1, 4)


class TestLPEdges:
    def test_result_getitem(self):
        res = LPResult(status=LPStatus.OPTIMAL, objective=0.0, values={"x": 3.0})
        assert res["x"] == 3.0

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 0.0}, Sense.EQ, 0.0)
        A, b, c, low, high = lp.to_standard_form()
        assert A[0, 0] == 0.0

    def test_standard_form_no_constraints_objective_direction(self):
        # min with all-infinite upper bound and negative cost: unbounded.
        status, x, obj, it = simplex_standard_form(
            np.zeros((0, 1)), np.zeros(0), np.array([-1.0]),
            np.array([0.0]), np.array([math.inf]),
        )
        assert status is LPStatus.UNBOUNDED


class TestMulticommodityEdges:
    def test_commodity_flow_accessor(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        problem = MultiCommodityProblem(net, [Commodity("A", "s", "t")])
        res = solve_max_multicommodity(problem)
        assert res.commodity_flow(0, net.arcs[0]) == pytest.approx(1.0)

    def test_empty_commodity_list(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        res = solve_max_multicommodity(MultiCommodityProblem(net, []))
        assert res.total_flow == 0.0


class TestFailureBranches:
    def test_pop_arc_refuses_an_arc_that_is_not_the_last(self):
        net = FlowNetwork()
        first = net.add_arc("s", "a", 1)
        net.add_arc("a", "t", 1)
        with pytest.raises(ValueError, match="not the most recently added arc"):
            net.pop_arc(first)

    def test_kernel_refuses_a_negative_node_count(self):
        with pytest.raises(ValueError, match="negative node count -1"):
            FlowKernel(-1)

    def test_ssp_refuses_a_negative_cost_cycle(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 1, cost=1.0)
        net.add_arc("a", "b", 1, cost=-3.0)
        net.add_arc("b", "a", 1, cost=1.0)
        net.add_arc("b", "t", 1, cost=1.0)
        with pytest.raises(ValueError, match="negative-cost residual cycle"):
            min_cost_flow(net, "s", "t")

    def test_dijkstra_refuses_a_broken_potential(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1, cost=1.0)
        with pytest.raises(AssertionError, match="potential invariant broken"):
            _dijkstra(net, "s", {"s": 0.0, "t": 5.0}, None)

    def test_check_flow_compares_source_and_sink_beyond_per_node_slack(self):
        """Each relay node is within ``EPS`` of conservation, but the
        slack adds up: source and sink disagree by ``1.8 * EPS``."""
        net = FlowNetwork()
        for tail, head, flow in (("s", "a", 1.0), ("a", "b", 1.0 + 0.9 * EPS), ("b", "t", 1.0 + 1.8 * EPS)):
            net.add_arc(tail, head, 2).flow = flow
        with pytest.raises(FlowViolation, match="source emits 1.0 but sink absorbs"):
            check_flow(net, "s", "t")
