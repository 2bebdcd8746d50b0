"""Tests for min-cost flow: successive shortest paths vs the NetworkX oracle
(out-of-kilter vs SSP lives in test_out_of_kilter.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.graph import FlowNetwork
from repro.flows.maxflow import edmonds_karp
from repro.flows.mincost import InfeasibleFlowError, min_cost_flow
from repro.flows.validate import check_flow, is_integral
from tests.helpers import nx_min_cost_for_value, random_flow_network


def two_route_network() -> FlowNetwork:
    """Cheap route capacity 1, expensive route capacity 2."""
    net = FlowNetwork()
    net.add_arc("s", "a", 1, cost=1)
    net.add_arc("a", "t", 1, cost=1)
    net.add_arc("s", "b", 2, cost=5)
    net.add_arc("b", "t", 2, cost=5)
    return net


class TestSuccessiveShortestPaths:
    def test_prefers_cheap_route(self):
        net = two_route_network()
        res = min_cost_flow(net, "s", "t", target_flow=1)
        assert res.value == 1
        assert res.cost == 2
        assert net.find_arcs("s", "a")[0].flow == 1

    def test_spills_to_expensive_route(self):
        net = two_route_network()
        res = min_cost_flow(net, "s", "t", target_flow=3)
        assert res.value == 3
        assert res.cost == 2 + 2 * 10

    def test_infeasible_target_raises(self):
        net = two_route_network()
        with pytest.raises(InfeasibleFlowError):
            min_cost_flow(net, "s", "t", target_flow=4)

    def test_zero_target_with_terminals_is_trivially_met(self):
        net = two_route_network()
        res = min_cost_flow(net, "s", "t", target_flow=0)
        assert (res.value, res.cost, res.augmentations) == (0.0, 0.0, 0)
        assert all(arc.flow == 0 for arc in net.arcs)

    def test_zero_target_without_terminals_is_infeasible(self):
        # Regression: `if target_flow:` used to treat an explicit
        # target_flow=0 like "no target" and silently return success
        # even when the terminals do not exist in the network.
        net = two_route_network()
        with pytest.raises(InfeasibleFlowError, match="terminal missing"):
            min_cost_flow(net, "s", "ghost", target_flow=0)

    def test_no_target_without_terminals_returns_empty(self):
        net = two_route_network()
        res = min_cost_flow(net, "ghost", "t")
        assert (res.value, res.cost) == (0.0, 0.0)

    def test_without_target_finds_min_cost_max_flow(self):
        net = two_route_network()
        res = min_cost_flow(net, "s", "t")
        assert res.value == 3
        assert res.cost == 22

    def test_requires_zero_initial_flow(self):
        net = two_route_network()
        net.arcs[0].flow = 1.0
        with pytest.raises(ValueError, match="zero initial flow"):
            min_cost_flow(net, "s", "t")

    def test_negative_costs_handled(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 1, cost=-5)
        net.add_arc("a", "t", 1, cost=2)
        net.add_arc("s", "t", 1, cost=0)
        res = min_cost_flow(net, "s", "t", target_flow=2)
        assert res.value == 2
        assert res.cost == -3

    def test_zero_target_is_noop(self):
        net = two_route_network()
        res = min_cost_flow(net, "s", "t", target_flow=0)
        assert res.value == 0 and res.cost == 0


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_ssp_matches_networkx(self, seed):
        rng = np.random.default_rng(500 + seed)
        net, s, t = random_flow_network(rng, n_nodes=9, n_arcs=24)
        maxv = int(edmonds_karp(net.copy(), s, t).value)
        if maxv == 0:
            pytest.skip("degenerate instance with no s-t path")
        target = max(1, maxv // 2)
        res = min_cost_flow(net, s, t, target_flow=target)
        expected = nx_min_cost_for_value(net, s, t, target)
        assert res.cost == pytest.approx(expected)
        assert is_integral(net)


@given(seed=st.integers(0, 10_000), n_arcs=st.integers(6, 30))
@settings(max_examples=40, deadline=None)
def test_property_ssp_cost_never_beats_oracle(seed, n_arcs):
    """Property: SSP cost equals the NetworkX optimal cost exactly."""
    rng = np.random.default_rng(seed)
    net, s, t = random_flow_network(rng, n_nodes=8, n_arcs=n_arcs)
    maxv = int(edmonds_karp(net.copy(), s, t).value)
    if maxv == 0:
        return
    res = min_cost_flow(net, s, t, target_flow=maxv)
    expected = nx_min_cost_for_value(net, s, t, maxv)
    assert res.cost == pytest.approx(expected)
    assert check_flow(net, s, t) == maxv
