"""Tests for Ford–Fulkerson / Edmonds–Karp max flow, vs NetworkX oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.graph import FlowNetwork
from repro.flows.maxflow import edmonds_karp, ford_fulkerson
from repro.flows.mincut import min_cut
from repro.flows.validate import check_flow, is_integral
from tests.helpers import nx_max_flow, random_flow_network


def cancellation_network() -> FlowNetwork:
    """The paper's Fig. 3 network: optimal flow requires cancelling.

    ``s-a-d-t`` carries an initial unit; the augmenting path
    ``s-c-d-a-b-t`` pushes against ``a->d`` to reach the max flow 2.
    """
    net = FlowNetwork()
    net.add_arc("s", "a", 1)
    net.add_arc("s", "c", 1)
    net.add_arc("a", "b", 1)
    net.add_arc("a", "d", 1)
    net.add_arc("c", "d", 1)
    net.add_arc("b", "t", 1)
    net.add_arc("d", "t", 1)
    return net


@pytest.mark.parametrize("solver", [edmonds_karp, ford_fulkerson])
class TestBasics:
    def test_single_arc(self, solver):
        net = FlowNetwork()
        net.add_arc("s", "t", 7)
        assert solver(net, "s", "t").value == 7

    def test_series_bottleneck(self, solver):
        net = FlowNetwork()
        net.add_arc("s", "m", 5)
        net.add_arc("m", "t", 2)
        assert solver(net, "s", "t").value == 2

    def test_disconnected(self, solver):
        net = FlowNetwork()
        net.add_arc("s", "a", 1)
        net.add_arc("b", "t", 1)
        assert solver(net, "s", "t").value == 0

    def test_fig3_requires_cancellation(self, solver):
        net = cancellation_network()
        # Pre-assign the paper's initial flow along s-a-d-t.
        for tail, head in (("s", "a"), ("a", "d"), ("d", "t")):
            net.find_arcs(tail, head)[0].flow = 1.0
        res = solver(net, "s", "t")
        assert res.value == 2
        check_flow(net, "s", "t")
        # Fig. 3(c): the final flow uses s-a-b-t and s-c-d-t, so the
        # middle arc a->d carries nothing.
        assert net.find_arcs("a", "d")[0].flow == 0.0

    def test_parallel_arcs(self, solver):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        net.add_arc("s", "t", 1)
        assert solver(net, "s", "t").value == 2

    def test_augments_on_top_of_existing_flow(self, solver):
        net = FlowNetwork()
        net.add_arc("s", "t", 3).flow = 1.0
        res = solver(net, "s", "t")
        assert res.value == 3


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_networks_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        net, s, t = random_flow_network(rng, n_nodes=10, n_arcs=30)
        expected = nx_max_flow(net, s, t)
        got = edmonds_karp(net, s, t).value
        assert got == expected
        check_flow(net, s, t)
        assert is_integral(net)

    @pytest.mark.parametrize("seed", range(10))
    def test_bfs_and_dfs_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        net, s, t = random_flow_network(rng, n_nodes=12, n_arcs=40, unit=True)
        v1 = edmonds_karp(net.copy(), s, t).value
        v2 = ford_fulkerson(net, s, t).value
        assert v1 == v2

    @pytest.mark.parametrize("seed", range(10))
    def test_maxflow_equals_mincut(self, seed):
        rng = np.random.default_rng(200 + seed)
        net, s, t = random_flow_network(rng, n_nodes=9, n_arcs=25)
        value = edmonds_karp(net, s, t).value
        cut = min_cut(net, s, t)
        assert cut.capacity == value
        assert s in cut.source_side and t in cut.sink_side


@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(4, 12),
    n_arcs=st.integers(4, 40),
    unit=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_maxflow_legal_integral_and_optimal(seed, n_nodes, n_arcs, unit):
    """Property: our max flow is legal, integral, and matches the oracle."""
    rng = np.random.default_rng(seed)
    net, s, t = random_flow_network(rng, n_nodes=n_nodes, n_arcs=n_arcs, unit=unit)
    expected = nx_max_flow(net, s, t)
    value = edmonds_karp(net, s, t).value
    assert value == expected
    assert check_flow(net, s, t) == value
    assert is_integral(net)
