"""Tests for the Goldberg–Tarjan push–relabel solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.graph import FlowNetwork
from repro.flows.maxflow import edmonds_karp
from repro.flows.mincut import min_cut
from repro.flows.push_relabel import push_relabel
from repro.flows.validate import check_flow, is_integral
from tests.helpers import nx_max_flow, random_flow_network


class TestBasics:
    def test_single_arc(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 4)
        assert push_relabel(net, "s", "t").value == 4
        check_flow(net, "s", "t")

    def test_bottleneck(self):
        net = FlowNetwork()
        net.add_arc("s", "m", 9)
        net.add_arc("m", "t", 3)
        assert push_relabel(net, "s", "t").value == 3
        check_flow(net, "s", "t")

    def test_excess_returns_to_source(self):
        """A dead-end branch soaks preflow that must drain back."""
        net = FlowNetwork()
        net.add_arc("s", "dead", 7)
        net.add_arc("s", "a", 2)
        net.add_arc("a", "t", 2)
        assert push_relabel(net, "s", "t").value == 2
        check_flow(net, "s", "t")
        assert net.find_arcs("s", "dead")[0].flow == 0.0

    def test_disconnected(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 1)
        net.add_arc("b", "t", 1)
        assert push_relabel(net, "s", "t").value == 0

    def test_same_terminals(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        assert push_relabel(net, "s", "s").value == 0

    def test_nonzero_initial_flow_rejected(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1).flow = 1.0
        with pytest.raises(ValueError, match="zero initial flow"):
            push_relabel(net, "s", "t")


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_networks(self, seed):
        rng = np.random.default_rng(800 + seed)
        net, s, t = random_flow_network(rng, n_nodes=10, n_arcs=30)
        expected = nx_max_flow(net, s, t)
        assert push_relabel(net, s, t).value == expected
        check_flow(net, s, t)
        assert is_integral(net)

    @pytest.mark.parametrize("seed", range(10))
    def test_min_cut_certificate(self, seed):
        rng = np.random.default_rng(900 + seed)
        net, s, t = random_flow_network(rng, n_nodes=9, n_arcs=24, unit=True)
        value = push_relabel(net, s, t).value
        assert min_cut(net, s, t).capacity == value


def test_scheduler_integration():
    from repro.core import MRSIN, OptimalScheduler, Request
    from repro.networks import omega

    m = MRSIN(omega(8))
    for p in range(8):
        m.submit(Request(p))
    mapping = OptimalScheduler(maxflow="push_relabel").schedule(m)
    assert len(mapping) == 8
    mapping.validate(m)


@given(seed=st.integers(0, 10_000), n_arcs=st.integers(4, 40))
@settings(max_examples=50, deadline=None)
def test_property_push_relabel_equals_edmonds_karp(seed, n_arcs):
    """Property: push-relabel and Edmonds–Karp agree on every instance."""
    rng = np.random.default_rng(seed)
    net, s, t = random_flow_network(rng, n_nodes=9, n_arcs=n_arcs)
    v_ek = edmonds_karp(net.copy(), s, t).value
    v_pr = push_relabel(net, s, t).value
    assert v_pr == v_ek
    assert check_flow(net, s, t) == v_pr
