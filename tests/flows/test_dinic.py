"""Tests for Dinic's algorithm and the explicit layered networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.dinic import blocking_flow, build_layered_network, dinic
from repro.flows.graph import FlowNetwork
from repro.flows.maxflow import edmonds_karp
from repro.flows.validate import check_flow, is_integral
from tests.helpers import nx_max_flow, random_flow_network
from repro.util.counters import OpCounter


def fig8_network() -> FlowNetwork:
    """The paper's Fig. 8(a): a flow network from a 4x4 MRSIN.

    Nodes: s; processors p1, p2, p4; switch nodes 4, 5, 6, 7;
    resources r1, r3, r4; sink t.  Initial flow routes p1->r4 (via
    5 -> 6) and p4 -> r1 (via 6?).  We model the essential structure:
    three requesters, three resources, an inner exchange 5 -> 6 whose
    flow must be cancelled to free the blocked request p2.
    """
    net = FlowNetwork()
    # s to requesting processors
    net.add_arc("s", "p1", 1)
    net.add_arc("s", "p2", 1)
    net.add_arc("s", "p4", 1)
    # first-stage switch nodes 4 and 5
    net.add_arc("p1", "n4", 1)
    net.add_arc("p2", "n4", 1)
    net.add_arc("p4", "n5", 1)
    # inter-switch links (node 5 -> node 6 carries cancellable flow)
    net.add_arc("n4", "n6", 1)
    net.add_arc("n4", "n7", 1)
    net.add_arc("n5", "n6", 1)
    net.add_arc("n5", "n7", 1)
    # second-stage switches to resources
    net.add_arc("n6", "r1", 1)
    net.add_arc("n6", "r4", 1)
    net.add_arc("n7", "r3", 1)
    # resources to t
    net.add_arc("r1", "t", 1)
    net.add_arc("r3", "t", 1)
    net.add_arc("r4", "t", 1)
    return net


def assign_fig8_initial_flow(net: FlowNetwork) -> None:
    """Initial mapping {(p1, r4), (p4, r3)} that blocks p2.

    p2 can only reach n7 (its box n4 has n4->n6 occupied), and n7's
    sole resource r3 is taken by p4.  The unique augmenting path must
    *cancel* the n5->n7 flow — the situation of Fig. 8(b), where the
    layered network contains a backward (flow-cancelling) arc.
    """
    for tail, head in (
        ("s", "p1"), ("p1", "n4"), ("n4", "n6"), ("n6", "r4"), ("r4", "t"),
        ("s", "p4"), ("p4", "n5"), ("n5", "n7"), ("n7", "r3"), ("r3", "t"),
    ):
        net.find_arcs(tail, head)[0].flow = 1.0


class TestLayeredNetwork:
    def test_layers_partition_reached_nodes(self):
        net = fig8_network()
        layered = build_layered_network(net, "s", "t")
        seen = set()
        for layer in layered.layers:
            assert not (layer & seen), "layers must be disjoint"
            seen |= layer
        assert layered.layers[0] == {"s"}
        assert layered.reaches_sink

    def test_level_indices_match_layers(self):
        net = fig8_network()
        layered = build_layered_network(net, "s", "t")
        for i, layer in enumerate(layered.layers):
            for node in layer:
                assert layered.level[node] == i

    def test_moves_go_strictly_forward(self):
        net = fig8_network()
        layered = build_layered_network(net, "s", "t")
        for node, moves in layered.moves.items():
            for arc, forward in moves:
                nxt = arc.head if forward else arc.tail
                assert layered.level[nxt] == layered.level[node] + 1

    def test_construction_stops_at_sink_layer(self):
        net = fig8_network()
        layered = build_layered_network(net, "s", "t")
        assert "t" in layered.layers[-1]

    def test_saturated_network_does_not_reach_sink(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1).flow = 1.0
        layered = build_layered_network(net, "s", "t")
        assert not layered.reaches_sink

    def test_backward_arc_appears_after_flow(self):
        """The cancellation move of Fig. 8(b) (arc 6->5 reversing 5->6)."""
        net = fig8_network()
        assign_fig8_initial_flow(net)
        layered = build_layered_network(net, "s", "t")
        assert layered.reaches_sink
        backward_moves = [
            (node, arc)
            for node, moves in layered.moves.items()
            for arc, forward in moves
            if not forward
        ]
        assert backward_moves, "layered network must include a flow-cancelling move"

    def test_missing_terminal_yields_empty(self):
        net = FlowNetwork()
        net.add_node("s")
        layered = build_layered_network(net, "s", "t")
        assert not layered.reaches_sink


class TestBlockingFlow:
    def test_blocking_flow_saturates_every_path(self):
        net = fig8_network()
        layered = build_layered_network(net, "s", "t")
        added = blocking_flow(net, layered)
        assert added > 0
        # Maximality: rebuilding a layered network of the same depth
        # must not reach the sink at that depth any more.
        relayered = build_layered_network(net, "s", "t")
        assert (not relayered.reaches_sink) or relayered.depth > layered.depth

    def test_no_sink_returns_zero(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1).flow = 1.0
        layered = build_layered_network(net, "s", "t")
        assert blocking_flow(net, layered) == 0.0


class TestFlowsStayInt:
    """R003's runtime half (ISSUE 24 audit): ``1.0 == 1`` passes every
    value check in this file, so a re-floated flow is pinned by type."""

    def test_dinic_leaves_int_flows_and_an_int_value(self):
        net = fig8_network()
        res = dinic(net, "s", "t")
        assert res.value == 3 and type(res.value) is int
        assert {type(arc.flow) for arc in net.arcs} == {int}

    def test_blocking_flow_is_an_int_even_when_nothing_reaches_the_sink(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1).flow = 1
        layered = build_layered_network(net, "s", "t")
        assert not layered.reaches_sink
        assert type(blocking_flow(net, layered)) is int


class TestDinic:
    def test_fig8_recovers_blocked_request(self):
        """All three resources allocatable after reallocation (Fig. 8)."""
        net = fig8_network()
        assign_fig8_initial_flow(net)
        res = dinic(net, "s", "t")
        assert res.value == 3
        check_flow(net, "s", "t")

    def test_phases_counted(self):
        net = fig8_network()
        res = dinic(net, "s", "t")
        assert res.phases >= 1

    def test_counter_charges(self):
        net = fig8_network()
        counter = OpCounter()
        dinic(net, "s", "t", counter=counter)
        assert counter["arc_scan"] > 0
        assert counter["augmentation"] >= 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_networks_match_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        net, s, t = random_flow_network(rng, n_nodes=12, n_arcs=36)
        expected = nx_max_flow(net, s, t)
        assert dinic(net, s, t).value == expected
        check_flow(net, s, t)
        assert is_integral(net)


@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(4, 14),
    n_arcs=st.integers(4, 50),
)
@settings(max_examples=60, deadline=None)
def test_property_dinic_equals_edmonds_karp(seed, n_nodes, n_arcs):
    """Property: Dinic and Edmonds–Karp find the same max-flow value."""
    rng = np.random.default_rng(seed)
    net, s, t = random_flow_network(rng, n_nodes=n_nodes, n_arcs=n_arcs, unit=True)
    v_dinic = dinic(net.copy(), s, t).value
    v_ek = edmonds_karp(net, s, t).value
    assert v_dinic == v_ek
