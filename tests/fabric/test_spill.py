"""Spill-tier tests: the reduced Clos network and max-flow routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.spill import SpillTopology, build_spill_network, solve_spill
from repro.flows import FlowNetwork, dinic


def total(routes):
    return sum(routes.values())


class TestSolveSpill:
    def test_routes_demand_to_spare(self):
        routes = solve_spill(
            {0: 3}, {1: 5}, topology=SpillTopology(), n_cells=2
        )
        assert routes == {(0, 1): 3}

    def test_respects_spare_capacity(self):
        routes = solve_spill(
            {0: 10}, {1: 4}, topology=SpillTopology(uplink=32), n_cells=2
        )
        assert routes == {(0, 1): 4}

    def test_respects_origin_uplink(self):
        """An origin can export at most ``uplink`` requests per round
        no matter how much spare exists elsewhere."""
        routes = solve_spill(
            {0: 50}, {1: 50}, topology=SpillTopology(uplink=8), n_cells=2
        )
        assert total(routes) == 8

    def test_trunk_bounds_cross_pod_traffic(self):
        """Demand in pod 0, spare in pod 1: the core trunk caps it."""
        topo = SpillTopology(group_size=1, uplink=100, trunk=5)
        routes = solve_spill({0: 50}, {1: 50}, topology=topo, n_cells=2)
        assert total(routes) == 5

    def test_intra_pod_traffic_bypasses_trunk(self):
        """Same-pod spills use the pod arc, not the core trunk."""
        topo = SpillTopology(group_size=2, uplink=10, trunk=1)
        routes = solve_spill({0: 8}, {1: 8}, topology=topo, n_cells=2)
        assert total(routes) == 8

    def test_splits_across_multiple_hosts(self):
        topo = SpillTopology(group_size=4, uplink=8, trunk=32)
        routes = solve_spill(
            {0: 8}, {1: 3, 2: 3, 3: 3}, topology=topo, n_cells=4
        )
        assert total(routes) == 8
        assert all(origin == 0 for origin, _ in routes)
        for (_, host), count in routes.items():
            assert count <= {1: 3, 2: 3, 3: 3}[host]

    def test_empty_cases(self):
        topo = SpillTopology()
        assert solve_spill({}, {1: 5}, topology=topo, n_cells=2) == {}
        assert solve_spill({0: 5}, {}, topology=topo, n_cells=2) == {}

    def test_deterministic(self):
        demands = {0: 5, 2: 7, 5: 1}
        spares = {1: 4, 3: 6, 4: 2, 6: 9}
        topo = SpillTopology(group_size=2, uplink=4, trunk=8)
        first = solve_spill(demands, spares, topology=topo, n_cells=8)
        for _ in range(3):
            assert (
                solve_spill(demands, spares, topology=topo, n_cells=8)
                == first
            )


class TestBuildNetwork:
    @staticmethod
    def core_arcs(kernel, sink):
        """Arcs into or out of the core trunk (node ``sink + 1``)."""
        core = sink + 1
        return [a for a in range(kernel.n_arcs) if kernel.to[a] == core]

    def test_single_pod_has_no_core(self):
        kernel, source, sink = build_spill_network(
            {0: 1}, {1: 1}, SpillTopology(group_size=4), n_cells=4
        )
        assert self.core_arcs(kernel, sink) == []

    def test_multi_pod_has_core(self):
        kernel, source, sink = build_spill_network(
            {0: 1}, {5: 1}, SpillTopology(group_size=2), n_cells=6
        )
        assert self.core_arcs(kernel, sink)

    def test_reduced_size_is_independent_of_ports(self):
        """The whole point: the spill solve is over cells, not ports —
        a handful of nodes regardless of installation size."""
        kernel, _, _ = build_spill_network(
            {i: 3 for i in range(8)},
            {i: 3 for i in range(8)},
            SpillTopology(group_size=4),
            n_cells=8,
        )
        assert kernel.n_nodes <= 2 + 2 * 8 + 2 * 2 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SpillTopology(group_size=0)
        with pytest.raises(ValueError):
            SpillTopology(uplink=0)
        with pytest.raises(ValueError):
            SpillTopology(trunk=0)


def object_spill_network(demands, spares, topology, n_cells):
    """The reduced Clos as an object graph with named nodes, built
    independently of the kernel's dense numbering: the oracle's input."""
    net = FlowNetwork()
    n_groups = -(-n_cells // topology.group_size)
    for cell in range(n_cells):
        group = cell // topology.group_size
        if demands.get(cell, 0) > 0:
            net.add_arc("source", ("out", cell), demands[cell])
            net.add_arc(("out", cell), ("up", group), topology.uplink)
        if spares.get(cell, 0) > 0:
            net.add_arc(("down", group), ("in", cell), topology.uplink)
            net.add_arc(("in", cell), "sink", spares[cell])
    for group in range(n_groups):
        net.add_arc(("up", group), ("down", group), topology.uplink * topology.group_size)
        if n_groups > 1:
            net.add_arc(("up", group), "core", topology.trunk)
            net.add_arc("core", ("down", group), topology.trunk)
    return net


@st.composite
def spill_instances(draw):
    n_cells = draw(st.integers(2, 12))
    load = st.dictionaries(st.integers(0, n_cells - 1), st.integers(0, 12), max_size=n_cells)
    topology = SpillTopology(
        group_size=draw(st.sampled_from([1, 2, 4])),
        uplink=draw(st.integers(1, 8)),
        trunk=draw(st.integers(1, 32)),
    )
    return draw(load), draw(load), topology, n_cells


class TestSpillDifferential:
    @given(instance=spill_instances())
    @settings(max_examples=150, deadline=None)
    def test_routes_are_an_object_dinic_max_flow(self, instance):
        demands, spares, topology, n_cells = instance
        routes = solve_spill(demands, spares, topology=topology, n_cells=n_cells)
        net = object_spill_network(demands, spares, topology, n_cells)
        expected = dinic(net, "source", "sink").value
        assert total(routes) == expected
        assert all(count > 0 for count in routes.values())
        for origin in {o for o, _ in routes}:
            assert sum(c for (o, _), c in routes.items() if o == origin) <= demands[origin]
        for host in {h for _, h in routes}:
            assert sum(c for (_, h), c in routes.items() if h == host) <= spares[host]
        again = solve_spill(demands, spares, topology=topology, n_cells=n_cells)
        assert list(again.items()) == list(routes.items())
