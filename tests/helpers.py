"""Shared test utilities: random instance generators and oracles.

NetworkX and SciPy appear *only* here (and in the benchmark
cross-checks); the library under test never imports them.
"""

from __future__ import annotations

from functools import partial

import networkx as nx
import numpy as np

from repro.core.model import MRSIN
from repro.flows.graph import FlowNetwork
from repro.networks import build_network
from repro.sim.workload import WorkloadSpec, sample_instance

#: Table II row-4 draws whose min-cost LP optimum is fractional, found
#: by an aimed search (seeds 0-199 of :func:`fractional_row4_instance`
#: on all twelve registry topologies): ``(topology, seed, served,
#: flow cost)``.  The served count and cost are the exhaustive optimum.
FRACTIONAL_ROW4 = [
    ("benes", 72, 6, 45.0),
    ("benes", 171, 5, 52.0),
    ("data_manipulator", 92, 6, 45.0),
]


def fractional_row4_instance(topology: str, seed: int) -> MRSIN:
    """Eight ports, two types, four priority levels, a quarter of the
    resources busy, every processor asking (requests queued)."""
    spec = WorkloadSpec(
        partial(build_network, topology), n_ports=8, request_density=1.0,
        free_density=0.75, priority_levels=4, resource_types=["a", "b"],
    )
    return sample_instance(spec, np.random.default_rng(seed))


def random_flow_network(
    rng: np.random.Generator,
    n_nodes: int = 8,
    n_arcs: int = 20,
    max_cap: int = 5,
    max_cost: int = 10,
    *,
    unit: bool = False,
) -> tuple[FlowNetwork, int, int]:
    """A random digraph with integer capacities/costs; returns (net, s, t).

    Nodes are ``0..n_nodes-1`` with source 0 and sink ``n_nodes-1``.
    Parallel arcs are allowed; self-loops are skipped.  ``unit=True``
    forces all capacities to 1 (the MRSIN case).
    """
    net = FlowNetwork()
    for v in range(n_nodes):
        net.add_node(v)
    added = 0
    while added < n_arcs:
        u = int(rng.integers(0, n_nodes))
        v = int(rng.integers(0, n_nodes))
        if u == v:
            continue
        cap = 1 if unit else int(rng.integers(1, max_cap + 1))
        cost = int(rng.integers(0, max_cost + 1))
        net.add_arc(u, v, capacity=cap, cost=cost)
        added += 1
    return net, 0, n_nodes - 1


def to_networkx(net: FlowNetwork) -> nx.DiGraph:
    """Convert to a NetworkX DiGraph, merging parallel arcs.

    Parallel arcs are merged by summing capacities; for min-cost
    oracles use :func:`to_networkx_multi` instead (costs cannot be
    merged).
    """
    g = nx.DiGraph()
    for node in net.nodes:
        g.add_node(node)
    for arc in net.arcs:
        if g.has_edge(arc.tail, arc.head):
            g[arc.tail][arc.head]["capacity"] += arc.capacity
        else:
            g.add_edge(arc.tail, arc.head, capacity=arc.capacity)
    return g


def to_networkx_multi(net: FlowNetwork) -> nx.MultiDiGraph:
    """Convert to a MultiDiGraph preserving parallel arcs and costs."""
    g = nx.MultiDiGraph()
    for node in net.nodes:
        g.add_node(node)
    for arc in net.arcs:
        g.add_edge(arc.tail, arc.head, capacity=arc.capacity, weight=arc.cost)
    return g


def nx_max_flow(net: FlowNetwork, s, t) -> float:
    """Oracle maximum-flow value via NetworkX."""
    g = to_networkx(net)
    if s not in g or t not in g:
        return 0.0
    return float(nx.maximum_flow_value(g, s, t))


def nx_min_cost_for_value(net: FlowNetwork, s, t, value: int) -> float:
    """Oracle minimum cost of circulating ``value`` units from s to t."""
    g = to_networkx_multi(net)
    g.add_node(s)
    g.add_node(t)
    demands = {node: 0 for node in g.nodes}
    demands[s] = -value
    demands[t] = value
    nx.set_node_attributes(g, demands, "demand")
    flow_dict = nx.min_cost_flow(g)
    cost = 0.0
    for u, targets in flow_dict.items():
        for v, keyed in targets.items():
            for key, f in keyed.items():
                cost += g[u][v][key]["weight"] * f
    return cost


def checked_switch_settings(net) -> dict[tuple[int, int], dict[int, int]]:
    """``net.switch_settings()`` by ``(stage, index)``, after checking
    Theorem 1's invariants on it.

    Every derived setting is a non-broadcast partial matching inside
    its box's shape, and the settings are exactly the consecutive link
    pairs of the active circuits, rebuilt here from ``PortRef``
    coordinates: no two circuits claim one port, and a box no circuit
    crosses has no setting.
    """
    expected: dict[tuple[int, int], dict[int, int]] = {}
    for circuit in net.circuits:
        for a, b in zip(circuit.links, circuit.links[1:]):
            key = (a.dst.stage, a.dst.box)
            assert key == (b.src.stage, b.src.box)
            setting = expected.setdefault(key, {})
            assert a.dst.port not in setting, f"two circuits hold input {a.dst.port} of {key}"
            setting[a.dst.port] = b.src.port
    derived = {(box.stage, box.index): s for box, s in net.switch_settings().items()}
    for (stage, index), setting in derived.items():
        box = net.box(stage, index)
        assert setting, "an unset box is absent, never empty"
        assert len(set(setting.values())) == len(setting), "broadcast setting"
        assert all(0 <= i < box.n_in and 0 <= o < box.n_out for i, o in setting.items())
    assert derived == expected
    return derived
