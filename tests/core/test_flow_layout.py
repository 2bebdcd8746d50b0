"""The wiring-time flow layouts every lowering copies.

``MultistageNetwork.flow_layout`` builds Transformation 1's and 2's
arcs once per network; ``lower_to_kernel`` copies one and writes the
cycle's capacities, and the tick engine copies one once and rewrites
its capacities every cycle.  These tests hold the lifecycle: one build
per layout however many solves and engine cycles read it, a rebuild
after the wiring changes, no write of one solve reaching the next, and
the engine's arrays at solve time exactly those of the network it
lowered before the layouts existed.
"""

import numpy as np
import pytest

from repro.core import MRSIN, Discipline, KernelFlowEngine, OptimalScheduler, Request
from repro.core.transform import lower_to_kernel, transformation1, transformation2
from repro.flows.kernel import FlowKernel
from repro.networks import TOPOLOGIES
from repro.networks.topology import FLOW_TERMINALS, MultistageNetwork, PortRef

from tests.core.test_lowering import TYPES, degraded_system

ROWS = [Discipline.HOMOGENEOUS, Discipline.PRIORITY, Discipline.HETEROGENEOUS]


def kernel_arrays(kernel: FlowKernel) -> tuple[list[int], ...]:
    return kernel.head, kernel.next_arc, kernel.to, kernel.cap, kernel.base


def persistent_lowering(mrsin: MRSIN) -> FlowKernel:
    """The warm engine's network as it was lowered arc by arc before the
    layouts: a closed source arc per processor, an arc per link (closed
    while occupied or unusable), then a sink arc per resource a link
    enters (closed while the resource is unavailable)."""
    network = mrsin.network
    res0 = FLOW_TERMINALS + network.n_processors
    procs = range(FLOW_TERMINALS, res0)
    tails, heads, caps = [0] * len(procs), list(procs), [0] * len(procs)
    ends = network.flow_ends
    for link, tail, head in zip(network.links, ends[0::2], ends[1::2]):
        tails.append(tail)
        heads.append(head)
        caps.append(0 if link.occupied or not network.link_usable(link) else 1)
    entered = set(ends[1::2])
    for res in mrsin.resources:
        if res0 + res.index in entered:
            tails.append(res0 + res.index)
            heads.append(1)
            caps.append(1 if res.available else 0)
    kernel = FlowKernel(network.n_flow_nodes)
    kernel.add_arcs(tails, heads, caps)
    return kernel


def test_each_layout_is_built_once_per_network(monkeypatch):
    builds = []
    real = FlowKernel.add_arcs
    monkeypatch.setattr(
        FlowKernel, "add_arcs", lambda self, *args: builds.append(1) or real(self, *args)
    )
    mrsin, requests = degraded_system("omega", 3, TYPES[:2], ports=16)
    plain = [Request(r.processor) for r in requests]
    engine = KernelFlowEngine(mrsin)
    for _ in range(3):
        for row in ROWS:
            OptimalScheduler().schedule(
                mrsin, requests if row is Discipline.HETEROGENEOUS else plain, discipline=row
            )
        engine.schedule(plain)
    assert engine.builds == 1
    assert len(builds) == 2  # Transformation 1's layout and Transformation 2's


def test_a_wiring_change_rebuilds_the_layouts():
    net = MultistageNetwork("hand", 2, 2)
    net.add_stage([(2, 2)])
    for p in range(2):
        net.add_link(PortRef.processor(p), PortRef.box_in(0, 0, p))
    net.add_link(PortRef.box_out(0, 0, 0), PortRef.resource(0))
    plain, priced = net.flow_layout(), net.flow_layout(True)
    assert net.flow_layout() is plain and net.flow_layout(True) is priced
    assert [r for r, _ in plain.sinks] == [0]
    net.add_link(PortRef.box_out(0, 0, 1), PortRef.resource(1))
    assert net.flow_layout() is not plain and net.flow_layout(True) is not priced
    assert [r for r, _ in net.flow_layout().sinks] == [0, 1]
    assert net.flow_layout().kernel.n_arcs == plain.kernel.n_arcs + 4
    grown = net.flow_layout()
    net.add_stage([(1, 1)])
    assert net.flow_layout() is not grown
    assert net.flow_layout().kernel.n_nodes == grown.kernel.n_nodes + 1


def _faults(mrsin: MRSIN) -> list[tuple[str, object]]:
    """Six links, a switchbox and two resources the draw left healthy;
    the choice is a function of the draw alone."""
    network = mrsin.network
    rng = np.random.default_rng(99)
    links = [link.index for link in network.links if not (link.failed or link.occupied)]
    boxes = [(box.stage, box.index) for box in network.boxes() if not box.failed]
    resources = [res.index for res in mrsin.resources if res.available]
    return [
        *[("link", int(i)) for i in rng.choice(links, 6, replace=False)],
        ("switchbox", boxes[int(rng.integers(len(boxes)))]),
        *[("resource", int(i)) for i in rng.choice(resources, 2, replace=False)],
    ]


def _routes(mapping) -> list[tuple[int, int, list[int]]]:
    return [(a.request.processor, a.resource.index, [l.index for l in a.path]) for a in mapping]


@pytest.mark.parametrize("row", ROWS, ids=[row.value for row in ROWS])
def test_no_solve_writes_reach_the_next(row):
    types = TYPES[:2] if row is Discipline.HETEROGENEOUS else ("default",)
    mrsin, requests = degraded_system("benes", 4, types, ports=16)
    batches = [requests, requests[::-2]]  # state two: a reordered subset
    faults = _faults(mrsin)
    expected = []
    for flipped, batch in enumerate(batches):
        fresh, _ = degraded_system("benes", 4, types, ports=16)
        for kind, target in faults:
            fresh.set_failed(kind, target, bool(flipped))
        expected.append(_routes(OptimalScheduler().schedule(fresh, batch, discipline=row)))
    assert expected[0] != expected[1]
    layouts = [mrsin.network.flow_layout(), mrsin.network.flow_layout(True)]
    pristine = [tuple(list(a) for a in kernel_arrays(lay.kernel)) for lay in layouts]
    for turn in range(4):
        for kind, target in faults:
            mrsin.set_failed(kind, target, bool(turn % 2))
        mapping = OptimalScheduler().schedule(mrsin, batches[turn % 2], discipline=row)
        assert _routes(mapping) == expected[turn % 2]
    assert [kernel_arrays(lay.kernel) for lay in layouts] == pristine


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_engine_arrays_are_the_persistent_lowering(name):
    for seed in range(3):
        mrsin, _ = degraded_system(name, seed, ports=16)
        engine = KernelFlowEngine(mrsin)
        engine.schedule([])  # writes this cycle's capacities, opens no source arc
        # The engine never reads ``base``: a cycle overwrites every ``cap``.
        assert kernel_arrays(engine._kernel)[:4] == kernel_arrays(persistent_lowering(mrsin))[:4]


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("priced", [False, True])
def test_open_arcs_are_the_object_transformations(name, priced):
    """A lowering opens exactly the arcs ``transformation1/2`` adds, at
    their prices, so the value bound ``min(requests, open sinks)`` and
    the min-cost solve's distance bound are the object network's."""
    for seed in range(3):
        mrsin, requests = degraded_system(name, seed, ports=16)
        lowered = lower_to_kernel(mrsin, requests, priced=priced)
        problem = (transformation2 if priced else transformation1)(mrsin, requests)
        cap = lowered.kernel.cap
        assert list(lowered.source_arc) == [req.processor for req in requests]
        assert {link.index for a, link in enumerate(lowered.link_of_arc) if link and cap[a]} \
            == {link.index for link in problem.arc_link.values()}
        assert set(lowered.sink_arc) == {
            arc.tail[1] for arc in problem.net.arcs if arc.head == "t" and arc.tail != "u"
        }
        assert sum(a % 2 == 0 and cap[a] > 0 for a in range(len(cap))) == len(problem.net.arcs)
        if priced:
            assert sum(lowered.cost[::2]) == sum(arc.cost for arc in problem.net.arcs)
