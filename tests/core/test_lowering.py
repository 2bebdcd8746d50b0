"""Table II rows 1-3 lowered straight onto the flow kernel.

The default homogeneous and priority routes of ``OptimalScheduler``
never build a ``FlowNetwork``: ``lower_to_kernel`` emits the arcs of
Transformation 1 / 2 in the object builders' order, the kernel solves,
and one array walk reads the mapping back.  The object route —
``transformation1/2``, the same kernel solve on those arcs with the
flows written back (:func:`solve_object_on_kernel`), ``extract_mapping``
— is the oracle: same mapping, assignment for assignment, and the same
cost, on loaded and fault-degraded registry topologies, in any request
order.  Row 1's read-back is ``FlowKernel.unit_paths`` (the warm
engine's too): its augmenting paths stand in for the walk, so both of
its branches are held to the walk on the same draws.

Row 3 (heterogeneous) solves one kernel max flow per type and keeps
the result only when it reaches the type-blind and per-type upper
bounds; the multicommodity LP is the oracle for both outcomes.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, Discipline, KernelFlowEngine, OptimalScheduler, Request
from repro.core import scheduler as scheduler_module
from repro.core.exhaustive import mapping_objective_cost
from repro.core.transform import (
    extract_mapping,
    extract_multicommodity_mapping,
    heterogeneous_max_problem,
    lower_to_kernel,
    transformation1,
    transformation2,
)
from repro.flows.graph import FlowNetwork
from repro.flows.kernel import FlowKernel
from repro.flows.multicommodity import solve_integral_multicommodity, solve_max_multicommodity
from repro.networks import TOPOLOGIES as REGISTRY
from repro.networks import build_network

PORTS = 8
TOPOLOGIES = ["omega", "benes", "clos", "crossbar", "gamma", "baseline"]
TYPES = ("fft", "conv", "fir")


def degraded_system(
    name: str, seed: int, types: Sequence[str] = ("default",), ports: int = PORTS
) -> tuple[MRSIN, list[Request]]:
    """A registry network carrying a random prior mapping, with busy and
    failed resources, failed links and switchboxes, random preferences,
    and a random batch of prioritised requests; resources take
    ``types`` in turn and each request one of them at random."""
    rng = np.random.default_rng(seed)
    mrsin = MRSIN(
        build_network(name, ports),
        resource_types=[types[i % len(types)] for i in range(ports)],
        preferences=rng.integers(1, 11, ports).tolist(),
    )
    prior = [
        Request(int(p), resource_type=types[int(p) % len(types)])
        for p in rng.choice(ports, int(rng.integers(0, 4)), replace=False)
    ]
    forced = Discipline.HETEROGENEOUS if len(types) > 1 else None
    mrsin.apply_mapping(
        OptimalScheduler(maxflow="dinic").schedule(mrsin, prior, discipline=forced)
    )
    for res in mrsin.free_resources():
        if rng.random() < 0.15:
            res.busy = True
        elif rng.random() < 0.1:
            mrsin.fail_resource(res.index)
    for link in mrsin.network.links:
        if rng.random() < 0.05:
            mrsin.fail_link(link.index)
    for stage, boxes in enumerate(mrsin.network.stages):
        for box in range(len(boxes)):
            if rng.random() < 0.05:
                mrsin.fail_switchbox(stage, box)
    served = {circuit.processor for circuit in mrsin.network.circuits}
    requests = [
        Request(
            p,
            resource_type=types[int(rng.integers(len(types)))],
            priority=int(rng.integers(1, 11)),
        )
        for p in range(ports)
        if p not in served and rng.random() < 0.7
    ]
    return mrsin, requests


def solve_object_on_kernel(problem, priced: bool) -> tuple[int, int]:
    """``problem``'s object network solved on a kernel, arc ``k`` as pair
    ``2 * k``, its flows written back onto ``Arc.flow``: ``(value, cost)``."""
    net = problem.net
    node_of = {node: v for v, node in enumerate(net.nodes)}
    kernel = FlowKernel(len(node_of))
    kernel.add_arcs(
        [node_of[arc.tail] for arc in net.arcs],
        [node_of[arc.head] for arc in net.arcs],
        [arc.capacity for arc in net.arcs],
    )
    s, t = node_of[problem.source], node_of[problem.sink]
    if priced:
        cost = [c for arc in net.arcs for c in (int(arc.cost), -int(arc.cost))]
        value, total = kernel.min_cost_flow(s, t, cost, problem.required_flow)
    else:
        value, total = kernel.max_flow(s, t), 0
    for k, arc in enumerate(net.arcs):
        arc.flow = kernel.cap[2 * k + 1]
    return value, total


def shuffled(requests: list[Request], order: int) -> list[Request]:
    """``requests`` permuted by seed ``order``; 0 keeps them as built."""
    if not order:
        return requests
    return [requests[i] for i in np.random.default_rng(order).permutation(len(requests))]


@given(
    name=st.sampled_from(TOPOLOGIES),
    seed=st.integers(0, 2**32 - 1),
    priced=st.booleans(),
    order=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_default_route_equals_object_kernel_route(name, seed, priced, order):
    mrsin, requests = degraded_system(name, seed)
    requests = shuffled(requests, order)
    discipline = Discipline.PRIORITY if priced else Discipline.HOMOGENEOUS
    scheduler = OptimalScheduler()
    mapping = scheduler.schedule(mrsin, requests, discipline=discipline)

    problem = (transformation2 if priced else transformation1)(mrsin, requests)
    value, cost = solve_object_on_kernel(problem, priced)
    assert scheduler.stats.flow_cost == cost
    assert scheduler.stats.flow_value == value
    assert mapping.assignments == extract_mapping(problem, mrsin).assignments
    mapping.validate(mrsin)

    # Theorem 2 (and Theorem 3's "cost optimality implies maximum
    # allocation"): as many served as the object Dinic's max flow.
    dinic = OptimalScheduler(maxflow="dinic").schedule(
        mrsin, requests, discipline=Discipline.HOMOGENEOUS
    )
    assert len(mapping) == len(dinic)


def test_default_rows_and_engine_build_no_object_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("FlowNetwork.add_arc called")

    monkeypatch.setattr(FlowNetwork, "add_arc", refuse)
    mrsin, requests = degraded_system("omega", 5)
    plain = [Request(r.processor) for r in requests]
    assert len(OptimalScheduler().schedule(mrsin, plain, discipline=Discipline.HOMOGENEOUS))
    assert len(OptimalScheduler().schedule(mrsin, requests, discipline=Discipline.PRIORITY))
    engine = KernelFlowEngine(mrsin)
    assert len(engine.schedule(plain))
    assert engine.builds == 1
    with pytest.raises(RuntimeError, match="add_arc"):  # the oracle route still builds one
        OptimalScheduler(maxflow="dinic").schedule(mrsin, plain, discipline=Discipline.HOMOGENEOUS)
    # Row 3, certified: the LP (which builds a FlowNetwork) never runs.
    mrsin, requests = degraded_system("omega", 5, TYPES[:2])
    assert len(OptimalScheduler().schedule(mrsin, requests, discipline=Discipline.HETEROGENEOUS))


def unit_paths_against_the_walk(name: str, seed: int, ports: int, order: int) -> bool:
    """Row 1's ``FlowKernel.unit_paths`` on one degraded draw, held to
    the walk it replaces; returns whether its fast path served the draw.

    On the same arrays the fast path's paths are what ``decompose``
    walks over every forward arc; on either branch they are what a
    BFS-led ``max_flow`` plus that walk give on a fresh lowering.
    """
    mrsin, requests = degraded_system(name, seed, ports=ports)
    plain = shuffled([Request(r.processor) for r in requests], order)
    lowered = lower_to_kernel(mrsin, plain)
    kernel, s, t = lowered.kernel, lowered.source, lowered.sink
    walks = []
    real_walk = FlowKernel.decompose
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowKernel, "decompose", lambda *args: walks.append(1) or real_walk(*args))
        paths = kernel.unit_paths(
            s, t, levels=mrsin.network.flow_levels,
            value_bound=min(len(plain), len(lowered.sink_arc)),
        )
    if not walks:
        assert paths == kernel.decompose(s, t, range(0, kernel.n_arcs, 2))
    fresh = lower_to_kernel(mrsin, plain)
    value = fresh.kernel.max_flow(fresh.source, fresh.sink)
    assert paths == fresh.kernel.decompose(s, t, range(0, fresh.kernel.n_arcs, 2))
    assert len(paths) == value
    return not walks


@given(
    name=st.sampled_from(sorted(REGISTRY)),
    seed=st.integers(0, 2**32 - 1),
    ports=st.sampled_from([8, 16]),
    order=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_unit_paths_are_the_walk(name, seed, ports, order):
    unit_paths_against_the_walk(name, seed, ports, order)


def test_unit_paths_draws_both_branches():
    # About one loaded omega-16 draw in four pushes on a reverse arc.
    fast = [unit_paths_against_the_walk("omega", seed, 16, seed) for seed in range(12)]
    assert any(fast) and not all(fast)


def _kernel_max_flow(mrsin: MRSIN, requests: list[Request]) -> int:
    lowered = lower_to_kernel(mrsin, requests)
    return lowered.kernel.max_flow(lowered.source, lowered.sink)


@given(
    name=st.sampled_from(sorted(REGISTRY)),
    seed=st.integers(0, 2**32 - 1),
    n_types=st.integers(2, 3),
    priced=st.booleans(),
)
@settings(max_examples=60, deadline=None)
# About 1 row-3 draw in 70 is uncertified; these are, so the LP branch
# runs every time.
@example(name="omega", seed=29, n_types=2, priced=False)
@example(name="benes", seed=104, n_types=2, priced=False)
@example(name="delta", seed=2, n_types=3, priced=False)
def test_typed_rows_against_the_lp(name, seed, n_types, priced):
    mrsin, requests = degraded_system(name, seed, TYPES[:n_types])
    if not requests:
        return
    if priced:
        # Row 4 stays on the LP; its optimum must be integral, and so
        # must the cost reported for it.
        scheduler = OptimalScheduler()
        mapping = scheduler.schedule(mrsin, requests)
        assert scheduler.stats.discipline is Discipline.HETEROGENEOUS_PRIORITY
        cost = scheduler.stats.flow_cost
        assert cost == int(cost) == mapping_objective_cost(mrsin, requests, mapping)
        mapping.validate(mrsin)
        return
    solved = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            scheduler_module, "solve_max_multicommodity",
            lambda problem: solved.append(problem) or solve_max_multicommodity(problem),
        )
        scheduler = OptimalScheduler()
        mapping = scheduler.schedule(mrsin, requests, discipline=Discipline.HETEROGENEOUS)
    mapping.validate(mrsin)
    by_type: dict[str, list[Request]] = {}
    for req in requests:
        by_type.setdefault(req.resource_type, []).append(req)
    bound = min(
        _kernel_max_flow(mrsin, requests),
        sum(_kernel_max_flow(mrsin, group) for group in by_type.values()),
    )
    problem, meta = heterogeneous_max_problem(mrsin, requests)
    lp = solve_max_multicommodity(problem)
    assert lp.total_flow <= bound + 1e-9
    assert len(mapping) <= bound
    if solved:
        # Uncertified: exactly what the LP route returns.
        if not lp.integral:
            lp = solve_integral_multicommodity(problem)
        expected = extract_multicommodity_mapping(lp, problem, meta, mrsin)
        assert mapping.assignments == expected.assignments
    else:
        assert len(mapping) == scheduler.stats.flow_value == bound == round(lp.total_flow)
