"""Table II rows 1-2 lowered straight onto the flow kernel.

The default homogeneous and priority routes of ``OptimalScheduler``
never build a ``FlowNetwork``: ``lower_to_kernel`` emits the arcs of
Transformation 1 / 2 in the object builders' order, the kernel solves,
and one array walk reads the mapping back.  The object route —
``transformation1/2`` + the ``"kernel"`` table entry + ``extract_mapping``
— is the oracle: same mapping, assignment for assignment, and the same
cost, on loaded and fault-degraded registry topologies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, Discipline, KernelFlowEngine, OptimalScheduler, Request
from repro.core.scheduler import MAXFLOW_ALGORITHMS, MINCOST_ALGORITHMS
from repro.core.transform import extract_mapping, transformation1, transformation2
from repro.flows.graph import FlowNetwork
from repro.networks import build_network

PORTS = 8
TOPOLOGIES = ["omega", "benes", "clos", "crossbar", "gamma", "baseline"]


def degraded_system(name: str, seed: int) -> tuple[MRSIN, list[Request]]:
    """A registry network carrying a random prior mapping, with busy and
    failed resources, failed links and switchboxes, random preferences,
    and a random batch of prioritised requests."""
    rng = np.random.default_rng(seed)
    mrsin = MRSIN(build_network(name, PORTS), preferences=rng.integers(1, 11, PORTS).tolist())
    prior = [Request(int(p)) for p in rng.choice(PORTS, int(rng.integers(0, 4)), replace=False)]
    mrsin.apply_mapping(OptimalScheduler(maxflow="dinic").schedule(mrsin, prior))
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
        Request(p, priority=int(rng.integers(1, 11)))
        for p in range(PORTS)
        if p not in served and rng.random() < 0.7
    ]
    return mrsin, requests


@given(name=st.sampled_from(TOPOLOGIES), seed=st.integers(0, 2**32 - 1), priced=st.booleans())
@settings(max_examples=60, deadline=None)
def test_default_route_equals_object_kernel_route(name, seed, priced):
    mrsin, requests = degraded_system(name, seed)
    discipline = Discipline.PRIORITY if priced else Discipline.HOMOGENEOUS
    scheduler = OptimalScheduler()
    mapping = scheduler.schedule(mrsin, requests, discipline=discipline)

    problem = (transformation2 if priced else transformation1)(mrsin, requests)
    if priced:
        oracle = MINCOST_ALGORITHMS["kernel"](
            problem.net, problem.source, problem.sink, target_flow=problem.required_flow
        )
        assert scheduler.stats.flow_cost == oracle.cost
    else:
        oracle = MAXFLOW_ALGORITHMS["kernel"](problem.net, problem.source, problem.sink)
        assert scheduler.stats.flow_cost == 0.0
    assert scheduler.stats.flow_value == oracle.value
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
