"""The unit push against the general push: same paths, residuals and counts.

``FlowKernel.unit_paths`` pushes each augmenting path by the unit push
(every arc 1 → 0, its reverse 0 → 1, restart at the source) and reads
the paths back without a walk when one phase was enough.  The oracle
here is the general route on a copy of the same kernel: ``max_flow``'s
general push (``min`` over the path, retreat to the first saturated
arc), then ``decompose`` over every touched pair.  Every ``unit_paths``
call that cold rows 1 and 3 and the tick engine make must match it in
paths, final ``cap`` and all five kernel counters, on registry
topologies degraded by failed links and boxes and by held circuits,
with shuffled batches and with both ``s`` orders (the engine links
every processor in processor order; a cold lowering links the batch in
request order).
"""

import numpy as np
import pytest

from repro.core import KernelFlowEngine, OptimalScheduler, Request
from repro.flows.kernel import FlowKernel
from repro.flows.validate import FlowViolation
from repro.networks import build_network
from repro.sim.workload import WorkloadSpec, build_mrsin

COUNTERS = ("visits", "scans", "augmentations", "pushes", "phases")
TOPOLOGIES = ["omega", "benes", "gamma", "data_manipulator", "crossbar", "clos", "omega+1"]


def general_unit_paths(kernel, source, sink, *, levels, value_bound):
    """``unit_paths`` by the general push and the walk."""
    touched: list[int] = []
    value = kernel.max_flow(
        source, sink, levels=levels, value_bound=value_bound, touched=touched
    )
    paths = kernel.decompose(source, sink, sorted({a & -2 for a in touched}))
    assert len(paths) == value
    return paths


@pytest.fixture
def phases_seen(monkeypatch):
    """Check every ``unit_paths`` call against the oracle on a copy of
    its kernel; collects each call's phase count."""
    seen: list[int] = []
    real = FlowKernel.unit_paths

    def checked(self, source, sink, *, levels, value_bound):
        twin = self.copy()
        before = [getattr(self, name) for name in COUNTERS]
        paths = real(self, source, sink, levels=levels, value_bound=value_bound)
        expected = general_unit_paths(twin, source, sink, levels=levels, value_bound=value_bound)
        assert paths == expected
        assert self.cap == twin.cap
        assert [getattr(self, name) - b for name, b in zip(COUNTERS, before)] == [
            getattr(twin, name) for name in COUNTERS
        ]
        seen.append(twin.phases)
        return paths

    monkeypatch.setattr(FlowKernel, "unit_paths", checked)
    return seen


def degraded(name: str, ports: int, seed: int, types=None):
    """A system with held circuits, busy resources, and failed links and boxes."""
    rng = np.random.default_rng(seed)
    spec = WorkloadSpec(
        lambda n: build_network(name, n), n_ports=ports,
        occupied_circuits=ports // 8, resource_types=types,
    )
    mrsin = build_mrsin(spec, rng)
    for res in mrsin.resources:
        if not res.busy and rng.random() < 0.15:
            res.busy = True
    for i, link in enumerate(mrsin.network.links):
        if not link.occupied and rng.random() < 0.03:
            mrsin.set_failed("link", i)
    for stage, boxes in enumerate(mrsin.network.stages):
        for box in range(len(boxes)):
            if rng.random() < 0.02:
                mrsin.set_failed("switchbox", (stage, box))
    asking = rng.permutation(ports)[: int(ports * 0.8)]
    kinds = types or ["default"]
    batch = [Request(int(p), resource_type=kinds[int(rng.integers(len(kinds)))]) for p in asking]
    return mrsin, batch


@pytest.mark.parametrize("name", TOPOLOGIES)
@pytest.mark.parametrize("ports", [16, 64])
def test_unit_push_matches_the_general_push(name, ports, phases_seen):
    for seed in range(3):
        mrsin, batch = degraded(name, ports, seed)
        cold = OptimalScheduler().schedule(mrsin, batch)
        warm = KernelFlowEngine(mrsin).schedule(batch)
        assert len(warm) == len(cold)
    assert len(phases_seen) == 6


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_typed_rows_unit_push_matches_the_general_push(name, phases_seen):
    # Row 3 runs one unit_paths per type, with earlier types' paths
    # frozen (both residuals 0); at 8 ports its uncertified LP fallback
    # stays cheap.
    for seed in range(3):
        mrsin, batch = degraded(name, 8, seed, types=["a", "b"])
        OptimalScheduler().schedule(mrsin, batch)
    assert phases_seen


def test_both_push_branches_are_compared(phases_seen):
    # The read-back without a walk (one phase) and the walk after a
    # second phase are both held to the oracle.
    for seed in range(8):
        mrsin, batch = degraded("omega", 64, seed)
        OptimalScheduler().schedule(mrsin, batch)
        KernelFlowEngine(mrsin).schedule(batch)
    assert min(phases_seen) == 1
    assert max(phases_seen) >= 2


def test_a_non_unit_arc_on_an_augmenting_path_raises():
    # s -> a at capacity 2, a -> t at 1: the one augmenting path would
    # leave a unit of residual on s -> a, which no unit push can record.
    k = FlowKernel(3)
    k.add_arcs([0, 2], [2, 1], [2, 1])
    with pytest.raises(FlowViolation, match="residual 2, not 1"):
        k.unit_paths(0, 1, levels=[0, 2, 1], value_bound=1)
