"""The flat-array CSR kernel: edge cases, solver hooks, and the
differential contract against the object solvers.

The kernel is the hot path; the object solvers are the teaching
implementations and the source of truth.  Every test here either pins
a kernel edge case (zero-capacity arcs, unreachable sinks, rejected
lower bounds) or fuzzes the two implementations against each other —
max flow against the object Dinic, min-cost flow against successive
shortest paths and out-of-kilter — on random graphs, on Transformation-1/2 networks over the stocked topologies
(healthy, loaded and fault-degraded), and through the warm engine's
full allocate/teardown/release lifecycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, Discipline, KernelFlowEngine, OptimalScheduler, Request
from repro.core.transform import transformation1
from repro.flows import FlowKernel, FlowNetwork, dinic, min_cost_flow
from repro.flows.mincost import InfeasibleFlowError
from repro.flows.validate import check_flow, is_integral
from repro.networks import TOPOLOGIES, benes, build_network, clos, crossbar, omega
from repro.util.counters import OpCounter

BUILDERS = {
    "omega8": lambda: omega(8),
    "benes8": lambda: benes(8),
    "clos-2x2x4": lambda: clos(2, 2, 4),
    "crossbar4": lambda: crossbar(4),
}


def inject_faults(mrsin: MRSIN, rng, *, resources: float, links: float, boxes: float) -> None:
    """Fail each resource / link / switchbox with the given probability."""
    for i in range(mrsin.n_resources):
        if rng.random() < resources:
            mrsin.set_failed("resource", i)
    for i in range(len(mrsin.network.links)):
        if rng.random() < links:
            mrsin.set_failed("link", i)
    for stage, stage_boxes in enumerate(mrsin.network.stages):
        for box in range(len(stage_boxes)):
            if rng.random() < boxes:
                mrsin.set_failed("switchbox", (stage, box))


def kernel_of(arcs, n_nodes: int = 6) -> FlowKernel:
    """Arc ``i`` of ``arcs`` (``(tail, head, capacity, ...)``) as kernel pair ``2 * i``."""
    k = FlowKernel(n_nodes)
    k.add_arcs([arc[0] for arc in arcs], [arc[1] for arc in arcs], [arc[2] for arc in arcs])
    return k


def diamond() -> FlowKernel:
    """s=0 -> {1, 2} -> t=3, unit arcs: max flow 2."""
    k = FlowKernel(4)
    k.add_arc(0, 1, 1)
    k.add_arc(0, 2, 1)
    k.add_arc(1, 3, 1)
    k.add_arc(2, 3, 1)
    return k


# ----------------------------------------------------------------------
# Kernel edge cases
# ----------------------------------------------------------------------
class TestKernelEdges:
    def test_zero_capacity_arc_carries_nothing(self):
        k = FlowKernel(2)
        a = k.add_arc(0, 1, 0)
        assert k.max_flow(0, 1) == 0
        assert k.cap[a ^ 1] == 0

    def test_unreachable_sink(self):
        k = FlowKernel(3)
        k.add_arc(0, 1, 5)
        assert k.max_flow(0, 2) == 0

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            FlowKernel(2).max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            FlowKernel(2).add_arc(0, 1, -1)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FlowKernel(2).add_arc(0, 2, 1)

    def test_pair_symmetry_after_solve(self):
        k = diamond()
        assert k.max_flow(0, 3) == 2
        for a in range(0, k.n_arcs, 2):
            # Residual bookkeeping: cap[a] + cap[a^1] conserves base.
            assert k.cap[a] + k.cap[a ^ 1] == k.base[a]
            assert k.base[a ^ 1] == 0

    def test_warm_augment_on_top(self):
        # Solve, widen a bottleneck, solve again: only the delta flows.
        k = diamond()
        assert k.max_flow(0, 3) == 2
        for a in (0, 4):  # widen s->1 and 1->t: cap and base together
            k.cap[a] += 1
            k.base[a] += 1
        assert k.max_flow(0, 3) == 1
        assert k.cap[4 ^ 1] == 2

    def test_reset_restores_base(self):
        k = diamond()
        k.max_flow(0, 3)
        k.reset()
        assert k.cap == k.base
        assert k.max_flow(0, 3) == 2


# ----------------------------------------------------------------------
# max_flow hooks: levels hint, value bound, touched, recorded paths
# ----------------------------------------------------------------------
class TestMaxFlowHooks:
    def test_exact_level_hint_matches_plain_solve(self):
        plain, hinted = diamond(), diamond()
        levels = [0, 1, 1, 2]  # the true BFS levels of the diamond
        assert hinted.max_flow(0, 3, levels=levels) == plain.max_flow(0, 3)
        assert hinted.cap == plain.cap
        assert levels == [0, 1, 1, 2]  # caller's list never mutated

    def test_degenerate_level_hint_still_exact(self):
        # A hint that makes the sink unreachable wastes phase 1 but
        # cannot cost optimality: later phases BFS normally.
        k = diamond()
        assert k.max_flow(0, 3, levels=[0, -1, -1, -1]) == 2

    def test_value_bound_certificate(self):
        k = diamond()
        assert k.max_flow(0, 3, value_bound=2) == 2
        # Bounded at the true max: the terminating BFS was skipped, so
        # the residual state still admits no more flow.
        assert k.max_flow(0, 3) == 0

    def test_value_bound_zero_short_circuits(self):
        k = diamond()
        assert k.max_flow(0, 3, value_bound=0) == 0
        assert k.cap == k.base  # nothing was pushed

    def test_touched_covers_every_flow_carrying_arc(self):
        k = diamond()
        touched: list[int] = []
        k.max_flow(0, 3, touched=touched)
        touched_pairs = {a & -2 for a in touched}
        carrying = {a for a in range(0, k.n_arcs, 2) if k.cap[a ^ 1] > 0}
        assert carrying <= touched_pairs

    def test_recorded_paths_are_the_unit_decomposition(self):
        k = diamond()
        paths: list[list[int]] = []
        touched: list[int] = []
        added = k.max_flow(0, 3, touched=touched, paths_out=paths)
        assert len(paths) == added == 2
        assert not any(a & 1 for a in touched)  # no unit rerouted
        for path in paths:
            # Each path is a contiguous source-to-sink arc walk.
            assert k.to[path[0] ^ 1] == 0
            assert k.to[path[-1]] == 3
            for prev, nxt in zip(path, path[1:]):
                assert k.to[prev] == k.to[nxt ^ 1]


# ----------------------------------------------------------------------
# CompiledNetwork: lowering, readback, rejected lower bounds
# ----------------------------------------------------------------------
class TestCompiledNetwork:
    def test_readback_matches_object_dinic(self):
        mrsin = MRSIN(omega(8))
        problem = transformation1(mrsin, [Request(p) for p in range(8)])
        obj, ker = problem.net.copy(), problem.net.copy()
        d = dinic(obj, problem.source, problem.sink)
        assert ker.compile().solve(problem.source, problem.sink) == d.value == 8
        assert check_flow(ker, problem.source, problem.sink) == 8
        assert is_integral(ker)
        assert {type(arc.flow) for arc in ker.arcs} == {int}  # Theorem 2's ints

    def test_second_solve_adds_nothing(self):
        mrsin = MRSIN(omega(8))
        problem = transformation1(mrsin, [Request(p) for p in range(8)])
        compiled = problem.net.compile()
        first = compiled.solve(problem.source, problem.sink)
        phases = compiled.kernel.phases
        again = compiled.solve(problem.source, problem.sink)
        assert first == again == 8  # augment-on-top found zero
        assert compiled.kernel.phases - phases <= 1

    def test_compile_rejects_lower_bounds(self):
        # The kernel solves plain max flow; a lower-bounded arc must be
        # refused by name, never solved as if its bound were 0.
        net = FlowNetwork()
        net.add_arc("s", "a", 2)
        net.add_arc("a", "t", 2, lower=1)
        with pytest.raises(ValueError, match=r"Arc#1\('a'->'t'.*lower bound 1"):
            net.compile()

    def test_seed_from_illegal_flow_raises(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        compiled = net.compile()
        net.arcs[0].flow = 5
        with pytest.raises(ValueError, match="illegal flow"):
            compiled.solve("s", "t")

    def test_missing_terminal_is_zero(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        assert net.compile().solve("s", "ghost") == 0


# ----------------------------------------------------------------------
# Min-cost flow: kernel edges
# ----------------------------------------------------------------------
def two_routes() -> FlowNetwork:
    """s -> t directly at cost 5, or via a at cost 1 + 1; one unit each."""
    net = FlowNetwork()
    net.add_arc("s", "t", 1, cost=5)
    net.add_arc("s", "a", 1, cost=1)
    net.add_arc("a", "t", 1, cost=1)
    return net


class TestMinCostKernel:
    def test_cheapest_route_first_then_the_dear_one(self):
        k = diamond()
        k.add_arc(0, 3, 1)
        cost = [1, -1, 2, -2, 1, -1, 2, -2, 9, -9]
        assert k.min_cost_flow(0, 3, cost, 1) == (1, 2)
        k.reset()
        assert k.min_cost_flow(0, 3, cost, 3) == (3, 2 + 4 + 9)

    def test_value_short_of_target_means_no_more_fits(self):
        k = diamond()
        assert k.min_cost_flow(0, 3, [0] * k.n_arcs, 5) == (2, 0)

    def test_empty_network_and_zero_target(self):
        # Regression (scratch fuzz): the distance bound is taken over
        # the cost list, which may be empty.
        assert FlowKernel(2).min_cost_flow(0, 1, [], 1) == (0, 0)
        k = diamond()
        assert k.min_cost_flow(0, 3, [1, -1] * 4, 0) == (0, 0)
        assert k.cap == k.base

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            FlowKernel(2).min_cost_flow(1, 1, [], 1)

    def test_zero_cost_residual_cycle_does_not_trap_the_dfs(self):
        # 1 <-> 2 at cost 0 is an admissible cycle in every round.
        k = FlowKernel(4)
        for tail, head in ((0, 1), (1, 2), (2, 1), (2, 3)):
            k.add_arc(tail, head, 2)
        assert k.min_cost_flow(0, 3, [0] * k.n_arcs, 2) == (2, 0)

    def test_target_caps_the_last_augmentation(self):
        k = FlowKernel(2)
        a = k.add_arc(0, 1, 5)
        assert k.min_cost_flow(0, 1, [3, -3], 2) == (2, 6)
        assert k.cap[a ^ 1] == 2

    def test_counter_is_charged_through_snapshot_and_charge(self):
        # two_routes() on the kernel: s=0, a=1, t=2.
        k = kernel_of([(0, 2, 1), (0, 1, 1), (1, 2, 1)], 3)
        counter = OpCounter()
        baseline = k.snapshot()
        assert k.min_cost_flow(0, 2, [5, -5, 1, -1, 1, -1], 2) == (2, 7)
        k.charge(counter, baseline)
        assert k.augmentations - baseline[2] == 2
        assert counter["augmentation"] == 2
        assert counter["arc_update"] == 3  # one arc, then two
        assert counter["node_visit"] > 0 and counter["arc_scan"] > 0


class TestMinCostLowering:
    """Costs reach a kernel only as a min-cost caller's parallel list."""

    def test_max_flow_path_builds_no_cost_list(self):
        net = two_routes()
        compiled = net.compile()
        compiled.solve("s", "t")
        for holder in (compiled, compiled.kernel):
            assert not [name for name in vars(holder) if "cost" in name]


# ----------------------------------------------------------------------
# Differential fuzz: kernel vs the object solvers
# ----------------------------------------------------------------------
arc_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
    min_size=1,
    max_size=18,
)


def build_pair(arcs):
    """Identical object networks from a raw arc spec (loops dropped)."""
    obj, ker = FlowNetwork(), FlowNetwork()
    for net in (obj, ker):
        net.add_node(0)
        net.add_node(5)
        for tail, head, cap in arcs:
            if tail != head:
                net.add_arc(tail, head, cap)
    return obj, ker


class TestFuzzRandomGraphs:
    @given(arcs=arc_lists)
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_dinic(self, arcs):
        obj, ker = build_pair(arcs)
        d = dinic(obj, 0, 5)
        value = ker.compile().solve(0, 5)
        assert value == d.value
        assert check_flow(ker, 0, 5) == value
        assert is_integral(ker)


costed_arc_lists = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)
    ),
    max_size=18,
)


class TestFuzzMinCostRandomGraphs:
    @given(arcs=costed_arc_lists)
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_ssp_at_every_target(self, arcs):
        """General digraphs — cycles, zero capacities, zero costs, the
        arc-less network — at every target from 0 to one more than
        fits: same value, same cost, and the kernel comes up short
        exactly where the object solver raises."""
        arcs = [arc for arc in arcs if arc[0] != arc[1]]

        def build() -> FlowNetwork:
            net = FlowNetwork()
            net.add_node(0)
            net.add_node(5)
            for tail, head, cap, cost in arcs:
                net.add_arc(tail, head, cap, cost=cost)
            return net

        cost = [c for *_, unit in arcs for c in (unit, -unit)]
        most = dinic(build(), 0, 5).value
        with pytest.raises(InfeasibleFlowError):
            min_cost_flow(build(), 0, 5, target_flow=most + 1)
        k = kernel_of(arcs)
        assert k.min_cost_flow(0, 5, cost, most + 1)[0] == most
        for target in range(most + 1):
            expected = min_cost_flow(build(), 0, 5, target_flow=target)
            k.reset()
            assert k.min_cost_flow(0, 5, cost, target) == (target, expected.cost)
            # The arrays hold a legal flow of that value and that cost.
            flow = [k.cap[a ^ 1] for a in range(0, k.n_arcs, 2)]
            assert sum(f * c for f, c in zip(flow, cost[::2])) == expected.cost
            excess = [0] * 6
            for (tail, head, cap, _), f, a in zip(arcs, flow, range(0, k.n_arcs, 2)):
                assert 0 <= f <= cap == k.cap[a] + f
                excess[tail] -= f
                excess[head] += f
            assert excess[5] == target == -excess[0] and not any(excess[1:5])


class TestFuzzMinCostTopologies:
    @given(name=st.sampled_from(sorted(TOPOLOGIES)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_out_of_kilter_on_transform2(self, name, seed):
        """Priority scheduling on every registry topology with circuits
        in flight, resources busy and components failed: the kernel and
        the paper's algorithm serve as many requests at the same cost,
        and the kernel's mapping is a set of legal circuits."""
        rng = np.random.default_rng(seed)
        ports = 8
        mrsin = MRSIN(
            build_network(name, ports),
            preferences=rng.integers(1, 11, ports).tolist(),
        )
        # Earlier traffic: some circuits still transmitting (occupied
        # links), some resources busy with their links already released.
        earlier = [Request(int(p)) for p in rng.choice(ports, size=3, replace=False)]
        mapping = OptimalScheduler(maxflow="dinic").schedule(mrsin, earlier)
        mrsin.apply_mapping(mapping)
        for a in mapping.assignments:
            if rng.random() < 0.5:
                mrsin.complete_transmission(a.resource.index)
        inject_faults(mrsin, rng, resources=0.1, links=0.08, boxes=0.05)
        for p in range(ports):
            if rng.random() < 0.7:
                mrsin.submit(Request(p, priority=int(rng.integers(1, 11))))
        requests = mrsin.schedulable_requests()
        ours, paper = OptimalScheduler(mincost="kernel"), OptimalScheduler(mincost="out_of_kilter")
        mapping = ours.schedule(mrsin, requests, discipline=Discipline.PRIORITY)
        expected = paper.schedule(mrsin, requests, discipline=Discipline.PRIORITY)
        assert len(mapping) == len(expected)
        assert ours.stats.flow_cost == paper.stats.flow_cost
        mapping.validate(mrsin)


class TestFuzzTopologies:
    @given(
        name=st.sampled_from(sorted(BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_dinic_on_transform1(self, name, seed):
        """Random request batches on every stocked topology, healthy
        and fault-degraded alike: identical max-flow values, and the
        kernel's assignment is a legal integral flow."""
        mrsin = MRSIN(BUILDERS[name]())
        rng = np.random.default_rng(seed)
        inject_faults(mrsin, rng, resources=0.15, links=0.1, boxes=0.05)
        requesting = [p for p in range(mrsin.n_processors) if rng.random() < 0.6]
        problem = transformation1(mrsin, [Request(p) for p in requesting])
        obj, ker = problem.net.copy(), problem.net.copy()
        d = dinic(obj, problem.source, problem.sink)
        value = ker.compile().solve(problem.source, problem.sink)
        assert value == d.value
        assert check_flow(ker, problem.source, problem.sink) == value
        assert is_integral(ker)


class TestFuzzEngineLifecycle:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_warm_kernel_matches_cold_object_every_tick(self, seed):
        """The warm kernel engine against the cold object-solver oracle
        through random allocate/teardown/release traffic — the
        engine-level differential the service tick path relies on."""
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        rng = np.random.default_rng(seed)
        holding: dict[int, int] = {}
        busy: set[int] = set()
        for tick in range(25):
            transmitting = set(holding.values())
            idle = [p for p in range(mrsin.n_processors) if p not in transmitting]
            n = int(rng.integers(0, len(idle) + 1))
            reqs = [Request(int(p)) for p in rng.choice(idle, size=n, replace=False)]
            expected = len(OptimalScheduler().schedule(mrsin, reqs))
            mapping = engine.schedule(reqs)
            assert len(mapping) == expected
            mrsin.apply_mapping(mapping)
            engine.commit(mapping)
            for a in mapping.assignments:
                holding[a.resource.index] = a.request.processor
            for res in [r for r in list(holding) if rng.random() < 0.3]:
                mrsin.complete_transmission(res)
                engine.note_transmission_end(res)
                del holding[res]
                busy.add(res)
            for res in [r for r in list(busy) if rng.random() < 0.4]:
                mrsin.complete_service(res)
                engine.note_release(res)
                busy.discard(res)
            for res in [r for r in list(holding) if rng.random() < 0.15]:
                mrsin.complete_service(res)
                engine.note_release(res)
                del holding[res]
        assert engine.builds == 1  # warm path never fell back
