"""The flat-array CSR kernel: edge cases, solver hooks, and the
differential contract against the object Dinic oracle.

The kernel is the hot path; the object solver is the teaching
implementation and the source of truth.  Every test here either pins a
kernel edge case (zero-capacity arcs, unreachable sinks, rejected
lower bounds) or fuzzes the two implementations against each other —
on random graphs, on Transformation-1 networks over every stocked
topology (healthy and fault-degraded), and through the warm engine's
full allocate/teardown/release lifecycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, KernelFlowEngine, OptimalScheduler, Request
from repro.core.transform import transformation1
from repro.flows import FlowKernel, FlowNetwork, dinic, kernel_solve
from repro.flows.validate import check_flow, is_integral
from repro.networks import benes, clos, crossbar, omega

BUILDERS = {
    "omega8": lambda: omega(8),
    "benes8": lambda: benes(8),
    "clos-2x2x4": lambda: clos(2, 2, 4),
    "crossbar4": lambda: crossbar(4),
}


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
        assert k.flow_of(a) == 0

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
            assert k.flow_of(a) == k.cap[a ^ 1]

    def test_warm_augment_on_top(self):
        # Solve, widen a bottleneck, solve again: only the delta flows.
        k = diamond()
        assert k.max_flow(0, 3) == 2
        for a in (0, 4):  # widen s->1 and 1->t: cap and base together
            k.cap[a] += 1
            k.base[a] += 1
        assert k.max_flow(0, 3) == 1
        assert k.flow_of(4) == 2

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
        carrying = {a for a in range(0, k.n_arcs, 2) if k.flow_of(a) > 0}
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
        r = kernel_solve(ker, problem.source, problem.sink)
        assert r.value == d.value == 8
        assert check_flow(ker, problem.source, problem.sink) == 8
        assert is_integral(ker)

    def test_second_solve_adds_nothing(self):
        mrsin = MRSIN(omega(8))
        problem = transformation1(mrsin, [Request(p) for p in range(8)])
        compiled = problem.net.compile()
        first = compiled.solve(problem.source, problem.sink)
        again = compiled.solve(problem.source, problem.sink)
        assert first.value == again.value  # augment-on-top found zero
        assert again.phases <= 1

    def test_compile_rejects_lower_bounds(self):
        # The kernel solves plain max flow; a lower-bounded arc must be
        # refused by name, never solved as if its bound were 0.
        net = FlowNetwork()
        net.add_arc("s", "a", 2)
        net.add_arc("a", "t", 2, lower=1)
        with pytest.raises(ValueError, match=r"Arc#1\('a'->'t'.*lower bound 1"):
            net.compile()
        with pytest.raises(ValueError, match="lower bound"):
            kernel_solve(net, "s", "t")

    def test_seed_from_illegal_flow_raises(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        compiled = net.compile()
        net.arcs[0].flow = 5
        with pytest.raises(ValueError, match="illegal flow"):
            compiled.seed_from_flow()

    def test_missing_terminal_is_zero(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        assert net.compile().solve("s", "ghost").value == 0


# ----------------------------------------------------------------------
# Differential fuzz: kernel vs object Dinic
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
        r = kernel_solve(ker, 0, 5)
        assert r.value == d.value
        assert check_flow(ker, 0, 5) == r.value
        assert is_integral(ker)


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
        for i in range(mrsin.n_resources):
            if rng.random() < 0.15:
                mrsin.fail_resource(i)
        for i in range(len(mrsin.network.links)):
            if rng.random() < 0.1:
                mrsin.fail_link(i)
        for stage, boxes in enumerate(mrsin.network.stages):
            for box in range(len(boxes)):
                if rng.random() < 0.05:
                    mrsin.fail_switchbox(stage, box)
        requesting = [p for p in range(mrsin.n_processors) if rng.random() < 0.6]
        problem = transformation1(mrsin, [Request(p) for p in requesting])
        obj, ker = problem.net.copy(), problem.net.copy()
        d = dinic(obj, problem.source, problem.sink)
        r = kernel_solve(ker, problem.source, problem.sink)
        assert r.value == d.value
        assert check_flow(ker, problem.source, problem.sink) == r.value
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
