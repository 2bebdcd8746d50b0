"""Tests for the OptimalScheduler facade (Table II dispatch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MRSIN,
    Discipline,
    OptimalScheduler,
    Request,
    greedy_schedule,
)
from repro.core.scheduler import MAXFLOW_ALGORITHMS, MINCOST_ALGORITHMS
from repro.flows.multicommodity import solve_integral_multicommodity
from tests.helpers import FRACTIONAL_ROW4, fractional_row4_instance

#: Every ``maxflow=`` / ``mincost=`` value: the default kernel route,
#: then the object solvers of the two tables.
MAXFLOW_ROUTES = ("kernel", *sorted(MAXFLOW_ALGORITHMS))
MINCOST_ROUTES = ("kernel", *sorted(MINCOST_ALGORITHMS))
from repro.networks import benes, crossbar, omega


class TestClassification:
    def test_homogeneous(self):
        m = MRSIN(crossbar(2, 2))
        m.submit(Request(0))
        assert OptimalScheduler().classify(m) is Discipline.HOMOGENEOUS

    def test_priority_via_request(self):
        m = MRSIN(crossbar(2, 2))
        m.submit(Request(0, priority=5))
        assert OptimalScheduler().classify(m) is Discipline.PRIORITY

    def test_priority_via_preference(self):
        m = MRSIN(crossbar(2, 2), preferences=[3, 1])
        m.submit(Request(0))
        assert OptimalScheduler().classify(m) is Discipline.PRIORITY

    def test_heterogeneous(self):
        m = MRSIN(crossbar(2, 2), resource_types=["a", "b"])
        m.submit(Request(0, resource_type="a"))
        assert OptimalScheduler().classify(m) is Discipline.HETEROGENEOUS

    def test_heterogeneous_priority(self):
        m = MRSIN(crossbar(2, 2), resource_types=["a", "b"])
        m.submit(Request(0, resource_type="a", priority=4))
        assert OptimalScheduler().classify(m) is Discipline.HETEROGENEOUS_PRIORITY

    def test_unknown_algorithms_rejected(self):
        with pytest.raises(ValueError):
            OptimalScheduler(maxflow="telepathy")
        with pytest.raises(ValueError):
            OptimalScheduler(mincost="magic")


class TestHomogeneousScheduling:
    @pytest.mark.parametrize("algo", MAXFLOW_ROUTES)
    def test_all_algorithms_allocate_fully_on_free_network(self, algo):
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        mapping = OptimalScheduler(maxflow=algo).schedule(m)
        assert len(mapping) == 8
        mapping.validate(m)

    def test_empty_queue_gives_empty_mapping(self):
        m = MRSIN(omega(8))
        sched = OptimalScheduler()
        assert len(sched.schedule(m)) == 0
        assert (sched.stats.n_requests, sched.stats.n_allocated) == (0, 0)

    def test_stats_populated(self):
        m = MRSIN(omega(8))
        for p in (0, 1, 2):
            m.submit(Request(p))
        sched = OptimalScheduler()
        mapping = sched.schedule(m)
        assert sched.stats.discipline is Discipline.HOMOGENEOUS
        assert sched.stats.n_requests == 3
        assert sched.stats.n_allocated == len(mapping) == 3
        assert sched.stats.flow_value == 3

    def test_optimal_never_below_greedy(self):
        rng = np.random.default_rng(5)
        sched = OptimalScheduler()
        for trial in range(20):
            m = MRSIN(omega(8))
            for _ in range(int(rng.integers(0, 5))):
                p, r = int(rng.integers(0, 8)), int(rng.integers(0, 8))
                path = m.network.find_free_path(p, r)
                if path:
                    m.network.establish_circuit(path)
                    m.resources[r].busy = True
            for p in range(8):
                if rng.random() < 0.7 and not m.network.processor_link(p).occupied:
                    m.submit(Request(p))
            optimal = len(sched.schedule(m))
            greedy = len(greedy_schedule(m, order="random", rng=int(rng.integers(1 << 31))))
            assert optimal >= greedy


class TestPriorityScheduling:
    @pytest.mark.parametrize("algo", MINCOST_ROUTES)
    def test_higher_priority_wins_contention(self, algo):
        """Two requests, one free resource: urgency decides."""
        m = MRSIN(crossbar(2, 2))
        m.resources[1].busy = True
        m.submit(Request(0, priority=2))
        m.submit(Request(1, priority=9))
        mapping = OptimalScheduler(mincost=algo).schedule(m)
        assert mapping.pairs == {(1, 0)}

    @pytest.mark.parametrize("algo", MINCOST_ROUTES)
    def test_preferred_resource_chosen(self, algo):
        m = MRSIN(crossbar(2, 2), preferences=[2, 9])
        m.submit(Request(0))
        mapping = OptimalScheduler(mincost=algo).schedule(m)
        assert mapping.pairs == {(0, 1)}

    def test_allocation_count_not_sacrificed(self):
        """Theorem 3: cost optimality implies maximum allocation; a
        high-priority request never starves the pool."""
        m = MRSIN(crossbar(2, 2))
        m.submit(Request(0, priority=10))
        m.submit(Request(1, priority=1))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 2

    def test_priority_blocked_low_priority_served(self):
        """The paper: requests need not be served in priority order —
        a blocked high-priority request must not prevent a lower one
        from using a reachable resource."""
        net = omega(8)
        m = MRSIN(net)
        # Occupy processor 0's link so its request cannot be served.
        net.establish_circuit(net.find_free_path(0, 0))
        m.resources[0].busy = True
        m.submit(Request(2, priority=1))
        reqs = [Request(2, priority=1)]
        mapping = OptimalScheduler().schedule(m, reqs, discipline=Discipline.PRIORITY)
        assert len(mapping) == 1

    def test_mincost_algorithms_agree(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            net = omega(8)
            prefs = [int(rng.integers(1, 11)) for _ in range(8)]
            m = MRSIN(net, preferences=prefs)
            reqs = []
            for p in range(8):
                if rng.random() < 0.6:
                    reqs.append(Request(p, priority=int(rng.integers(1, 11))))
            for req in reqs:
                m.submit(req)
            costs = set()
            sizes = set()
            for algo in MINCOST_ROUTES:
                m2 = MRSIN(omega(8), preferences=prefs)
                for req in reqs:
                    m2.submit(req)
                sched = OptimalScheduler(mincost=algo)
                mapping = sched.schedule(m2)
                costs.add(round(sched.stats.flow_cost, 6))
                sizes.add(len(mapping))
            assert len(costs) == 1, f"trial {trial}: costs diverge {costs}"
            assert len(sizes) == 1


class TestHeterogeneousScheduling:
    def test_types_respected(self):
        m = MRSIN(crossbar(4, 4), resource_types=["fft", "fft", "conv", "conv"])
        m.submit(Request(0, resource_type="fft"))
        m.submit(Request(1, resource_type="conv"))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 2
        for a in mapping:
            assert a.resource.resource_type == a.request.resource_type
        mapping.validate(m)
        m.apply_mapping(mapping)

    def test_contention_within_type(self):
        m = MRSIN(crossbar(3, 3), resource_types=["a", "a", "b"])
        for p in range(3):
            m.submit(Request(p, resource_type="a"))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 2  # only two "a" resources exist

    def test_heterogeneous_on_omega(self):
        types = ["a", "b"] * 4
        m = MRSIN(omega(8), resource_types=types)
        for p in range(6):
            m.submit(Request(p, resource_type="a" if p % 2 else "b"))
        mapping = OptimalScheduler().schedule(m)
        mapping.validate(m)
        assert len(mapping) >= 4  # plenty of capacity for 3+3 typed requests
        m.apply_mapping(mapping)

    def test_a_later_type_order_certifies(self, monkeypatch):
        """Serving the "b" requests first strands the "a" request on
        omega-4; the reverse order serves all three, which meets the
        bound, so the LP never runs."""
        from repro.core import scheduler as scheduler_module

        def no_lp(problem):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(scheduler_module, "solve_max_multicommodity", no_lp)
        m = MRSIN(omega(4), resource_types=["a", "b", "a", "b"])
        m.resources[2].busy = True
        requests = [Request(1, resource_type="b"), Request(2, resource_type="b"),
                    Request(3, resource_type="a")]
        mapping = OptimalScheduler().schedule(m, requests)
        assert mapping.pairs == {(1, 3), (2, 1), (3, 0)}
        mapping.validate(m)

    def test_heterogeneous_priority(self):
        m = MRSIN(crossbar(3, 3), resource_types=["a", "a", "b"], preferences=[9, 1, 1])
        m.submit(Request(0, resource_type="a", priority=5))
        m.submit(Request(2, resource_type="b", priority=2))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 2
        # The "a" request lands on the preferred resource 0.
        assert (0, 0) in mapping.pairs

    def test_heterogeneous_priority_contention(self):
        m = MRSIN(crossbar(3, 3), resource_types=["a", "a", "a"])
        m.resources[1].busy = True
        m.resources[2].busy = True
        m.submit(Request(0, resource_type="a", priority=1))
        m.submit(Request(1, resource_type="a", priority=8))
        # Force the heterogeneous machinery even for one type.
        mapping = OptimalScheduler().schedule(
            m, discipline=Discipline.HETEROGENEOUS_PRIORITY
        )
        assert mapping.pairs == {(1, 0)}


class TestFractionalMinCostOptimum:
    """Table II row 4 on a draw whose multicommodity min-cost LP stops
    at a fractional vertex: the same branch and bound as row 3 then
    minimises cost, where the scheduler used to raise."""

    @pytest.mark.parametrize(
        "topology,seed,served,cost", FRACTIONAL_ROW4,
        ids=[f"{t}-{s}" for t, s, *_ in FRACTIONAL_ROW4],
    )
    def test_branch_and_bound_reaches_the_exhaustive_optimum(
        self, monkeypatch, topology, seed, served, cost
    ):
        from repro.core import scheduler as scheduler_module
        from repro.core.exhaustive import exhaustive_schedule

        searches = []

        def spy(problem):
            result = solve_integral_multicommodity(problem)
            searches.append(result)
            return result

        monkeypatch.setattr(scheduler_module, "solve_integral_multicommodity", spy)
        m = fractional_row4_instance(topology, seed)
        scheduler = OptimalScheduler()
        mapping = scheduler.schedule(m)
        (search,) = searches
        assert search.nodes_explored > 1  # the branch really ran
        assert search.integral
        assert scheduler.stats.discipline is Discipline.HETEROGENEOUS_PRIORITY
        assert (len(mapping), scheduler.stats.flow_cost) == (served, cost)
        mapping.validate(m)
        oracle = exhaustive_schedule(fractional_row4_instance(topology, seed))
        objective = (m.max_priority, m.max_preference)
        assert len(oracle) == served
        assert mapping.allocation_cost(*objective) == oracle.allocation_cost(*objective)


@given(
    seed=st.integers(0, 100_000),
    network=st.sampled_from(["omega", "benes", "crossbar"]),
)
@settings(max_examples=25, deadline=None)
def test_property_optimal_dominates_greedy_everywhere(seed, network):
    """Property: on any topology/state, optimal >= greedy allocation."""
    rng = np.random.default_rng(seed)
    net = {"omega": lambda: omega(8), "benes": lambda: benes(8), "crossbar": lambda: crossbar(8, 8)}[network]()
    m = MRSIN(net)
    for _ in range(int(rng.integers(0, 6))):
        p, r = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        path = net.find_free_path(p, r)
        if path:
            net.establish_circuit(path)
            m.resources[r].busy = True
    for p in range(8):
        if rng.random() < 0.7 and not net.processor_link(p).occupied:
            m.submit(Request(p))
    optimal = len(OptimalScheduler().schedule(m))
    greedy = len(greedy_schedule(m, order="random", rng=seed))
    assert optimal >= greedy


class TestRobustness:
    def test_schedule_is_stateless_wrt_network(self):
        """Scheduling twice from the same state yields the same value
        and leaves no residue on the network."""
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        sched = OptimalScheduler()
        a = sched.schedule(m)
        b = sched.schedule(m)
        assert len(a) == len(b) == 8
        assert m.network.occupancy() == 0.0

    def test_explicit_requests_override_queue(self):
        m = MRSIN(omega(8))
        m.submit(Request(0))
        explicit = [Request(5), Request(6)]
        mapping = OptimalScheduler().schedule(m, explicit)
        assert {a.request.processor for a in mapping} == {5, 6}
        # The queue is untouched by scheduling (only apply consumes it).
        assert len(m.pending) == 1


def uncertified_typed_system(priority: int) -> tuple[MRSIN, list[Request]]:
    """Three one-request types on omega-4 where only two can be served.

    Every type reaches a free resource alone and the type-blind flow is
    3, but the unique paths collide, so no per-type kernel solve reaches
    the bound and row 3 falls back to the LP (optimum 2).
    """
    m = MRSIN(omega(4), resource_types=["a", "b", "c", "a"])
    m.resources[0].busy = True
    return m, [
        Request(p, resource_type=t, priority=priority) for p, t in ((1, "a"), (2, "b"), (3, "c"))
    ]


def _dropping_a_sink_unit(solve):
    """``solve``, then one unit on the first flowing arc into ``t``
    cancelled: the flow's value no longer reaches the sink."""

    def broken(kernel, source, sink, *args, **kwargs):
        result = solve(kernel, source, sink, *args, **kwargs)
        a = next(
            a for a in range(0, kernel.n_arcs, 2)
            if kernel.to[a] == sink and kernel.cap[a ^ 1]
        )
        kernel.cap[a] += 1
        kernel.cap[a ^ 1] -= 1
        return result

    return broken


def _over_reporting(solve):
    """``solve``, claiming one unit more than it pushed."""

    def broken(kernel, source, sink, *args, **kwargs):
        return solve(kernel, source, sink, *args, **kwargs) + 1

    return broken


def _cancelling_a_mid_path_unit(solve):
    """``solve``, then the unit on the middle arc of the first recorded
    augmenting path cancelled: the path no longer carries it."""

    def broken(kernel, source, sink, *args, **kwargs):
        result = solve(kernel, source, sink, *args, **kwargs)
        path = kwargs["paths_out"][0]
        a = path[len(path) // 2]
        kernel.cap[a] += 1
        kernel.cap[a ^ 1] -= 1
        return result

    return broken


def _pushing_an_unpathed_source_unit(solve):
    """``solve``, then one unit pushed, and recorded as touched, on a
    source arc no augmenting path took."""

    def broken(kernel, source, sink, *args, **kwargs):
        result = solve(kernel, source, sink, *args, **kwargs)
        touched = kwargs["touched"]
        a = next(
            a for a in range(0, kernel.n_arcs, 2)
            if kernel.to[a ^ 1] == source and kernel.cap[a] and a not in touched
        )
        kernel.cap[a] -= 1
        kernel.cap[a ^ 1] += 1
        touched.append(a)
        return result

    return broken


def _stopping_a_path_short_of_the_sink(solve):
    """``solve``, then the first recorded path's arc into the sink
    cancelled and forgotten: the path ends at its resource."""

    def broken(kernel, source, sink, *args, **kwargs):
        result = solve(kernel, source, sink, *args, **kwargs)
        a = kwargs["paths_out"][0].pop()
        kwargs["touched"].remove(a)
        kernel.cap[a] += 1
        kernel.cap[a ^ 1] -= 1
        return result

    return broken


class TestValidationSurvivesOptimization:
    """Regression: these guards were bare ``assert`` statements, which
    ``python -O`` strips — a buggy solver could then hand physically
    unrealisable circuits to ``apply_mapping``.  They are real raises
    now, and this class runs in the CI ``-O`` tier to prove it."""

    def test_nonintegral_max_flow_raises(self, monkeypatch):
        import types

        from repro.core import scheduler as scheduler_module
        from repro.flows.validate import FlowViolation

        def half_unit_solver(net, source, sink, counter=None):
            net.arcs[0].flow = 0.5
            return types.SimpleNamespace(value=0.5)

        monkeypatch.setitem(
            scheduler_module.MAXFLOW_ALGORITHMS, "dinic", half_unit_solver
        )
        m = MRSIN(omega(4))
        m.submit(Request(0))
        with pytest.raises(FlowViolation, match="integral"):
            OptimalScheduler(maxflow="dinic").schedule(m)

    @pytest.mark.parametrize(
        "corrupt, match",
        [(_dropping_a_sink_unit, "conservation"), (_over_reporting, "decomposed")],
        ids=["conservation", "value"],
    )
    def test_kernel_max_flow_breaking_conservation_raises(self, monkeypatch, corrupt, match):
        # The twin on the default route: the kernel's flow is all-int,
        # so what a broken solve can do is break conservation or
        # misreport the value it reached.
        from repro.flows.kernel import FlowKernel
        from repro.flows.validate import FlowViolation

        monkeypatch.setattr(FlowKernel, "max_flow", corrupt(FlowKernel.max_flow))
        m = MRSIN(omega(4))
        m.submit(Request(0))
        with pytest.raises(FlowViolation, match=match):
            OptimalScheduler().schedule(m)

    @pytest.mark.parametrize("route", ["cold", "warm"])
    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (_cancelling_a_mid_path_unit, "exactly one unit"),
            (_pushing_an_unpathed_source_unit, "touched arcs"),
            (_stopping_a_path_short_of_the_sink, "source to sink"),
        ],
        ids=["mid_path_unit", "unpathed_source_unit", "short_path"],
    )
    def test_unit_path_certificate_raises(self, monkeypatch, corrupt, match, route):
        # FlowKernel.unit_paths returns augmenting paths without walking
        # the flow, so its certificate is the only guard left on cold
        # row 1 and the warm engine: one mutant per leg, each caught by
        # that leg alone.  Two requests, one free resource, so a source
        # arc stays unused.
        from repro.core import KernelFlowEngine
        from repro.flows.kernel import FlowKernel
        from repro.flows.validate import FlowViolation

        monkeypatch.setattr(FlowKernel, "max_flow", corrupt(FlowKernel.max_flow))
        m = MRSIN(omega(4))
        for r in (1, 2, 3):
            m.resources[r].busy = True
        requests = [Request(0), Request(1)]
        with pytest.raises(FlowViolation, match=match):
            if route == "cold":
                OptimalScheduler().schedule(m, requests)
            else:
                KernelFlowEngine(m).schedule(requests)

    @pytest.mark.parametrize("algo", MINCOST_ROUTES)
    def test_nonintegral_min_cost_flow_raises(self, monkeypatch, algo):
        # Behind every route, not just the default: the object entries'
        # guard runs on the object network after the solve; "kernel"
        # solves lowered int arrays, whose guard is the decomposition.
        from repro.core import scheduler as scheduler_module
        from repro.flows.kernel import FlowKernel
        from repro.flows.validate import FlowViolation

        if algo != "kernel":
            real = scheduler_module.MINCOST_ALGORITHMS[algo]

            def corrupting_solver(net, source, sink, **kwargs):
                result = real(net, source, sink, **kwargs)
                net.arcs[0].flow += 0.5
                return result

            monkeypatch.setitem(scheduler_module.MINCOST_ALGORITHMS, algo, corrupting_solver)
        monkeypatch.setattr(
            FlowKernel, "min_cost_flow", _dropping_a_sink_unit(FlowKernel.min_cost_flow)
        )
        m = MRSIN(omega(4))
        m.submit(Request(0, priority=3))
        with pytest.raises(FlowViolation, match="conservation" if algo == "kernel" else "integral"):
            OptimalScheduler(mincost=algo).schedule(m)

    def test_missing_required_flow_raises(self, monkeypatch):
        from repro.core import scheduler as scheduler_module

        real = scheduler_module.transformation2

        def drop_f0(mrsin, reqs):
            problem = real(mrsin, reqs)
            problem.required_flow = None
            return problem

        monkeypatch.setattr(scheduler_module, "transformation2", drop_f0)
        m = MRSIN(omega(4))
        m.submit(Request(0, priority=3))
        with pytest.raises(ValueError, match="required flow"):
            OptimalScheduler(mincost="out_of_kilter").schedule(m)

    @pytest.mark.parametrize("priority", [1, 5], ids=["heterogeneous", "heterogeneous_priority"])
    def test_truncated_lp_raises(self, monkeypatch, priority):
        # Regression: the LP status was never read above ``flows``, so a
        # simplex stopped at its iteration limit came back as an
        # "optimal" allocation whenever its vertex happened to be integral.
        from repro.flows import multicommodity
        from repro.flows.simplex import simplex_solve
        from repro.flows.validate import FlowViolation

        monkeypatch.setattr(
            multicommodity, "simplex_solve", lambda lp: simplex_solve(lp, max_iter=5)
        )
        # Row 3 reaches the LP only when the kernel's certificate fails.
        m, requests = uncertified_typed_system(priority)
        with pytest.raises(FlowViolation, match="iteration_limit"):
            OptimalScheduler().schedule(m, requests)

    def test_uncertified_row3_returns_the_lp_route_mapping(self, monkeypatch):
        from repro.core import scheduler as scheduler_module
        from repro.core.transform import (
            extract_multicommodity_mapping,
            heterogeneous_max_problem,
        )
        from repro.flows.multicommodity import solve_max_multicommodity

        solved = []
        monkeypatch.setattr(
            scheduler_module, "solve_max_multicommodity",
            lambda problem: solved.append(problem) or solve_max_multicommodity(problem),
        )
        m, requests = uncertified_typed_system(1)
        sched = OptimalScheduler()
        mapping = sched.schedule(m, requests)
        assert len(solved) == 1, "the certificate must refuse this instance"
        problem, meta = heterogeneous_max_problem(m, requests)
        result = solve_max_multicommodity(problem)
        assert mapping.assignments == extract_multicommodity_mapping(
            result, problem, meta, m
        ).assignments
        assert len(mapping) == sched.stats.flow_value == 2
        mapping.validate(m)
