"""Tests for multicommodity max-flow / min-cost flow (Section III-D)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core import MRSIN, Request
from repro.core.transform import heterogeneous_max_problem, heterogeneous_min_cost_problem
from repro.flows import multicommodity
from repro.flows.graph import FlowNetwork
from repro.flows.lp import LinearProgram, LPStatus
from repro.flows.maxflow import edmonds_karp
from repro.flows.multicommodity import (
    Commodity,
    MultiCommodityProblem,
    solve_integral_multicommodity,
    solve_max_multicommodity,
    solve_min_cost_multicommodity,
)
from repro.flows.simplex import simplex_solve, simplex_standard_form
from repro.networks import omega
from repro.util.rng import make_rng


def shared_link_instance() -> MultiCommodityProblem:
    """Two commodities forced through one shared middle arc."""
    net = FlowNetwork()
    net.add_arc("s1", "m", 2)
    net.add_arc("s2", "m", 2)
    net.add_arc("m", "n", 3)  # the bundle bottleneck
    net.add_arc("n", "t1", 2)
    net.add_arc("n", "t2", 2)
    coms = [Commodity("A", "s1", "t1"), Commodity("B", "s2", "t2")]
    return MultiCommodityProblem(net, coms)


def disjoint_instance() -> MultiCommodityProblem:
    """Two commodities on arc-disjoint routes (trivially integral)."""
    net = FlowNetwork()
    net.add_arc("s1", "t1", 2)
    net.add_arc("s2", "t2", 3)
    coms = [Commodity("A", "s1", "t1"), Commodity("B", "s2", "t2")]
    return MultiCommodityProblem(net, coms)


class TestMaxMulticommodity:
    def test_disjoint_routes(self):
        res = solve_max_multicommodity(disjoint_instance())
        assert res.status is LPStatus.OPTIMAL
        assert res.total_flow == pytest.approx(5.0)
        assert res.flow_values == pytest.approx([2.0, 3.0])
        assert res.integral

    def test_bundle_constraint_binds(self):
        res = solve_max_multicommodity(shared_link_instance())
        assert res.status is LPStatus.OPTIMAL
        assert res.total_flow == pytest.approx(3.0)  # bottleneck arc m->n

    def test_single_commodity_reduces_to_max_flow(self):
        rng = np.random.default_rng(42)
        net = FlowNetwork()
        nodes = list(range(7))
        for _ in range(18):
            u, v = rng.choice(nodes, size=2, replace=False)
            net.add_arc(int(u), int(v), int(rng.integers(1, 4)))
        problem = MultiCommodityProblem(net, [Commodity("only", 0, 6)])
        res = solve_max_multicommodity(problem)
        expected = edmonds_karp(net.copy(), 0, 6).value
        assert res.total_flow == pytest.approx(expected)

    def test_capacity_respected_per_arc(self):
        problem = shared_link_instance()
        res = solve_max_multicommodity(problem)
        for arc in problem.net.arcs:
            total = sum(
                res.commodity_flow(k, arc) for k in range(len(problem.commodities))
            )
            assert total <= arc.capacity + 1e-6


class TestMinCostMulticommodity:
    def test_demands_met_at_min_cost(self):
        net = FlowNetwork()
        net.add_arc("s1", "t1", 2, cost=1)
        net.add_arc("s1", "x", 2, cost=0)
        net.add_arc("x", "t1", 2, cost=0)
        net.add_arc("s2", "t2", 1, cost=2)
        coms = [Commodity("A", "s1", "t1", demand=1), Commodity("B", "s2", "t2", demand=1)]
        res = solve_min_cost_multicommodity(MultiCommodityProblem(net, coms))
        assert res.status is LPStatus.OPTIMAL
        assert res.cost == pytest.approx(2.0)  # A uses the free 2-hop route

    def test_missing_demand_rejected(self):
        problem = shared_link_instance()
        with pytest.raises(ValueError, match="demand"):
            solve_min_cost_multicommodity(problem)

    def test_infeasible_demand(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        coms = [Commodity("A", "s", "t", demand=5)]
        res = solve_min_cost_multicommodity(MultiCommodityProblem(net, coms))
        assert res.status is LPStatus.INFEASIBLE


class TestIntegral:
    def test_integral_on_integral_instance(self):
        res = solve_integral_multicommodity(disjoint_instance())
        assert res.integral
        assert res.total_flow == pytest.approx(5.0)

    def test_fractional_lp_gets_rounded_down(self):
        """The classic 3-commodity triangle: LP optimum 1.5 each direction,
        integral optimum strictly smaller."""
        net = FlowNetwork()
        # Triangle of unit arcs in both directions.
        for u, v in (("a", "b"), ("b", "c"), ("c", "a")):
            net.add_arc(u, v, 1)
            net.add_arc(v, u, 1)
        coms = [
            Commodity(0, "a", "b"),
            Commodity(1, "b", "c"),
            Commodity(2, "c", "a"),
        ]
        problem = MultiCommodityProblem(net, coms)
        lp_res = solve_max_multicommodity(problem)
        int_res = solve_integral_multicommodity(problem)
        assert int_res.integral
        assert int_res.total_flow <= lp_res.total_flow + 1e-6
        assert int_res.total_flow == pytest.approx(round(int_res.total_flow))
        assert int_res.total_flow >= 3.0 - 1e-6  # direct unit arcs exist

    def test_branch_and_bound_respects_capacities(self):
        problem = shared_link_instance()
        res = solve_integral_multicommodity(problem)
        assert res.integral
        assert res.total_flow == pytest.approx(3.0)
        for arc in problem.net.arcs:
            total = sum(
                res.commodity_flow(k, arc) for k in range(len(problem.commodities))
            )
            assert total <= arc.capacity + 1e-6

    def test_truncated_node_is_not_pruned_as_infeasible(self, monkeypatch):
        # Regression: an ITERATION_LIMIT node was skipped like an
        # infeasible one, so a truncated search could return a smaller
        # "optimal" flow (or INFEASIBLE) without a word.
        monkeypatch.setattr(
            multicommodity, "simplex_solve", lambda lp: simplex_solve(lp, max_iter=3)
        )
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_integral_multicommodity(shared_link_instance())


# ----------------------------------------------------------------------
# The LPs the scheduler's two heterogeneous disciplines really solve.

TYPES = ("fft", "conv")


def multi_lp(ports: int) -> LinearProgram:
    """MULTI's instance (``benchmarks/bench_multicommodity.py``): every
    processor of an omega asks, types alternating."""
    types = list(TYPES) * (ports // 2)
    mrsin = MRSIN(omega(ports), resource_types=types)
    for p in range(ports):
        mrsin.submit(Request(p, resource_type=types[p % 2]))
    problem, _ = heterogeneous_max_problem(mrsin)
    return multicommodity._build_lp(problem, maximize_total=True)


def seeded_lp(seed: int, *, priorities: bool, ports: int = 8, asking: int = 6) -> LinearProgram:
    """A seeded two-type omega instance, drawn the way the
    ``solve-disciplines`` benchmark draws its LP rows: max flow without
    priorities, min-cost with."""
    rng = make_rng(seed)
    mrsin = MRSIN(
        omega(ports),
        resource_types=[TYPES[i % 2] for i in range(ports)],
        preferences=rng.integers(1, 6, ports).tolist() if priorities else None,
    )
    processors = rng.choice(ports, size=asking, replace=False)
    types = [TYPES[int(t)] for t in rng.integers(0, 2, asking)]
    levels = rng.integers(1, 10, asking).tolist() if priorities else [1] * asking
    requests = [
        Request(int(p), resource_type=t, priority=y)
        for p, t, y in zip(sorted(processors.tolist()), types, levels)
    ]
    if priorities:
        problem, _ = heterogeneous_min_cost_problem(mrsin, requests)
    else:
        problem, _ = heterogeneous_max_problem(mrsin, requests)
    return multicommodity._build_lp(problem, maximize_total=not priorities)


def solved(lp: LinearProgram) -> tuple[int, int, int, float]:
    res = simplex_solve(lp)
    assert res.status is LPStatus.OPTIMAL
    return lp.n_variables, lp.n_constraints, res.iterations, res.objective


class TestPivotSequencePinned:
    """``(variables, constraints, pivots, objective)`` recorded at commit
    a2d297b, *before* the solver carried a basis inverse.  Bland's rule
    and the ratio test's tie rule fix the pivot sequence, so these are
    properties of the paper's method: a changed count means an
    implementation change altered which pivots are taken (and with them
    MULTI's published numbers and every extracted mapping) — fix the
    solver, do not re-record."""

    @pytest.mark.parametrize("ports, expected", [
        (4, (42, 52, 73, 4.0)),
        (8, (98, 112, 170, 8.0)),
        (16, (226, 248, 397, 16.0)),
        (32, (514, 552, 932, 32.0)),
    ])
    def test_multi_instances(self, ports, expected):
        assert solved(multi_lp(ports)) == expected

    @pytest.mark.parametrize("seed, expected", enumerate([
        (43, 72, 137, 4.0), (94, 110, 249, 6.0), (94, 110, 190, 6.0),
        (94, 110, 187, 6.0), (94, 110, 178, 6.0), (94, 110, 200, 5.0),
        (94, 110, 191, 6.0), (94, 110, 239, 6.0), (94, 110, 223, 5.0),
        (94, 110, 240, 5.0),
    ]))
    def test_heterogeneous_rows(self, seed, expected):
        assert solved(seeded_lp(seed, priorities=False)) == expected

    @pytest.mark.parametrize("seed, expected", enumerate([
        (108, 122, 365, 67.0), (108, 122, 316, 92.0), (108, 122, 417, 67.0),
        (108, 122, 355, 68.0), (108, 122, 381, 51.0), (108, 122, 366, 61.0),
        (108, 122, 311, 62.0), (108, 122, 334, 61.0), (108, 122, 297, 67.0),
        (108, 122, 393, 68.0),
    ]))
    def test_heterogeneous_priority_rows(self, seed, expected):
        assert solved(seeded_lp(seed, priorities=True)) == expected


class TestFlowShapedAgainstHighs:
    """Hundreds to ~1 500 pivots, i.e. many refactor intervals: a wrong
    rank-1 update or an interval too long to hold the rounding error
    shows here as a wrong optimum or an infeasible vertex, not later as
    a wrong mapping."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: multi_lp(8), id="max-omega8"),
        pytest.param(lambda: multi_lp(16), id="max-omega16"),
        pytest.param(lambda: seeded_lp(5, priorities=True), id="mincost-omega8"),
        pytest.param(
            lambda: seeded_lp(5, priorities=True, ports=16, asking=12), id="mincost-omega16"
        ),
    ])
    def test_optimum_and_vertex(self, build):
        lp = build()
        A, b, c, low, high = lp.to_standard_form()
        status, x, objective, pivots = simplex_standard_form(A, b, c, low, high)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(low, high)), method="highs")
        assert status is LPStatus.OPTIMAL and ref.status == 0
        assert pivots >= 170
        assert objective == pytest.approx(ref.fun, abs=1e-7)
        assert np.abs(A @ x - b).max() <= 1e-9
        assert (x >= low - 1e-9).all() and (x <= high + 1e-9).all()
