"""MULTI — multicommodity scheduling and Simplex behaviour.

Paper claims (Section III-D):
  * heterogeneous MRSINs reduce to multicommodity flow; on restricted
    (Evans–Jarvis) topologies *"the optimal flow values are always
    integral"*, solvable by the Simplex method;
  * Simplex *"has been shown empirically to be a linear time
    algorithm"* (McCall) — pivot counts grow roughly linearly in
    problem size, not combinatorially;
  * the general integral problem is NP-hard (handled by B&B).

Regenerates: integrality rate and pivot counts vs network size, plus a
non-MRSIN triangle instance where the LP relaxation is genuinely
fractional and branch-and-bound is required.

Timed kernel: one heterogeneous LP solve, by name (the scheduler's
row 3 reaches the LP only when per-type kernel max flows cannot certify
their total).
"""

import pytest

from repro.core import MRSIN, Request
from repro.core.transform import heterogeneous_max_problem
from repro.flows.graph import FlowNetwork
from repro.flows.multicommodity import (
    Commodity,
    MultiCommodityProblem,
    solve_integral_multicommodity,
    solve_max_multicommodity,
)
from repro.networks import omega
from repro.util.tables import Table

SIZES = (4, 8, 16, 32)


def hetero_instance(n: int) -> MRSIN:
    types = ["fft", "conv"] * (n // 2)
    m = MRSIN(omega(n), resource_types=types)
    for p in range(n):
        m.submit(Request(p, resource_type=types[p % 2]))
    return m


@pytest.mark.benchmark(group="multi")
def test_multicommodity_report(benchmark, capsys):
    table = Table(
        ["N", "LP variables", "constraints", "pivots", "pivots/variable", "integral"],
        title="MULTI: multicommodity LP on heterogeneous Omega MRSINs",
    )
    densities = []
    for n in SIZES:
        problem, _ = heterogeneous_max_problem(hetero_instance(n))
        n_vars = 2 * problem.net.n_arcs + 2
        n_cons = 2 * problem.net.n_nodes + problem.net.n_arcs
        res = solve_max_multicommodity(problem)
        assert res.integral, "restricted topology must give integral LP optimum"
        densities.append(res.iterations / n_vars)
        table.add_row(n, n_vars, n_cons, res.iterations,
                      f"{res.iterations / n_vars:.2f}", res.integral)
    with capsys.disabled():
        print("\n" + table.render())
        print("(McCall's empirical-linearity claim: pivots/variable stays O(1))")

    # Pivot count per variable must stay bounded (no combinatorial blowup).
    assert max(densities) < 4 * max(densities[0], 0.5), densities

    def kernel():
        problem, _ = heterogeneous_max_problem(hetero_instance(8))
        return solve_max_multicommodity(problem).total_flow

    assert benchmark(kernel) == 8


@pytest.mark.benchmark(group="multi")
def test_fractional_general_topology(benchmark, capsys):
    """The NP-hard side: on the 3-commodity unit triangle the LP
    optimum is fractional (4.5) and exceeds the integral optimum (4)
    — branch and bound closes the gap."""
    def triangle() -> MultiCommodityProblem:
        net = FlowNetwork()
        for u, v in (("a", "b"), ("b", "c"), ("c", "a")):
            net.add_arc(u, v, 1)
            net.add_arc(v, u, 1)
        coms = [Commodity(0, "a", "b"), Commodity(1, "b", "c"), Commodity(2, "c", "a")]
        return MultiCommodityProblem(net, coms)

    lp = solve_max_multicommodity(triangle())
    integral = solve_integral_multicommodity(triangle())
    assert integral.integral
    assert integral.total_flow < lp.total_flow + 1e-9
    assert integral.total_flow == pytest.approx(round(integral.total_flow))
    with capsys.disabled():
        print(f"\nMULTI: triangle LP optimum {lp.total_flow:.2f} "
              f"(fractional: {not lp.integral}), "
              f"integral optimum {integral.total_flow:.0f} "
              f"after {integral.nodes_explored} B&B nodes")

    def kernel():
        return solve_integral_multicommodity(triangle()).total_flow

    benchmark(kernel)
