"""COMPLEX (min-cost) — out-of-kilter on 0-1 networks.

Paper claim (Section III-C): *"For a flow network of 0-1 capacity,
the time complexity [of the out-of-kilter method] is bounded by
O(|V| |E|^2)"*, and the assignment it returns is integral, so
*"the optimal request-resource mapping of homogeneous MRSIN with
request priorities and resource preferences can be obtained
efficiently."*

Regenerates: kilter-step counts vs the ``|V||E|^2`` envelope on
Transformation 2 networks of growing size, and the head-to-head of the
three min-cost routes (identical optima, different costs of running).

Timed kernels: one priority scheduling cycle per solver.
"""

import pytest

from benchmarks.conftest import referee_min_cost
from repro.core import MRSIN, OptimalScheduler, Request
from repro.core.scheduler import MINCOST_ALGORITHMS
from repro.core.transform import transformation2
from repro.flows.out_of_kilter import out_of_kilter
from repro.networks import omega
from repro.util.counters import OpCounter
from repro.util.tables import Table

SIZES = (8, 16, 32)


def priority_instance(n: int) -> MRSIN:
    m = MRSIN(omega(n), preferences=[(i * 7) % 10 + 1 for i in range(n)])
    for p in range(n):
        m.submit(Request(p, priority=(p * 3) % 10 + 1))
    return m


@pytest.mark.benchmark(group="scaling-mincost")
def test_out_of_kilter_scaling_report(benchmark, capsys):
    table = Table(["N", "|V|", "|E|", "kilter steps", "bound |V||E|^2", "steps/bound"],
                  title="COMPLEX: out-of-kilter on Transformation 2 (0-1) networks")
    ratios = []
    for n in SIZES:
        m = priority_instance(n)
        problem = transformation2(m)
        counter = OpCounter()
        res = out_of_kilter(problem.net, "s", "t",
                            target_flow=problem.required_flow, counter=counter)
        assert res.value == problem.required_flow
        nv, ne = problem.net.n_nodes, problem.net.n_arcs
        steps = counter["kilter_step"]
        bound = nv * ne * ne
        ratios.append(steps / bound)
        table.add_row(n, nv, ne, steps, bound, f"{steps / bound:.2e}")
    with capsys.disabled():
        print("\n" + table.render())
    for r in ratios:
        assert r < 1.0
    assert ratios[-1] <= ratios[0], "steps must grow no faster than the bound"

    def kernel():
        m = priority_instance(16)
        problem = transformation2(m)
        return out_of_kilter(problem.net, "s", "t",
                             target_flow=problem.required_flow).value

    benchmark(kernel)


@pytest.mark.benchmark(group="scaling-mincost")
@pytest.mark.parametrize("algo", ["kernel", *sorted(MINCOST_ALGORITHMS)])
def test_mincost_solver_comparison(benchmark, capsys, algo):
    """Every route reaches the optimum NetworkX referees; their run
    times differ (the kernel is the default, SSP the object-graph
    practical choice, out-of-kilter the paper's)."""
    sched = OptimalScheduler(mincost=algo)
    mapping = sched.schedule(priority_instance(16))
    cost = sched.stats.flow_cost
    assert cost == pytest.approx(referee_min_cost(priority_instance(16)))
    with capsys.disabled():
        print(f"\n{algo}: allocations={len(mapping)}, flow cost={cost:g}")

    def kernel():
        return len(OptimalScheduler(mincost=algo).schedule(priority_instance(16)))

    assert benchmark(kernel) == 16
