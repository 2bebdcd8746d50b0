"""TAB2 — the paper's Table II: one row per scheduling discipline.

==============================  ===========================  ==================
Discipline                      Equivalent flow problem       Algorithm
==============================  ===========================  ==================
Homogeneous, no priority        Max flow                      Ford-Fulkerson/Dinic
Homogeneous, priority & pref.   Min-cost flow                 Out-of-kilter
Heterogeneous, restricted       Real multicommodity (LP)      Simplex
Heterogeneous, general          Integer multicommodity        NP-hard (B&B)
==============================  ===========================  ==================

Regenerates the table by *running* each row on a matched 8x8 Omega
workload with the algorithm the row names, and reporting the
allocations and the solve characteristics.  Timed kernels: one
scheduling cycle per discipline (four benchmark entries in one group).
"""

import pytest

from repro.core import MRSIN, Discipline, Mapping, OptimalScheduler, Request
from repro.core.transform import extract_multicommodity_mapping, heterogeneous_max_problem
from repro.flows.multicommodity import solve_max_multicommodity
from repro.networks import omega
from repro.util.tables import Table


def paper_schedule(m: MRSIN, discipline: Discipline) -> tuple[Mapping, float]:
    """One cycle on the algorithm the table names: ``(mapping, cost)``.

    Not ``OptimalScheduler``'s defaults: rows 1-2 default to the
    flat-array kernel, and row 3 to per-type kernel max flows that reach
    the LP only when they cannot certify their total — so row 3 runs the
    LP by name.
    """
    if discipline is Discipline.HETEROGENEOUS:
        problem, meta = heterogeneous_max_problem(m)
        result = solve_max_multicommodity(problem)
        return extract_multicommodity_mapping(result, problem, meta, m), result.cost
    sched = OptimalScheduler(maxflow="dinic", mincost="out_of_kilter")
    mapping = sched.schedule(m)
    return mapping, sched.stats.flow_cost


def instance(discipline: Discipline) -> MRSIN:
    """A matched workload for each Table II row: 6 requests, 8x8 Omega."""
    if discipline in (Discipline.HETEROGENEOUS, Discipline.HETEROGENEOUS_PRIORITY):
        types = ["fft", "conv"] * 4
        m = MRSIN(omega(8), resource_types=types,
                  preferences=[1] * 8 if discipline is Discipline.HETEROGENEOUS else [3, 1] * 4)
        for p in range(6):
            m.submit(Request(
                p,
                resource_type=types[p % 2],
                priority=1 if discipline is Discipline.HETEROGENEOUS else 1 + p,
            ))
    else:
        m = MRSIN(omega(8),
                  preferences=[1] * 8 if discipline is Discipline.HOMOGENEOUS else [2, 5] * 4)
        for p in range(6):
            m.submit(Request(
                p, priority=1 if discipline is Discipline.HOMOGENEOUS else 1 + p
            ))
    return m


ROWS = [
    (Discipline.HOMOGENEOUS, "max flow", "Dinic / Ford-Fulkerson"),
    (Discipline.PRIORITY, "min-cost flow", "out-of-kilter"),
    (Discipline.HETEROGENEOUS, "real multicommodity LP", "Simplex"),
    (Discipline.HETEROGENEOUS_PRIORITY, "integer multicommodity", "Simplex (+B&B)"),
]


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("discipline,flow_problem,algorithm", ROWS,
                         ids=[r[0].value for r in ROWS])
def test_table2_discipline(benchmark, capsys, discipline, flow_problem, algorithm):
    m = instance(discipline)
    detected = OptimalScheduler().classify(m)
    assert detected is discipline, f"auto-dispatch failed: {detected} != {discipline}"
    mapping, cost = paper_schedule(m, discipline)
    assert len(mapping) == 6, "all six requests fit on the free Omega"
    mapping.validate(m)

    table = Table(["discipline", "flow problem", "algorithm", "allocated", "cost"],
                  title=f"TAB2 row: {discipline.value}")
    table.add_row(discipline.value, flow_problem, algorithm,
                  f"{len(mapping)}/6", cost)
    with capsys.disabled():
        print("\n" + table.render())

    def kernel():
        return len(paper_schedule(instance(discipline), discipline)[0])

    assert benchmark(kernel) == 6


@pytest.mark.benchmark(group="table2")
def test_table2_restricted_topology_integrality(benchmark, capsys):
    """The Evans–Jarvis claim behind row 3: on the stage-structured
    (restricted) topology the bare LP optimum is already integral —
    no branch and bound needed."""
    integral = 0
    trials = 10
    for seed in range(trials):
        m = instance(Discipline.HETEROGENEOUS)
        problem, _ = heterogeneous_max_problem(m)
        res = solve_max_multicommodity(problem)
        integral += res.integral
    assert integral == trials, "LP relaxation must be integral on MRSIN topologies"
    with capsys.disabled():
        print(f"\nTAB2: LP integrality on restricted topology: {integral}/{trials} integral")

    def kernel():
        problem, _ = heterogeneous_max_problem(instance(Discipline.HETEROGENEOUS))
        return solve_max_multicommodity(problem).integral

    assert benchmark(kernel)
