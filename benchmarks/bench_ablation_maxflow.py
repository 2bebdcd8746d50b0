"""ABLATION — choice of max-flow algorithm inside the scheduler.

DESIGN.md calls out the solver as a pluggable design choice: the paper
names Ford–Fulkerson and realises Dinic in hardware; we additionally
carry Edmonds–Karp (BFS), push–relabel and the flat-array CSR kernel
(the same Dinic on integer lists, the default).  Every ``maxflow=``
value — the ``"kernel"`` route, which lowers Transformation 1 straight
onto the kernel, and each object solver in ``MAXFLOW_ALGORITHMS``,
which runs on the object network — must find the same optimum (flow
value is unique); this bench measures what the choice costs in time
and in abstract operations on identical full-load MRSIN workloads.

Timed kernels: one cold ``OptimalScheduler.schedule`` per algorithm
(reduction, solve and mapping read-back; one group).
"""

import pytest

from repro.core import MRSIN, OptimalScheduler, Request
from repro.core.scheduler import MAXFLOW_ALGORITHMS
from repro.networks import omega
from repro.util.counters import OpCounter
from repro.util.tables import Table

N = 32


def full_load(n: int = N) -> MRSIN:
    m = MRSIN(omega(n))
    for p in range(n):
        m.submit(Request(p))
    return m


@pytest.mark.benchmark(group="ablation-maxflow")
@pytest.mark.parametrize("name", ["kernel", *sorted(MAXFLOW_ALGORITHMS)])
def test_maxflow_algorithm_ablation(benchmark, capsys, name):
    counter = OpCounter()
    scheduler = OptimalScheduler(maxflow=name, counter=counter)
    scheduler.schedule(full_load())
    assert scheduler.stats.flow_value == N, "every algorithm must find the same optimum"

    table = Table(["algorithm", "flow", "ops (total)", "notes"],
                  title=f"ABLATION maxflow: {name} on omega-{N} full load")
    notes = {
        "dinic": "paper's hardware algorithm",
        "edmonds_karp": "shortest augmenting paths",
        "ford_fulkerson": "paper's named primal-dual scheme",
        "kernel": "Dinic on flat integer arrays (the warm engine's solver)",
        "push_relabel": "post-paper comparison point",
    }
    table.add_row(name, int(scheduler.stats.flow_value), int(counter.total()), notes[name])
    with capsys.disabled():
        print("\n" + table.render())

    def kernel():
        return len(OptimalScheduler(maxflow=name).schedule(full_load()))

    assert benchmark(kernel) == N
