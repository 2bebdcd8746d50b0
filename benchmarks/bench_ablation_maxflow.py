"""ABLATION — choice of max-flow algorithm inside the scheduler.

DESIGN.md calls out the solver as a pluggable design choice: the paper
names Ford–Fulkerson and realises Dinic in hardware; we additionally
carry Edmonds–Karp (BFS), push–relabel and the flat-array CSR kernel
(the same Dinic on integer lists — its row against ``dinic`` is the
kernel-vs-object comparison, cold: ``compile()`` is inside the timed
call).  Every entry of ``MAXFLOW_ALGORITHMS`` must find the same
optimum (flow value is unique); this bench measures what the choice
costs in time and in abstract operations on identical full-load MRSIN
workloads.

Timed kernels: one scheduling cycle per algorithm (one group).
"""

import pytest

from repro.core import MRSIN, Request
from repro.core.scheduler import MAXFLOW_ALGORITHMS
from repro.core.transform import transformation1
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
@pytest.mark.parametrize("name", sorted(MAXFLOW_ALGORITHMS))
def test_maxflow_algorithm_ablation(benchmark, capsys, name):
    problem = transformation1(full_load())
    counter = OpCounter()
    result = MAXFLOW_ALGORITHMS[name](problem.net, "s", "t", counter=counter)
    assert result.value == N, "every algorithm must find the same optimum"

    table = Table(["algorithm", "flow", "ops (total)", "notes"],
                  title=f"ABLATION maxflow: {name} on omega-{N} full load")
    notes = {
        "dinic": "paper's hardware algorithm",
        "edmonds_karp": "shortest augmenting paths",
        "ford_fulkerson": "paper's named primal-dual scheme",
        "kernel": "Dinic on flat integer arrays (the warm engine's solver)",
        "push_relabel": "post-paper comparison point",
    }
    table.add_row(name, int(result.value), int(counter.total()), notes[name])
    with capsys.disabled():
        print("\n" + table.render())

    def kernel():
        p = transformation1(full_load())
        return MAXFLOW_ALGORITHMS[name](p.net, "s", "t").value

    assert benchmark(kernel) == N
