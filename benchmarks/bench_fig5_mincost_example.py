"""FIG5 — Transformation 2 on an Omega MRSIN with priorities/preferences.

Paper setup (Fig. 5): an 8x8 Omega with occupied paths; three
processors request with priority levels, five resources are free with
preference values (both scales 1..10); the min-cost flow (solved by
the out-of-kilter algorithm) serves **all three** requests and picks
high-preference resources — the paper's result is the mapping
``{(p3, r5), (p5, r1), (p8, r7)}``.

Our Omega wiring differs from the paper's renumbered figure, so the
specific pairs differ; the reproduced properties are (a) all requests
served, (b) total cost is the optimum (out-of-kilter, successive
shortest paths and the flat-array kernel agree, NetworkX referees),
(c) preferred resources chosen.

Timed kernel: Transformation 2 + out-of-kilter.
"""

import pytest

from benchmarks.conftest import referee_min_cost
from repro.core import MRSIN, OptimalScheduler, Request
from repro.core.scheduler import MINCOST_ALGORITHMS
from repro.networks import omega
from repro.util.tables import Table

PREFERENCES = [9, 1, 6, 1, 8, 1, 4, 7]


def fig5_instance() -> MRSIN:
    net = omega(8)
    m = MRSIN(net, preferences=PREFERENCES, max_priority=10, max_preference=10)
    for p, r in [(1, 1), (6, 3)]:
        net.establish_circuit(net.find_free_path(p, r))
        m.resources[r].busy = True
    m.submit(Request(2, priority=6))
    m.submit(Request(4, priority=9))
    m.submit(Request(7, priority=2))
    return m


@pytest.mark.benchmark(group="fig5")
def test_fig5_mincost_example(benchmark, capsys):
    # The paper's solver and the independent one must agree on the
    # optimum, and NetworkX referees the cost itself.
    results = {}
    for algo in ("kernel", *sorted(MINCOST_ALGORITHMS)):
        m = fig5_instance()
        sched = OptimalScheduler(mincost=algo)
        mapping = sched.schedule(m)
        results[algo] = (len(mapping), sched.stats.flow_cost, sorted(mapping.pairs))
    sizes = {r[0] for r in results.values()}
    costs = {round(r[1], 6) for r in results.values()}
    assert sizes == {3}, "all three requests must be served (paper's mapping has 3)"
    assert len(costs) == 1, f"solvers disagree on optimal cost: {results}"
    referee = referee_min_cost(fig5_instance())
    assert costs == {round(referee, 6)}, f"NetworkX optimum {referee}: {results}"
    # The paper's mapping {(p3,r5),(p5,r1),(p8,r7)}, 0-indexed, from every entry.
    assert {tuple(r[2]) for r in results.values()} == {((2, 4), (4, 0), (7, 7))}, results

    # High-preference resources win: the three served preferences are
    # the three largest reachable ones.
    m = fig5_instance()
    mapping = OptimalScheduler().schedule(m)
    served_prefs = sorted((a.resource.preference for a in mapping), reverse=True)
    free_prefs = sorted((PREFERENCES[r.index] for r in fig5_instance().free_resources()),
                        reverse=True)
    assert served_prefs == free_prefs[:3], (served_prefs, free_prefs)

    table = Table(["quantity", "paper", "measured"], title="FIG5: priority/preference scheduling")
    table.add_row("requests served", "3 of 3", f"{len(mapping)} of 3")
    table.add_row("paper's mapping", "{(p3,r5),(p5,r1),(p8,r7)}", sorted(mapping.pairs))
    table.add_row("min cost (out-of-kilter)", "(optimal)", results["out_of_kilter"][1])
    table.add_row("min cost (SSP)", "(same)", results["ssp"][1])
    table.add_row("min cost (kernel, the default)", "(same)", results["kernel"][1])
    table.add_row("min cost (NetworkX referee)", "(same)", referee)
    table.add_row("preferences chosen", "highest available", served_prefs)
    with capsys.disabled():
        print("\n" + table.render())

    def kernel():
        return len(OptimalScheduler(mincost="out_of_kilter").schedule(fig5_instance()))

    assert benchmark(kernel) == 3
