"""Cold Table II rows 1-3 and a priority ``serve`` run, pinned per OpCounter category.

``tests/service/test_op_counts.py`` pins the solver steps of the three
allocation-trace streams, which are homogeneous service ticks.  This
pins the shapes those streams do not reach: a seeded cold pool of rows
1-3 through ``OptimalScheduler(counter=...)`` (row 1 at omega-64, where
about a third of the solves take a second Dinic phase and a walk; row 2's
kernel min-cost flow; row 3's per-type kernel max flows) and the CLI's
``serve --json --priority-levels 3 --occupied 3``, whose priority ticks
run cold row 2.  The counts are exact and host-independent, so a change
to how a solve pushes or reads back its flow that takes one step more
or fewer fails here, by category, while a wall-clock gain cannot hide
it.  A change that lowers a count lowers it here; one that raises a
count says why.
"""

import json

import numpy as np

from repro.cli import main
from repro.core.scheduler import OptimalScheduler
from repro.networks import omega
from repro.sim.workload import WorkloadSpec, sample_instance
from repro.util.counters import OpCounter

#: Table II row -> the spec of its instances and how many are drawn.
POOL = {
    "homogeneous": (
        WorkloadSpec(omega, n_ports=64, request_density=0.75, free_density=0.875,
                     occupied_circuits=2), 8,
    ),
    "priority": (
        WorkloadSpec(omega, n_ports=16, request_density=0.75, free_density=0.75,
                     priority_levels=4), 4,
    ),
    "heterogeneous": (
        WorkloadSpec(omega, n_ports=16, request_density=0.75, free_density=0.75,
                     resource_types=["a", "b"]), 4,
    ),
}

#: row -> final ``OpCounter.counts`` over the pool (seed 17).
COLD_OPS = {
    "heterogeneous": {
        "arc_scan": 6781, "arc_update": 1034, "augmentation": 146, "node_visit": 2924,
    },
    "homogeneous": {
        "arc_scan": 14622, "arc_update": 3539, "augmentation": 389, "node_visit": 6841,
    },
    "priority": {
        "arc_scan": 6305, "arc_update": 433, "augmentation": 47, "node_visit": 2356,
    },
}

#: ``solver_ops`` of ``repro serve --json --priority-levels 3 --occupied 3``.
SERVE_OPS = {
    "arc_scan": 41814, "arc_update": 3765, "augmentation": 626,
    "extract": 2052, "node_visit": 16743, "transform_arc": 6336,
}


def cold_pool_counts(seed: int = 17) -> dict[str, dict[str, int]]:
    """Solve the seeded pool cold, one counter per row; its final counts."""
    rng = np.random.default_rng(seed)
    counts = {}
    for row, (spec, draws) in POOL.items():
        counter = OpCounter()
        scheduler = OptimalScheduler(counter=counter)
        for _ in range(draws):
            scheduler.schedule(sample_instance(spec, rng))
        counts[row] = dict(counter.counts)
    return counts


def test_cold_rows_op_counts_are_pinned():
    assert cold_pool_counts() == COLD_OPS


def test_priority_serve_op_counts_are_pinned(capsys):
    assert main(["serve", "--json", "--priority-levels", "3", "--occupied", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["solver_ops"] == SERVE_OPS
