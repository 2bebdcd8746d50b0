"""Cold Table II routes pinned by digest.

Rows 1-3 of ``OptimalScheduler.schedule`` on seeded ``sample_instance``
draws over every registry topology at 8 and 16 ports — with background
circuits, busy resources, a few failed links and switchboxes, and each
batch also solved in a shuffled order — are hashed assignment by
assignment: processor, resource and the link indices of the circuit,
in the order the mapping lists them.  So are two seeded CLI outputs
whose figures depend on which circuits the optimal policy picks.  The
digests were recorded before the lowering moved onto the wiring-time
layouts (``MultistageNetwork.flow_layout``) and must never be
re-recorded to make a change pass.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.cli import main
from repro.core import Discipline, OptimalScheduler
from repro.networks import TOPOLOGIES, build_network
from repro.sim.workload import WorkloadSpec, sample_instance

ROWS = {
    Discipline.HOMOGENEOUS: {},
    Discipline.PRIORITY: {"priority_levels": 4},
    Discipline.HETEROGENEOUS: {"resource_types": ("a", "b")},
}


def _draw(name: str, ports: int, seed: int, row: Discipline):
    spec = WorkloadSpec(
        partial(build_network, name), n_ports=ports, request_density=0.8,
        free_density=0.8, occupied_circuits=ports // 8, **ROWS[row],
    )
    rng = np.random.default_rng(seed)
    mrsin = sample_instance(spec, rng)
    for link in mrsin.network.links:
        if not link.occupied and rng.random() < 0.03:
            mrsin.set_failed("link", link.index)
    for stage, boxes in enumerate(mrsin.network.stages):
        for box in range(len(boxes)):
            if rng.random() < 0.02:
                mrsin.set_failed("switchbox", (stage, box))
    requests = mrsin.schedulable_requests()
    return mrsin, requests, [requests[i] for i in rng.permutation(len(requests))]


def _mappings_blob() -> str:
    lines = []
    for name in sorted(TOPOLOGIES):
        for ports in (8, 16):
            for seed, row in enumerate(ROWS):
                mrsin, requests, shuffled = _draw(name, ports, seed, row)
                for batch in (requests, shuffled):
                    mapping = OptimalScheduler().schedule(mrsin, batch, discipline=row)
                    lines.append(f"{name}-{ports} {row.value} " + " ".join(
                        f"{a.request.processor}>{a.resource.index}:"
                        + ",".join(str(link.index) for link in a.path)
                        for a in mapping
                    ))
    return "\n".join(lines)


def test_cold_mappings_match_the_recorded_digest():
    digest = hashlib.sha256(_mappings_blob().encode()).hexdigest()
    assert digest == "5885ad68fa02aeef32a0e72d1dfa30555fc6f587dd7baa23f6acfde7cb7c8573"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["schedule", "--policy", "optimal", "--render", "--occupied", "4",
          "--network", "omega", "--ports", "16", "--seed", "3"],
         "a6907784733216a94f9e50bfcad1fa24ba0071f93b87c2ac6962dfb4e86b3547"),
        (["schedule", "--policy", "optimal", "--render", "--occupied", "4",
          "--network", "benes", "--ports", "16", "--free-density", "0.7", "--seed", "5"],
         "801164334101aa8bd5a0b65215d4fa66ade47656690fcdde4a3a554bc7759cd6"),
        (["queueing", "--network", "omega", "--ports", "16", "--rate", "0.6",
          "--horizon", "120", "--seed", "7"],
         "16f8bccb1ce5b016efc19fed6d447b2a9c471d4433de1854ebd08b1c88a0ffda"),
        (["queueing", "--network", "clos", "--ports", "8", "--occupied", "1",
          "--horizon", "200", "--seed", "2"],
         "657271b75c40ec2aeb27888925ba24265c328cf0e249164853d327e8ada162a7"),
    ],
    ids=["schedule-omega16", "schedule-benes16", "queueing-omega16", "queueing-clos8"],
)
def test_cli_outputs_match_the_recorded_digest(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
