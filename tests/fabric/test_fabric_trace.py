"""Golden fabric traces: seeded 4-cell totals are pinned byte for byte.

The same discipline as ``tests/service/test_allocation_trace.py`` one
layer up: a seeded ``fabric-serve`` run and a seeded ``fabric-chaos``
run (kill cell 1, rejoin it) over real cell processes are hashed —
run totals, grants per round, and the lease ids revoked at the kill.
The digests below were recorded on the commit *before* the cell worker
lost its event loop (synchronous ``submit`` tickets in place of one
``acquire()`` task per request), so any change to which tick a request
is admitted, granted, timed out or released in fails here.
"""

import hashlib

import pytest

from repro.fabric.driver import ChaosSchedule, FabricConfig, run_fabric

CONFIG = FabricConfig(topology="omega", ports=16, cells=4, seed=7, rounds=24)
SCHEDULE = ChaosSchedule(cell=1, kill_round=8, rejoin_round=16)

#: name -> (chaos schedule, sha256 of the trace, headline totals).
GOLDEN = {
    "fabric-serve": (
        None,
        "9a446600d1a5132054010ff0b012e610cd8c5c1063ddc83e73c762916a3af488",
        {"offered": 2202, "allocated": 2197, "spill_allocated": 47,
         "escalated": 52, "revoked_on_death": 0},
    ),
    "fabric-chaos": (
        SCHEDULE,
        "da5ec57d4cb728c44d59e85a41d642d4561f26a46912fa308d675878dd4d578f",
        {"offered": 2202, "allocated": 2038, "spill_allocated": 67,
         "escalated": 231, "revoked_on_death": 13},
    ),
}
HEADLINE = ("offered", "allocated", "spill_allocated", "escalated", "revoked_on_death")


def _trace(chaos):
    result = run_fabric(CONFIG, chaos=chaos)
    digest = hashlib.sha256()
    digest.update(repr(sorted(result.totals.items())).encode())
    digest.update(repr(result.per_round_granted).encode())
    digest.update(repr(result.revoked_lease_ids).encode())
    return digest.hexdigest(), {key: result.totals[key] for key in HEADLINE}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fabric_trace_matches_golden_digest(name):
    chaos, golden_digest, golden_totals = GOLDEN[name]
    digest, totals = _trace(chaos)
    assert totals == golden_totals
    assert digest == golden_digest
    # The run must actually exercise what it pins.
    assert totals["spill_allocated"] > 0
    if chaos is not None:
        assert totals["revoked_on_death"] > 0
