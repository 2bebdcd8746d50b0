#!/usr/bin/env python3
"""Quickstart: optimal resource scheduling on an 8x8 Omega MRSIN.

Builds the paper's running example — a multistage resource sharing
interconnection network embedded in an 8x8 Omega network — submits
requests, computes the optimal request→resource mapping via the
max-flow reduction (Transformation 1 + Dinic), and establishes the
circuits.

Run:  python examples/quickstart.py
"""

from repro.core import MRSIN, OptimalScheduler, Request, random_binding_schedule
from repro.networks import omega


def main() -> None:
    # 1. Build the network and wrap it in the MRSIN system model.
    network = omega(8)
    system = MRSIN(network)
    print(f"network: {network.name} with {network.n_stages} stages, "
          f"{len(network.links)} links")

    # 2. Some allocations already exist: processor 2 is using resource
    #    1, processor 4 is using resource 6 (as in the paper's Fig. 2,
    #    two circuits are up before scheduling begins).
    for p, r in [(2, 1), (4, 6)]:
        network.establish_circuit(network.find_free_path(p, r))
        system.resources[r].busy = True
    print(f"pre-existing circuits: {[(c.processor, c.resource) for c in network.circuits]}")

    # 3. Five processors request a resource — no destination address,
    #    just "give me any free resource".
    for p in (0, 3, 5, 6, 7):
        system.submit(Request(p))
    print(f"requests from processors: {sorted(system.requesting_processors())}")
    print(f"free resources: {[r.index for r in system.free_resources()]}")

    # 4. A conventional address-mapped scheduler binds each request to
    #    a random free resource and hopes the route is clear...
    heuristic = random_binding_schedule(system, rng=0)
    print(f"\naddress-mapped heuristic allocated {len(heuristic)} of 5: "
          f"{sorted(heuristic.pairs)}")

    # 5. ... while the optimal scheduler solves a max-flow problem over
    #    the network state and finds a conflict-free mapping for all 5.
    scheduler = OptimalScheduler()          # Dinic on the flat-array kernel
    mapping = scheduler.schedule(system)
    print(f"optimal scheduler allocated {len(mapping)} of 5: "
          f"{sorted(mapping.pairs)}")
    assert len(mapping) == 5

    # 6. Realise the mapping: establish circuits, mark resources busy.
    system.apply_mapping(mapping)
    print(f"\nafter allocation: utilization = {system.utilization():.0%}, "
          f"link occupancy = {network.occupancy():.0%}")

    # 7. Tasks are transmitted; circuits release while resources keep
    #    computing (the paper's model item 5).
    for assignment in mapping:
        system.complete_transmission(assignment.resource.index)
    print(f"after transmissions: link occupancy = {network.occupancy():.0%}, "
          f"utilization still {system.utilization():.0%}")


if __name__ == "__main__":
    main()
