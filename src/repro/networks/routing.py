"""Address-mapped (destination-tag) routing — the conventional baseline.

The paper contrasts the RSIN with *"conventional networks with address
mapping"*, where a request enters the network already tagged with a
resource address and is routed bit by bit.  The heuristic schedulers
in :mod:`repro.core.heuristic` use this router; the blocking-
probability benchmark measures how much worse it is than the optimal
flow-based mapping (~20% vs <5% in the paper).

The router is topology-independent: for each box output port we
precompute (and cache per network) the set of resources reachable
through it, then walk stage by stage choosing a port that leads to the
target.  On unique-path networks this reproduces classic
destination-tag routing exactly; on multi-path networks (Beneš, Clos,
extra-stage) the first free qualifying port is taken.
"""

from __future__ import annotations

from repro.networks.topology import Link, MultistageNetwork, PortRef

__all__ = ["destination_tag_path", "reachable_resources"]


def _reach_table(net: MultistageNetwork) -> dict[int, frozenset[int]]:
    """Link index → set of resources structurally reachable through it.

    Memoized on the network instance: reachability depends only on the
    wiring, never on occupancy, and wiring is fixed after assembly.
    """
    cached = net.__dict__.get("_reach_table")
    if cached is not None:
        return cached
    table: dict[int, frozenset[int]] = {}

    def walk(link: Link) -> frozenset[int]:
        got = table.get(link.index)
        if got is not None:
            return got
        if link.dst.kind == "res":
            result = frozenset({link.dst.box})
        else:
            stage, box_idx = link.dst.stage, link.dst.box
            box = net.box(stage, box_idx)
            acc: set[int] = set()
            for port in range(box.n_out):
                nxt = net.link_from(PortRef.box_out(stage, box_idx, port))
                if nxt is not None:
                    acc |= walk(nxt)
            result = frozenset(acc)
        table[link.index] = result
        return result

    for p in range(net.n_processors):
        walk(net.processor_link(p))
    net.__dict__["_reach_table"] = table
    return table


def reachable_resources(net: MultistageNetwork, p: int) -> frozenset[int]:
    """Resources structurally reachable from processor ``p``.

    Ignores occupancy — this is the full-access check (every builder
    in this package produces networks where it equals all resources).
    """
    return _reach_table(net)[net.processor_link(p).index]


def destination_tag_path(net: MultistageNetwork, p: int, r: int) -> list[Link] | None:
    """Route processor ``p`` toward resource ``r`` greedily.

    At each box, follow a free output port whose reachable set
    contains ``r`` (backtracking over the alternatives on multi-path
    networks).  Failed links and switchboxes are treated like occupied
    ones: never taken.  Returns the link path, or ``None`` when the
    request is blocked — no rerouting of *other* circuits is
    attempted, which is precisely the deficiency the optimal scheduler
    fixes.
    """
    table = _reach_table(net)
    start = net.processor_link(p)
    if start.occupied or start.failed or r not in table[start.index]:
        return None
    stack: list[list[Link]] = [[start]]
    target = PortRef.resource(r)
    while stack:
        path = stack.pop()
        last = path[-1]
        if last.dst == target:
            return path
        for nxt in net.free_successors(last):
            if r in table[nxt.index]:
                stack.append(path + [nxt])
    return None
