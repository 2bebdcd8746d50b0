"""Transformations from MRSIN scheduling to network-flow problems.

This module is the heart of the reproduction — Section III's results:

- :func:`transformation1` (Transformation 1 / Theorems 1–2): a
  homogeneous MRSIN becomes a unit-capacity flow network whose maximum
  integral flow equals the maximum number of allocatable resources.
- :func:`transformation2` (Transformation 2 / Theorem 3): priorities
  and preferences become arc costs; a *bypass node* ``u`` absorbs
  unallocatable requests so a flow of value ``F0`` (= #requests)
  always exists, and the minimum-cost flow yields the optimal mapping.
- :func:`heterogeneous_max_problem` / :func:`heterogeneous_min_cost_problem`
  (Section III-D): one commodity per resource type, sharing the
  physical links' capacity.

The inverse direction — integral flow back to switch settings — is
:func:`extract_mapping` / :func:`extract_multicommodity_mapping`,
realising the Theorem 1 equivalence.

Flow-network node naming:

- ``"s"`` / ``"t"`` — source/sink (``("s", k)`` / ``("t", k)`` per
  commodity in heterogeneous problems);
- ``("p", i)`` — processor ``i``;
- ``("x", stage, box)`` — a switchbox;
- ``("r", j)`` — resource ``j``;
- ``"u"`` / ``("u", k)`` — the bypass node(s) of Transformation 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.mapping import Assignment, Mapping
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.flows.graph import Arc, FlowNetwork
from repro.flows.kernel import FlowKernel
from repro.flows.multicommodity import Commodity, MultiCommodityProblem, MultiCommodityResult
from repro.networks.topology import FLOW_TERMINALS, Link

__all__ = [
    "TransformedProblem",
    "transformation1",
    "transformation2",
    "KernelProblem",
    "lower_to_kernel",
    "kernel_mapping",
    "heterogeneous_max_problem",
    "heterogeneous_min_cost_problem",
    "extract_mapping",
    "extract_multicommodity_mapping",
    "bypass_cost",
    "link_nodes",
]


@dataclass
class TransformedProblem:
    """A flow problem produced from an MRSIN plus its inverse map.

    Attributes
    ----------
    net:
        The flow network (Transformation 1's ``G(V, E, s, t, c)`` or
        Transformation 2's costed variant).
    source, sink:
        Terminal node names.
    arc_link:
        Flow-arc index → physical :class:`Link` for the ``B`` arcs.
    request_of:
        Processor index → the request scheduled for it this cycle.
    bypass:
        The bypass node (Transformation 2 only).
    required_flow:
        ``F0``, the number of pending requests (Transformation 2 only).
    """

    net: FlowNetwork
    source: Hashable
    sink: Hashable
    arc_link: dict[int, Link] = field(default_factory=dict)
    request_of: dict[int, Request] = field(default_factory=dict)
    bypass: Hashable | None = None
    required_flow: int | None = None


def bypass_cost(mrsin: MRSIN) -> float:
    """Per-arc cost on the bypass path: ``max(ymax + 1, qmax + 1)``.

    Both bypass arcs carry it (step T4 applies ``w`` to all of ``L``),
    so routing through ``u`` always costs more than any real
    allocation: ``2 * max(...) > (ymax - y_p) + (qmax - q_w)``.

    .. note:: **Deviation from the printed cost function.**  With
       ``F0`` equal to the number of requests, *every* ``(s, p)`` arc
       is saturated by any feasible flow, so the printed
       ``ymax - y_p`` source costs contribute a constant and priority
       would never influence which requests get served.  The paper
       itself licenses *"any cost function that is inversely related
       to priorities"*; we therefore additionally charge ``y_p`` on
       the request's ``(p, u)`` bypass arc (see
       :func:`transformation2`), making it costlier to *not* serve an
       urgent request — which realises the paper's stated objective
       that "requests of higher priority are to be allocated".
    """
    return float(max(mrsin.max_priority + 1, mrsin.max_preference + 1))


def link_nodes(link: Link) -> tuple[Hashable, Hashable]:
    """The flow-network (tail, head) node names of a physical link."""
    if link.src.kind == "proc":
        tail: Hashable = ("p", link.src.box)
    else:
        tail = ("x", link.src.stage, link.src.box)
    if link.dst.kind == "res":
        head: Hashable = ("r", link.dst.box)
    else:
        head = ("x", link.dst.stage, link.dst.box)
    return tail, head


def _add_structure_arcs(
    net: FlowNetwork, mrsin: MRSIN, problem: TransformedProblem
) -> dict[int, Arc]:
    """Steps T2/T3 for the ``B`` arc set: one unit arc per *free* link.

    Occupied links get capacity zero in the paper and are then removed
    by step T4; we simply never add them.  Failed links (and links
    touching a failed switchbox) are handled the same way, so a solve
    on a faulted MRSIN is simply max flow on the surviving subgraph and
    Theorem 2 keeps holding for it.  Fills ``problem.arc_link`` and
    returns resource index → the arc entering its ``("r", j)`` node
    (used to wire ``T`` arcs).
    """
    resource_in_arc: dict[int, Arc] = {}
    network = mrsin.network
    for link in network.links:
        if link.occupied or not network.link_usable(link):
            continue
        tail, head = link_nodes(link)
        arc = net.add_arc(tail, head, capacity=1)
        problem.arc_link[arc.index] = link
        if link.dst.kind == "res":
            resource_in_arc[link.dst.box] = arc
    return resource_in_arc


def _schedulable(mrsin: MRSIN, requests: Sequence[Request] | None) -> list[Request]:
    """The requests entering this scheduling cycle."""
    if requests is None:
        return mrsin.schedulable_requests()
    procs = [r.processor for r in requests]
    if len(set(procs)) != len(procs):
        raise ValueError("at most one request per processor per cycle (model item 5)")
    return list(requests)


def transformation1(
    mrsin: MRSIN, requests: Sequence[Request] | None = None
) -> TransformedProblem:
    """Transformation 1: homogeneous MRSIN → max-flow network.

    Steps T1–T4 of the paper: source/sink plus processor, switchbox,
    and resource nodes; unit arcs for requesting processors, free
    links, and available resources.  By Theorem 2, the max integral
    flow value equals the maximum number of allocatable resources.
    """
    reqs = _schedulable(mrsin, requests)
    net = FlowNetwork()
    net.add_node("s")
    net.add_node("t")
    problem = TransformedProblem(net=net, source="s", sink="t")
    for req in reqs:
        net.add_arc("s", ("p", req.processor), capacity=1)
        problem.request_of[req.processor] = req
    resource_in = _add_structure_arcs(net, mrsin, problem)
    for res in mrsin.free_resources():
        if res.index in resource_in:
            net.add_arc(("r", res.index), "t", capacity=1)
    return problem


def transformation2(
    mrsin: MRSIN, requests: Sequence[Request] | None = None
) -> TransformedProblem:
    """Transformation 2: priorities/preferences → min-cost flow network.

    Adds the bypass node ``u`` (arcs ``(p, u)`` and ``(u, t)``, each
    costing :func:`bypass_cost`), prices ``S`` arcs at
    ``ymax - y_p`` and ``T`` arcs at ``qmax - q_w``, and fixes the
    required flow ``F0`` to the number of requests.  By Theorem 3 the
    min-cost integral flow of value ``F0`` defines the optimal mapping.
    """
    reqs = _schedulable(mrsin, requests)
    net = FlowNetwork()
    net.add_node("s")
    net.add_node("t")
    problem = TransformedProblem(
        net=net, source="s", sink="t", bypass="u", required_flow=len(reqs)
    )
    penalty = bypass_cost(mrsin)
    for req in reqs:
        if req.priority > mrsin.max_priority:
            raise ValueError(
                f"priority {req.priority} exceeds ymax={mrsin.max_priority}"
            )
        net.add_arc(
            "s", ("p", req.processor), capacity=1,
            cost=float(mrsin.max_priority - req.priority),
        )
        # The extra + priority term makes bypassing an urgent request
        # dearer (see the bypass_cost docstring for why the printed
        # costs alone cannot express priority).
        net.add_arc(
            ("p", req.processor), "u", capacity=1, cost=penalty + req.priority
        )
        problem.request_of[req.processor] = req
    if reqs:
        net.add_arc("u", "t", capacity=len(reqs), cost=penalty)
    resource_in = _add_structure_arcs(net, mrsin, problem)
    for res in mrsin.free_resources():
        if res.preference > mrsin.max_preference:
            raise ValueError(
                f"preference {res.preference} exceeds qmax={mrsin.max_preference}"
            )
        if res.index in resource_in:
            net.add_arc(
                ("r", res.index), "t", capacity=1,
                cost=float(mrsin.max_preference - res.preference),
            )
    return problem


# ----------------------------------------------------------------------
# Transformations 1 and 2 straight onto the flow kernel
# ----------------------------------------------------------------------

@dataclass
class KernelProblem:
    """Transformation 1 or 2 as a copy of the network's wiring-time
    layout (:meth:`~repro.networks.topology.MultistageNetwork.flow_layout`).

    Arc ids are the layout's: every processor, link and link-entered
    resource has its arc whatever its state, at capacity 0 when this
    cycle cannot use it.  Node ids are the network's wiring-time table
    (:attr:`~repro.networks.topology.MultistageNetwork.flow_ends`).
    Each node meets its usable arcs in the order the object
    transformation adds them (the batch's source arcs are linked into
    ``s``'s list in request order), so every kernel solve takes the
    same steps on either form, skipping only capacity-0 arcs.

    Attributes
    ----------
    kernel:
        The flow network; node 0 is ``s``, node 1 is ``t``, node 2 the
        bypass ``u``.
    link_of_arc:
        Kernel arc id → the physical link it mirrors (``None`` for
        source, sink, bypass and reverse arcs).  The layout's: shared,
        never mutate it.
    source_arc:
        Processor index → its ``s → (p, i)`` arc id: the batch's, in
        request order.
    sink_arc:
        Resource index → its ``(r, j) → t`` arc id: the sinks open this
        cycle.
    cost:
        Unit cost per arc, parallel to ``kernel.cap`` (Transformation
        2's prices; empty unless priced).
    """

    kernel: FlowKernel
    link_of_arc: list[Link | None]
    source_arc: dict[int, int]
    sink_arc: dict[int, int]
    cost: list[int]
    source: int = 0
    sink: int = 1


def lower_to_kernel(
    mrsin: MRSIN, requests: Sequence[Request], *, priced: bool = False
) -> KernelProblem:
    """Transformation 1 (``priced``: 2) of a batch as a :class:`KernelProblem`.

    Copies the network's layout and writes this cycle's capacities:
    a link arc is open while its link is free and usable; the batch's
    source arcs (and bypass arcs, ``u → t`` at the batch size, when
    priced) are open and linked into ``s``'s (and ``u``'s) list in
    request order; a sink arc is open while its resource is available,
    its in-link open and its type asked for — the arcs
    :func:`transformation1` / :func:`transformation2` would add, priced
    as they price them.
    """
    network = mrsin.network
    layout = network.flow_layout(priced)
    kernel = layout.kernel.copy()
    head, next_arc, cap = kernel.head, kernel.next_arc, kernel.cap
    step = 4 if priced else 2
    up = network.open_links()
    sink0 = layout.first_link + 2 * len(up)
    cap[layout.first_link:sink0:2] = up
    sinks = enumerate(layout.sinks, sink0 // 2)
    cost: list[int] = []
    reqs = _schedulable(mrsin, requests)
    wanted = {req.resource_type for req in reqs}
    s, t, u = range(FLOW_TERMINALS)
    source_arc: dict[int, int] = {}
    head[s] = -1
    for req in reqs:
        if priced and req.priority > mrsin.max_priority:
            raise ValueError(f"priority {req.priority} exceeds ymax={mrsin.max_priority}")
        a = source_arc[req.processor] = step * req.processor
        cap[a] = 1
        next_arc[a], head[s] = head[s], a
    sink_arc = {
        r: 2 * k for k, (r, link) in sinks
        if up[link] and (res := mrsin.resources[r]).available and res.resource_type in wanted
    }
    for a in sink_arc.values():
        cap[a] = 1
    if priced:
        qmax = mrsin.max_preference
        bad = [res.preference for res in mrsin.free_resources() if res.preference > qmax]
        if bad:
            raise ValueError(f"preference {bad[0]} exceeds qmax={qmax}")
        penalty = int(bypass_cost(mrsin))
        to_t = layout.first_link - 2  # u -> t; arc a + 2 is a's p -> u
        prices = {to_t: penalty}
        head[u] = -1
        for req, a in zip(reqs, source_arc.values()):
            prices[a], prices[a + 2] = mrsin.max_priority - req.priority, penalty + req.priority
            cap[a + 2] = 1
            next_arc[a + 3], head[u] = head[u], a + 3
        next_arc[to_t], head[u] = head[u], to_t
        cap[to_t] = len(reqs)
        for r, a in sink_arc.items():
            prices[a] = qmax - mrsin.resources[r].preference
        cost = [0] * kernel.n_arcs
        for a, price in prices.items():
            cost[a], cost[a ^ 1] = price, -price
    kernel.base = cap.copy()
    return KernelProblem(kernel, layout.link_of_arc, source_arc, sink_arc, cost)


def kernel_mapping(
    paths: list[list[int]],
    link_of_arc: list[Link | None],
    request_of: dict[int, Request],
    mrsin: MRSIN,
) -> Mapping:
    """Read a mapping off kernel arc paths (:meth:`FlowKernel.decompose`).

    One assignment per path, in path order; a path that crosses no
    link went through the bypass node ``u`` and serves nobody.
    """
    mapping = Mapping()
    for path in paths:
        links = tuple([link for a in path if (link := link_of_arc[a]) is not None])
        if links:
            mapping.add(
                Assignment(
                    request=request_of[links[0].src.box],
                    resource=mrsin.resources[links[-1].dst.box],
                    path=links,
                )
            )
    return mapping


# ----------------------------------------------------------------------
# Heterogeneous systems (Section III-D)
# ----------------------------------------------------------------------

def _commodity_types(mrsin: MRSIN, reqs: Sequence[Request]) -> list[Hashable]:
    """Resource types that have at least one pending request, in order."""
    seen: list[Hashable] = []
    for req in reqs:
        if req.resource_type not in seen:
            seen.append(req.resource_type)
    return seen


def heterogeneous_max_problem(
    mrsin: MRSIN, requests: Sequence[Request] | None = None
) -> tuple[MultiCommodityProblem, TransformedProblem]:
    """Heterogeneous MRSIN → multicommodity maximum flow.

    One commodity per requested resource type; Transformation 1 is
    applied per type and the single-commodity networks are superposed
    on the shared ``B`` arcs, exactly as the paper describes.
    Returns the multicommodity problem plus the shared inverse map.
    """
    reqs = _schedulable(mrsin, requests)
    net = FlowNetwork()
    meta = TransformedProblem(net=net, source="s", sink="t")
    types = _commodity_types(mrsin, reqs)
    resource_in = _add_structure_arcs(net, mrsin, meta)
    commodities = []
    for k, rtype in enumerate(types):
        src, dst = ("s", rtype), ("t", rtype)
        net.add_node(src)
        net.add_node(dst)
        for req in reqs:
            if req.resource_type == rtype:
                net.add_arc(src, ("p", req.processor), capacity=1)
                meta.request_of[req.processor] = req
        for res in mrsin.free_resources(rtype):
            if res.index in resource_in:
                net.add_arc(("r", res.index), dst, capacity=1)
        commodities.append(Commodity(rtype, src, dst))
    return MultiCommodityProblem(net, commodities), meta


def heterogeneous_min_cost_problem(
    mrsin: MRSIN, requests: Sequence[Request] | None = None
) -> tuple[MultiCommodityProblem, TransformedProblem]:
    """Heterogeneous MRSIN with priorities → multicommodity min-cost flow.

    Per-commodity bypass nodes ``(u, k)`` keep every demand feasible;
    per-commodity demands are the per-type request counts.
    """
    reqs = _schedulable(mrsin, requests)
    net = FlowNetwork()
    meta = TransformedProblem(net=net, source="s", sink="t")
    penalty = bypass_cost(mrsin)
    types = _commodity_types(mrsin, reqs)
    resource_in = _add_structure_arcs(net, mrsin, meta)
    commodities = []
    for rtype in types:
        src, dst, byp = ("s", rtype), ("t", rtype), ("u", rtype)
        net.add_node(src)
        net.add_node(dst)
        demand = 0
        for req in reqs:
            if req.resource_type != rtype:
                continue
            demand += 1
            net.add_arc(
                src, ("p", req.processor), capacity=1,
                cost=float(mrsin.max_priority - req.priority),
            )
            net.add_arc(
                ("p", req.processor), byp, capacity=1, cost=penalty + req.priority
            )
            meta.request_of[req.processor] = req
        net.add_arc(byp, dst, capacity=demand, cost=penalty)
        for res in mrsin.free_resources(rtype):
            if res.index in resource_in:
                net.add_arc(
                    ("r", res.index), dst, capacity=1,
                    cost=float(mrsin.max_preference - res.preference),
                )
        commodities.append(Commodity(rtype, src, dst, demand=demand))
    return MultiCommodityProblem(net, commodities), meta


# ----------------------------------------------------------------------
# Inverse direction: integral flow → mapping (Theorem 1)
# ----------------------------------------------------------------------

def _paths_to_mapping(
    paths: list[list[Arc]],
    problem: TransformedProblem,
    mrsin: MRSIN,
) -> Mapping:
    """Convert flow-path decompositions into a circuit mapping."""
    mapping = Mapping()
    for path in paths:
        if problem.bypass is not None and any(
            arc.head == problem.bypass or arc.tail == problem.bypass for arc in path
        ):
            continue  # bypassed request: not allocated
        links = tuple(
            problem.arc_link[arc.index] for arc in path if arc.index in problem.arc_link
        )
        processor = links[0].src.box
        resource = links[-1].dst.box
        mapping.add(
            Assignment(
                request=problem.request_of[processor],
                resource=mrsin.resources[resource],
                path=links,
            )
        )
    return mapping


def extract_mapping(problem: TransformedProblem, mrsin: MRSIN) -> Mapping:
    """Read the optimal mapping off an integral flow assignment.

    Realises Theorem 2's correspondence: every unit of s–t flow is one
    nonoverlapping processor→resource path.  The flow currently on
    ``problem.net`` must be legal and integral (run a solver first).
    """
    paths = problem.net.decompose_paths(problem.source, problem.sink)
    return _paths_to_mapping(paths, problem, mrsin)


def extract_multicommodity_mapping(
    result: MultiCommodityResult,
    problem: MultiCommodityProblem,
    meta: TransformedProblem,
    mrsin: MRSIN,
) -> Mapping:
    """Read the mapping off an integral multicommodity solution.

    Decomposes each commodity's flow separately (the superposition
    view: *"a multicommodity flow network may be visualized as the
    superposition of k single-commodity flow networks"*).
    """
    if not result.integral:
        raise ValueError("multicommodity solution is fractional; cannot realise circuits")
    mapping = Mapping()
    for k, com in enumerate(problem.commodities):
        layer = problem.net.copy()
        layer.zero_flow()
        for arc in layer.arcs:
            layer.arcs[arc.index].flow = round(result.commodity_flow(k, arc))
        sub = TransformedProblem(
            net=layer,
            source=com.source,
            sink=com.sink,
            arc_link={
                idx: link
                for idx, link in meta.arc_link.items()
            },
            request_of=meta.request_of,
            bypass=("u", com.name),
        )
        for assignment in _paths_to_mapping(
            layer.decompose_paths(com.source, com.sink), sub, mrsin
        ):
            mapping.add(assignment)
    return mapping
