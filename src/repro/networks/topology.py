"""The generic multistage-network model: boxes, links, and circuits.

A :class:`MultistageNetwork` is the physical substrate of an MRSIN
(Section II): processors on the input side, resources on the output
side, stages of non-broadcast switchboxes in between, and point-to-
point links.  Circuit switching means a request holds an entire
processor→resource path of links; this module owns that bookkeeping
(:meth:`MultistageNetwork.establish_circuit` /
:meth:`~MultistageNetwork.release_circuit`).

Link occupancy is the only circuit state.  Every port carries exactly
one link, so a box's input→output connection is the pair of occupied
links a circuit holds through it (Theorem 1: a setting is a unit flow
on the box's links).  Switch settings are read off the circuits by
:meth:`MultistageNetwork.switch_settings`, never stored.

Networks are assembled from *stage boundaries*: permutation functions
describing how the wires of one rank connect to the next (see
:mod:`repro.networks.permutations`).  The topology builders
(:func:`~repro.networks.omega.omega` etc.) all funnel through
:func:`assemble`.

A network's :class:`Wiring` (link ends, hop table, stage shapes, flow
levels and layouts) is fixed; its own state is its boxes, links and
circuits.  Networks :func:`assemble` builds share one wiring per content,
so ``flow_levels`` and ``flow_layout`` are built once per wiring.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.flows.kernel import FlowKernel
from repro.networks.switchbox import Switchbox

__all__ = ["PortRef", "Link", "Circuit", "MultistageNetwork", "assemble", "FLOW_TERMINALS"]

#: Flow-node ids below the processors: source ``s``, sink ``t`` and
#: Transformation 2's bypass ``u`` (see :class:`Wiring`).
FLOW_TERMINALS = 3

#: Wirings :func:`assemble` keeps for reuse, least recently used out first.
WIRING_CACHE_SIZE = 32


class PortRef(NamedTuple):
    """A network attachment point.

    ``kind`` is one of ``"proc"``, ``"res"``, ``"box_in"``,
    ``"box_out"``.  For processors/resources, ``box`` holds the
    processor/resource index and ``stage``/``port`` are ``-1``/``0``.
    """

    kind: str
    stage: int
    box: int
    port: int

    @staticmethod
    def processor(p: int) -> "PortRef":
        """The output port of processor ``p``."""
        return PortRef("proc", -1, p, 0)

    @staticmethod
    def resource(r: int) -> "PortRef":
        """The input port of resource ``r``."""
        return PortRef("res", -1, r, 0)

    @staticmethod
    def box_in(stage: int, box: int, port: int) -> "PortRef":
        """Input ``port`` of switchbox ``box`` in ``stage``."""
        return PortRef("box_in", stage, box, port)

    @staticmethod
    def box_out(stage: int, box: int, port: int) -> "PortRef":
        """Output ``port`` of switchbox ``box`` in ``stage``."""
        return PortRef("box_out", stage, box, port)


@dataclass
class Link:
    """A physical wire between two ports.

    ``occupied`` marks a link held by an established circuit; the
    scheduling transformations give occupied links zero capacity.
    ``failed`` marks a physically broken wire: it can carry no new
    circuit until repaired, and a circuit holding it when it fails is
    *severed* (the service revokes the lease).
    """

    index: int
    src: PortRef
    dst: PortRef
    occupied: bool = False
    failed: bool = False


@dataclass
class Circuit:
    """An established processor→resource connection.

    Holds the ordered links of the path; used as the handle for
    :meth:`MultistageNetwork.release_circuit`.
    """

    processor: int
    resource: int
    links: tuple[Link, ...]


class FlowLayout(NamedTuple):
    """A transformation's arcs as wired (:meth:`MultistageNetwork.flow_layout`):
    every arc at capacity 0 in ``kernel``, link ``i`` at arc
    ``first_link + 2 * i``, and sink arc ``k`` after the last link, from
    resource ``sinks[k][0]``, whose one in-link is ``sinks[k][1]``."""

    kernel: FlowKernel
    first_link: int
    sinks: list[tuple[int, int]]


class Wiring:
    """The fixed part of a network, never changed once ``shared``.

    ``from_src`` / ``to_dst`` map each link's ports to its index, in link
    order; link ``i`` runs from flow node ``flow_ends[2 * i]`` to
    ``flow_ends[2 * i + 1]`` (``hops[i]``: head, tail).  Ids run s, t, u,
    processors, resources, then boxes stage by stage, and never move.
    """

    def __init__(self, n_processors: int, n_resources: int) -> None:
        self.n_processors, self.n_resources = n_processors, n_resources
        self.n_flow_nodes = FLOW_TERMINALS + n_processors + n_resources
        self.shapes: list[list[tuple[int, int]]] = []
        self.from_src: dict[PortRef, int] = {}
        self.to_dst: dict[PortRef, int] = {}
        self.flow_ends: list[int] = []
        self.hops: list[tuple[int, int]] = []
        self.levels: list[int] | None = None
        self.layouts: dict[bool, FlowLayout] = {}
        self.shared = False


class MultistageNetwork:
    """Switchboxes + links + circuit state for one interconnection network.

    Use the topology builders or :func:`assemble` to construct
    instances; direct construction is for hand-built test fixtures.
    """

    def __init__(self, name: str, n_processors: int, n_resources: int) -> None:
        self.name = name
        self.n_processors = n_processors
        self.n_resources = n_resources
        self.wiring = Wiring(n_processors, n_resources)
        self.stages: list[list[Switchbox]] = []
        self.links: list[Link] = []
        self._processor_links: dict[int, Link] = {}
        # Flow-node id -> its switchbox (None below the boxes).
        self._node_box: list[Switchbox | None] = [None] * self.wiring.n_flow_nodes
        # Active circuits by the index of their first link (circuits
        # are link-disjoint, so the key is unique), in establish order.
        self._circuits: dict[int, Circuit] = {}

    @classmethod
    def on_wiring(cls, name: str, wiring: Wiring) -> "MultistageNetwork":
        """A network of its own boxes and links on a shared ``wiring``."""
        net = cls(name, wiring.n_processors, wiring.n_resources)
        net.wiring = wiring
        net.stages = [
            list(map(Switchbox, repeat(k), range(len(shape)), *zip(*shape)))
            for k, shape in enumerate(wiring.shapes)
        ]
        links = net.links = list(map(Link, count(), wiring.from_src, wiring.to_dst))
        net._processor_links = dict(zip(range(net.n_processors), links))  # assemble's order
        net._node_box += chain.from_iterable(net.stages)
        return net

    def _extend(self) -> Wiring:
        """The wiring to change: a shared one is copied first."""
        if self.wiring.shared:
            self.wiring = copy.deepcopy(self.wiring)
            self.wiring.shared = False
        self.wiring.levels, self.wiring.layouts = None, {}
        return self.wiring

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stage(self, boxes: Sequence[tuple[int, int]]) -> list[Switchbox]:
        """Append a stage of switchboxes given ``(n_in, n_out)`` shapes."""
        stage = len(self.stages)
        created = [Switchbox(stage, i, n_in, n_out) for i, (n_in, n_out) in enumerate(boxes)]
        wiring = self._extend()
        self.stages.append(created)
        self._node_box += created
        wiring.shapes.append([(box.n_in, box.n_out) for box in created])
        wiring.n_flow_nodes += len(created)
        return created

    def add_link(self, src: PortRef, dst: PortRef) -> Link:
        """Wire ``src`` to ``dst``; each port carries at most one link."""
        if src in self.wiring.from_src:
            raise ValueError(f"port {src} already wired")
        if dst in self.wiring.to_dst:
            raise ValueError(f"port {dst} already wired")
        tail = self._link_end(src, "box_out")
        head = self._link_end(dst, "box_in")
        wiring = self._extend()
        link = Link(len(self.links), src, dst)
        self.links.append(link)
        wiring.from_src[src] = wiring.to_dst[dst] = link.index
        wiring.flow_ends += (tail, head)
        wiring.hops.append((head, tail))
        if src.kind == "proc":
            self._processor_links[src.box] = link
        return link

    def _link_end(self, ref: PortRef, kind: str) -> int:
        """The flow-node id of the processor, resource or switchbox
        ``kind`` port ``ref`` names.

        Checked here, once, so the per-grant pass over the hop table
        never meets a missing box or an out-of-range port, and no two
        ends share a flow-node id unless they share a node.
        """
        ref_kind, stage, index, port = ref
        if ref_kind != kind:
            if ref_kind == "proc" and 0 <= index < self.n_processors:
                return FLOW_TERMINALS + index
            if ref_kind == "res" and 0 <= index < self.n_resources:
                return FLOW_TERMINALS + self.n_processors + index
            raise ValueError(f"port {ref} names no processor, resource or switchbox port")
        try:
            box = self.stages[stage][index]
        except IndexError:
            box = None
        if box is None or stage < 0 or index < 0 or not (
            0 <= port < (box.n_in if kind == "box_in" else box.n_out)
        ):
            raise ValueError(f"port {ref} names no switchbox port")
        return self.wiring.n_flow_nodes - sum(map(len, self.stages[stage:])) + index

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of switchbox stages."""
        return len(self.stages)

    def box(self, stage: int, index: int) -> Switchbox:
        """The switchbox at ``(stage, index)``."""
        return self.stages[stage][index]

    def boxes(self) -> Iterator[Switchbox]:
        """All switchboxes, stage by stage."""
        for stage in self.stages:
            yield from stage

    @property
    def flow_levels(self) -> list[int]:
        """Every flow node's BFS layer over all links, by flow-node id.

        ``s`` is 0, processors 1, ``t`` one more than the nearest
        resource; ``u`` and any node no link path reaches are -1.  Like
        ``wiring.flow_ends`` it is fixed by the wiring (computed on first read,
        once per wiring, reset by :meth:`add_stage` / :meth:`add_link`),
        so on a stage-structured network it is every reachable node's
        BFS level in any lowering, whatever is occupied or failed: the
        paper's request-token layering (Sec. IV, Theorem 4).  Shared:
        read it, never mutate it.
        """
        levels = self.wiring.levels
        if levels is None:
            out: list[list[int]] = [[] for _ in range(self.wiring.n_flow_nodes)]
            ends = self.wiring.flow_ends
            for tail, head in zip(ends[0::2], ends[1::2]):
                out[tail].append(head)
            res0 = FLOW_TERMINALS + self.n_processors
            levels = [-1] * self.wiring.n_flow_nodes
            levels[0] = 0
            levels[FLOW_TERMINALS:res0] = [1] * self.n_processors
            queue = list(range(FLOW_TERMINALS, res0))
            for v in queue:
                for w in out[v]:
                    if levels[w] < 0:
                        levels[w] = levels[v] + 1
                        queue.append(w)
            reached = [lv for lv in levels[res0:res0 + self.n_resources] if lv >= 0]
            levels[1] = min(reached) + 1 if reached else -1
            self.wiring.levels = levels
        return levels

    def flow_layout(self, bypass: bool = False) -> FlowLayout:
        """Transformation 1's flow network as wired (``bypass``: 2's).

        Arcs in :func:`~repro.core.transform.transformation1`'s order: an
        ``s → p`` arc per processor (each followed by ``p → u`` when
        ``bypass``, then ``u → t``), an arc per link in ``links``
        order, an ``r → t`` arc per resource a link enters, in resource
        order — every one at capacity 0.  A lowering copies it and
        writes one cycle's capacities
        (:func:`~repro.core.transform.lower_to_kernel`).  Built on first
        read, once per wiring, reset by :meth:`add_stage` /
        :meth:`add_link` like :attr:`flow_levels`.  Shared: copy it,
        never mutate it.
        """
        layout = self.wiring.layouts.get(bypass)
        if layout is None:
            s, t, u = range(FLOW_TERMINALS)
            procs = range(FLOW_TERMINALS, FLOW_TERMINALS + self.n_processors)
            tails = [v for p in procs for v in ((s, p) if bypass else (s,))]
            heads = [v for p in procs for v in ((p, u) if bypass else (p,))]
            if bypass:
                tails.append(u)
                heads.append(t)
            first_link = 2 * len(tails)
            res0 = procs.stop
            sinks = sorted(
                (head - res0, i) for i, head in enumerate(self.wiring.flow_ends[1::2])
                if res0 <= head < res0 + self.n_resources
            )
            tails += self.wiring.flow_ends[0::2] + [res0 + r for r, _ in sinks]
            heads += self.wiring.flow_ends[1::2] + [t] * len(sinks)
            kernel = FlowKernel(self.wiring.n_flow_nodes)
            kernel.add_arcs(tails, heads, [0] * len(tails))
            layout = self.wiring.layouts[bypass] = FlowLayout(kernel, first_link, sinks)
        return layout

    @property
    def circuits(self) -> list[Circuit]:
        """The active circuits in establish order (a snapshot list)."""
        return list(self._circuits.values())

    def switch_settings(self) -> dict[Switchbox, dict[int, int]]:
        """Every set box's input→output port map, read off the circuits.

        A circuit's consecutive links meet at one box and set it from
        the first link's input port to the second's output port
        (Theorem 1); a box no circuit crosses is absent.  Derived on
        each call: no setting is stored anywhere.
        """
        settings: dict[Switchbox, dict[int, int]] = {}
        for circuit in self._circuits.values():
            links = circuit.links
            for a, b in zip(links, links[1:]):
                _, stage, index, in_port = a.dst
                settings.setdefault(self.stages[stage][index], {})[in_port] = b.src.port
        return settings

    def processor_link(self, p: int) -> Link:
        """The single link leaving processor ``p``."""
        return self._processor_links[p]

    def resource_link(self, r: int) -> Link:
        """The single link entering resource ``r``."""
        return self.links[self.wiring.to_dst[PortRef.resource(r)]]

    def link_from(self, port: PortRef) -> Link | None:
        """Link whose source is ``port`` (None if unwired)."""
        i = self.wiring.from_src.get(port)
        return None if i is None else self.links[i]

    def link_to(self, port: PortRef) -> Link | None:
        """Link whose destination is ``port`` (None if unwired)."""
        i = self.wiring.to_dst.get(port)
        return None if i is None else self.links[i]

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def link_usable(self, link: Link) -> bool:
        """Whether ``link`` can carry a (new) circuit at all.

        A link is unusable when it has failed itself or when either
        switchbox it touches has failed.  Occupancy is a separate,
        orthogonal dimension: an occupied link is *in use*, an unusable
        one is *broken*.
        """
        if link.failed:
            return False
        entered, left = self.wiring.hops[link.index]
        box_at = self._node_box
        if (left := box_at[left]) is not None and left.failed:
            return False
        return (entered := box_at[entered]) is None or not entered.failed

    def open_links(self) -> list[int]:
        """Per link, in ``links`` order, 1 while it is free and
        :meth:`link_usable` (with no box down: not failed itself), else 0."""
        if any(box.failed for stage in self.stages for box in stage):
            down = [box is not None and box.failed for box in self._node_box]
            return [
                0 if link.occupied or link.failed or down[head] or down[tail] else 1
                for link, (head, tail) in zip(self.links, self.wiring.hops)
            ]
        return [0 if link.occupied or link.failed else 1 for link in self.links]

    # ------------------------------------------------------------------
    # Circuit switching
    # ------------------------------------------------------------------
    def establish_circuit(self, links: Sequence[Link]) -> Circuit:
        """Reserve a path: occupy its links, which sets the traversed switches.

        Raises :class:`ValueError` (leaving the network untouched) if
        any link is occupied — a busy switch port is an occupied link —
        the circuit blockages the scheduler must avoid.
        """
        return self.establish_circuits([links])[0]

    def check_paths(self, paths: Sequence[Sequence[Link]]) -> None:
        """Raise :class:`ValueError` unless ``paths`` can be established together.

        Read-only, one pass per path over the hop table: each path is a
        contiguous processor→resource link sequence, every link is free,
        healthy and used by no other path of the batch, and every
        traversed box is healthy.  No port is checked: each port carries
        one link, so a busy port is an occupied or batch-used link.
        Within a path a shape violation is reported before an
        unavailable link, and that before a failed switch.  Cost is
        O(total path length).
        """
        hop_of = self.wiring.hops
        box_at = self._node_box
        box0 = FLOW_TERMINALS + self.n_processors + self.n_resources  # the first box node
        seen: set[int] = set()
        for links in paths:
            if not links:
                raise ValueError("empty path")
            first, last = links[0], links[-1]
            if first.src.kind != "proc":
                raise ValueError(f"path must start at a processor, got {first.src}")
            if last.dst.kind != "res":
                raise ValueError(f"path must end at a resource, got {last.dst}")
            link_error = switch_error = None
            prev = node = None
            for link in links:
                index = link.index
                entered, left = hop_of[index]
                if prev is not None:
                    if node < box0 or left < box0:
                        raise ValueError(
                            f"links {prev.index} and {index} do not meet at a box"
                        )
                    box = box_at[node]
                    if node != left:
                        other = box_at[left]
                        raise ValueError(
                            f"links {prev.index} and {index} meet different boxes "
                            f"({box.stage},{box.index}) vs ({other.stage},{other.index})"
                        )
                    if box.failed:
                        switch_error = switch_error or f"{box} has failed"
                if link.occupied:
                    link_error = link_error or f"link {index} already occupied"
                elif link.failed:
                    link_error = link_error or f"link {index} has failed"
                elif index in seen:
                    link_error = link_error or f"two paths share link {index}"
                seen.add(index)
                prev, node = link, entered
            if link_error or switch_error:
                raise ValueError(link_error or switch_error)

    def establish_circuits(self, paths: Sequence[Sequence[Link]]) -> list[Circuit]:
        """Atomically establish one circuit per path (all-or-nothing).

        :meth:`check_paths` runs before any state is mutated, so a
        :class:`ValueError` on any path leaves the network untouched.
        """
        self.check_paths(paths)
        circuits: list[Circuit] = []
        for links in paths:
            for link in links:
                link.occupied = True
            circuit = Circuit(links[0].src.box, links[-1].dst.box, tuple(links))
            self._circuits[links[0].index] = circuit
            circuits.append(circuit)
        return circuits

    def release_circuit(self, circuit: Circuit) -> None:
        """Tear down a previously established circuit.

        ``circuit`` is normally the object :meth:`establish_circuit`
        returned; an *equal* one (a copy, an unpickled one) releases
        the registered circuit it equals — the links freed are always
        the network's own.
        """
        key = circuit.links[0].index if circuit.links else -1
        active = self._circuits.get(key)
        if active is None or (active is not circuit and active != circuit):
            raise ValueError("circuit not active on this network")
        for link in active.links:
            link.occupied = False
        del self._circuits[key]

    def release_all(self) -> None:
        """Release every circuit."""
        for link in self.links:
            link.occupied = False
        self._circuits.clear()

    # ------------------------------------------------------------------
    # Path search over free capacity
    # ------------------------------------------------------------------
    def free_successors(self, link: Link) -> Iterator[Link]:
        """Free, healthy links that may follow ``link`` on a circuit.

        The links leaving the box ``link`` enters, in port order, if
        that box is healthy.  A busy output port is an occupied link,
        so the link test is the whole port test.
        """
        box = self._node_box[self.wiring.hops[link.index][0]]
        if box is None or box.failed:
            return
        for port in range(box.n_out):
            nxt = self.link_from(PortRef.box_out(box.stage, box.index, port))
            if nxt is not None and not nxt.occupied and not nxt.failed:
                yield nxt

    def find_free_path(self, p: int, r: int) -> list[Link] | None:
        """A free circuit path from processor ``p`` to resource ``r``.

        Depth-first search over free links, skipping failed links and
        boxes; returns ``None`` when ``r`` is
        unreachable (blocked).  This is the *single-request* primitive;
        the optimal scheduler instead reasons over all requests jointly
        via the flow transformations.
        """
        start = self.processor_link(p)
        if start.occupied or start.failed:
            return None
        target = PortRef.resource(r)
        stack: list[list[Link]] = [[start]]
        seen: set[int] = {start.index}
        while stack:
            path = stack.pop()
            last = path[-1]
            if last.dst == target:
                if not last.occupied:
                    return path
                return None
            for nxt in self.free_successors(last):
                if nxt.index in seen:
                    continue
                seen.add(nxt.index)
                stack.append(path + [nxt])
        return None

    def enumerate_free_paths(self, p: int, r: int) -> Iterator[list[Link]]:
        """Yield *every* currently-free circuit path from ``p`` to ``r``.

        Depth-first enumeration respecting link occupancy and faults; exponential in the worst case (redundant-path
        networks), intended for the exhaustive-search oracle and for
        small-instance analysis only.
        """
        start = self.processor_link(p)
        if start.occupied or start.failed:
            return
        target = PortRef.resource(r)

        def walk(path: list[Link]):
            last = path[-1]
            if last.dst == target:
                yield list(path)
                return
            for nxt in self.free_successors(last):
                path.append(nxt)
                yield from walk(path)
                path.pop()

        yield from walk([start])

    def count_paths(self, p: int, r: int) -> int:
        """Number of distinct link-paths from ``p`` to ``r`` ignoring state.

        Structural redundancy metric: 1 for unique-path networks
        (Omega, baseline, cube), >1 for Beneš/Clos/extra-stage
        networks.
        """
        target = PortRef.resource(r)

        def walk(link: Link) -> int:
            if link.dst == target:
                return 1
            if link.dst.kind != "box_in":
                return 0
            stage, box_idx = link.dst.stage, link.dst.box
            box = self.box(stage, box_idx)
            total = 0
            for port in range(box.n_out):
                nxt = self.link_from(PortRef.box_out(stage, box_idx, port))
                if nxt is not None:
                    total += walk(nxt)
            return total

        return walk(self.processor_link(p))

    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of links currently occupied."""
        if not self.links:
            return 0.0
        return sum(link.occupied for link in self.links) / len(self.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultistageNetwork({self.name!r}, {self.n_processors}x{self.n_resources}, "
            f"stages={self.n_stages}, links={len(self.links)})"
        )


def assemble(
    name: str,
    n_processors: int,
    n_resources: int,
    stage_shapes: Sequence[Sequence[tuple[int, int]]],
    boundaries: Sequence[Callable[[int, int], int]],
) -> MultistageNetwork:
    """Build a network from stage shapes and boundary permutations.

    ``boundaries`` has ``len(stage_shapes) + 1`` entries.  Boundary 0
    wires processors to stage-0 inputs; boundary ``k`` wires stage
    ``k-1`` outputs to stage ``k`` inputs; the final boundary wires
    last-stage outputs to resources.  Each boundary function maps a
    global wire index (in box-major port order) to the destination
    global port index; the wire counts on both sides must agree.

    Each boundary is read once, as a table.  Networks with the same
    sizes, shapes and tables share one :class:`Wiring`, whatever their
    names; each gets its own boxes and links.
    """
    if len(boundaries) != len(stage_shapes) + 1:
        raise ValueError(
            f"need {len(stage_shapes) + 1} boundaries, got {len(boundaries)}"
        )
    shapes = tuple(tuple(map(tuple, stage)) for stage in stage_shapes)
    tables = []
    for k, boundary in enumerate(boundaries):
        n_src = n_processors if k == 0 else sum(n_out for _, n_out in shapes[k - 1])
        n_dst = n_resources if k == len(shapes) else sum(n_in for n_in, _ in shapes[k])
        if n_src != n_dst:
            raise ValueError(
                f"boundary {k}: {n_src} source wires vs {n_dst} destination ports"
            )
        tables.append(tuple(map(boundary, range(n_src), repeat(n_src))))
    wiring = _shared_wiring(n_processors, n_resources, shapes, tuple(tables))
    return MultistageNetwork.on_wiring(name, wiring)


@lru_cache(maxsize=WIRING_CACHE_SIZE)
def _shared_wiring(n_processors: int, n_resources: int, shapes: tuple, tables: tuple) -> Wiring:
    """The one wiring of this content: boundary ``k`` wires source ``i`` to
    destination ``tables[k][i]`` by ``add_link``, which rejects a table
    that is no permutation (a port wired twice)."""
    net = MultistageNetwork("", n_processors, n_resources)
    for stage in shapes:
        net.add_stage(stage)
    for k, table in enumerate(tables):
        # Both sides in box-major port order, the order boundaries index.
        if k == 0:
            srcs = [PortRef.processor(i) for i in range(n_processors)]
        else:
            srcs = [
                PortRef.box_out(k - 1, idx, port)
                for idx, box in enumerate(net.stages[k - 1])
                for port in range(box.n_out)
            ]
        if k == len(shapes):
            dsts = [PortRef.resource(i) for i in range(n_resources)]
        else:
            dsts = [
                PortRef.box_in(k, idx, port)
                for idx, box in enumerate(net.stages[k])
                for port in range(box.n_in)
            ]
        for src, j in zip(srcs, table):
            net.add_link(src, dsts[j])
    net.wiring.shared = True
    return net.wiring
