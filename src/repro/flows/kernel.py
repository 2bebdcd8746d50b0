"""Flat-array CSR flow kernel — Dinic max flow (the serving hot path)
and primal-dual min-cost flow (the default for priority scheduling).

The paper's Section IV realises Dinic's algorithm in *hardware* because
the per-phase work is regular and array-shaped: token propagation reads
and writes fixed-layout state, never chases pointers.  This module is
the software analogue.  Where :mod:`repro.flows.dinic` walks
:class:`~repro.flows.graph.Arc` objects (attribute loads dominating the
inner loop), :class:`FlowKernel` stores the whole residual network in
flat integer lists:

``head[v]``
    First arc out of node ``v`` (``-1`` when none) — the entry point of
    a per-node singly linked adjacency list.
``next_arc[a]`` / ``to[a]``
    Next arc in the tail node's list / head node of arc ``a``.
``cap[a]``
    *Residual* capacity of directed arc ``a``.  Pushing ``x`` units
    along ``a`` is ``cap[a] -= x; cap[a ^ 1] += x`` — arcs are created
    in **pairs** (forward even, reverse odd) so the reverse arc is
    always ``a ^ 1``; no dictionary, no object, one XOR.
``base[a]``
    The original capacity, so the flow on a forward arc is always
    ``base[a] - cap[a]`` (reverse arcs have ``base == 0``).

Everything is a plain ``int``: PR 4's integral-flow migration (lint
rule R003) guarantees every capacity, lower bound, and flow in the repo
is integer-valued, so the kernel needs no float arithmetic anywhere —
Theorem 2's and Theorem 3's integrality fall out of the
representation.  Min-cost flow adds one more parallel list, ``cost``,
which only :meth:`FlowKernel.min_cost_flow`'s caller builds.

The scheduler's default Table II rows 1–3 and the tick engine copy a
network's wiring-time layout (:meth:`FlowKernel.copy`) and write the
cycle's capacities (:func:`repro.core.transform.lower_to_kernel`); the
fabric's spill tier builds its reduced Clos directly
(:func:`repro.fabric.spill.build_spill_network`).  Rows 1 and 3 and the tick engine solve and read back in
one call, :meth:`FlowKernel.unit_paths`: the network's wiring-time
levels stand in for the first BFS, a value bound for the last, and the
certified augmenting paths for the walk; Theorem 1's unit arcs make
its push the guarded *unit push*.  Row 2 and the spill tier walk
their flows with :meth:`FlowKernel.decompose`.  The object solvers stay
as the teaching implementations and the differential-test oracles:
Dinic for max flow, out-of-kilter (the paper's) and SSP for min cost.
The one other way in, :class:`CompiledNetwork`
(``FlowNetwork.compile()``), lowers an object graph; only a benchmark
stage still times it.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.flows.validate import FlowViolation
from repro.util.counters import OpCounter

if TYPE_CHECKING:  # import cycle: graph.compile() returns CompiledNetwork
    from repro.flows.graph import FlowNetwork

__all__ = ["FlowKernel", "CompiledNetwork"]

Node = Hashable


class FlowKernel:
    """A residual flow network as flat integer arrays.

    Nodes are dense ints ``0..n_nodes-1``; arcs are dense ints created
    in forward/reverse pairs (``a`` even, ``a ^ 1`` its reverse).  The
    only mutable solver state is ``cap`` — callers may read and write
    it directly to enable/disable arcs or freeze flow (the tick engine
    rewrites every arc each cycle; row 3 freezes each type's paths), as
    long as pair symmetry is respected:
    flow on forward arc ``a`` is ``base[a] - cap[a]`` and must equal
    ``cap[a ^ 1]`` minus the reverse base of 0.

    Operation counters (``visits``/``scans``/``augmentations``/
    ``pushes``/``phases``) accumulate across solves as plain ints; the
    caller decides when to charge them to an
    :class:`~repro.util.counters.OpCounter` (one aggregated charge per
    solve instead of one call per node keeps the kernel hot loop free
    of Python-level function calls).
    """

    def __init__(self, n_nodes: int = 0) -> None:
        if n_nodes < 0:
            raise ValueError(f"negative node count {n_nodes}")
        self.n_nodes = n_nodes
        self.head: list[int] = [-1] * n_nodes
        self.next_arc: list[int] = []
        self.to: list[int] = []
        self.cap: list[int] = []
        self.base: list[int] = []
        # Cumulative operation counts (see class docstring).
        self.visits = 0
        self.scans = 0
        self.augmentations = 0
        self.pushes = 0
        self.phases = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        """Number of directed arcs (always even: forward/reverse pairs)."""
        return len(self.to)

    def add_arc(self, tail: int, head: int, capacity: int) -> int:
        """Add a ``tail -> head`` arc pair; returns the forward arc id.

        The reverse arc (id ``^ 1``) starts with zero capacity.  Unlike
        the object graph, self-loops and parallel arcs are accepted —
        the compiler, not the kernel, enforces model rules.
        """
        a = len(self.to)
        self.add_arcs([tail], [head], [capacity])
        return a

    def add_arcs(self, tails: list[int], heads: list[int], caps: list[int]) -> None:
        """:meth:`add_arc` for every ``(tails[i], heads[i], caps[i])``, in order.

        Forward arc ``i`` of the batch gets id ``n_arcs + 2 * i``; the
        resulting arrays are exactly those of one :meth:`add_arc` call
        per arc, built with list slicing instead.
        """
        n = self.n_nodes
        ends = tails + heads
        if ends and (min(caps) < 0 or min(ends) < 0 or max(ends) >= n):
            for tail, head, capacity in zip(tails, heads, caps):  # name the first
                if capacity < 0:
                    raise ValueError(f"negative capacity {capacity} on {tail}->{head}")
                if not (0 <= tail < n and 0 <= head < n):
                    raise ValueError(f"arc {tail}->{head} outside 0..{n - 1}")
        first = len(self.to)
        to = [0] * (2 * len(tails))
        to[0::2], to[1::2] = heads, tails
        self.to = self.to + to  # rebound, not extended: a copy shares it
        # Arc a joins the list of its own tail: tails[i] for forward
        # arc 2i, heads[i] for its reverse.
        owner = [0] * len(to)
        owner[0::2], owner[1::2] = tails, heads
        head, next_arc = self.head, self.next_arc
        for a, v in enumerate(owner, first):
            next_arc.append(head[v])
            head[v] = a
        cap = [0] * len(to)
        cap[0::2] = caps
        self.cap += cap
        self.base = self.base + cap

    def reset(self) -> None:
        """Restore every arc to its base capacity (zero flow)."""
        self.cap[:] = self.base

    def copy(self) -> "FlowKernel":
        """A new kernel with this one's arcs, adjacency and capacities,
        its op counts at 0; solving or extending either leaves the other
        as it was.  ``to`` and ``base``, which no solve writes, are
        shared: :meth:`add_arcs` rebinds both, and a lowering ``base``."""
        twin = FlowKernel(self.n_nodes)
        twin.head[:] = self.head
        twin.next_arc = self.next_arc.copy()
        twin.cap = self.cap.copy()
        twin.to, twin.base = self.to, self.base
        return twin

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def max_flow(
        self,
        source: int,
        sink: int,
        *,
        levels: list[int] | None = None,
        value_bound: int | None = None,
        touched: list[int] | None = None,
        paths_out: list[list[int]] | None = None,
    ) -> int:
        """Augment the current residual state to a maximum s-t flow.

        Runs Dinic phases (BFS level build, then a blocking flow by
        iterative DFS with per-node arc cursors) until the sink is
        unreachable.  Augments *on top of* whatever flow the ``cap``
        arrays already encode — warm starting is just calling this
        again after nudging capacities.  Returns the flow added.

        Four optional hooks, all exact; :meth:`unit_paths` uses every
        one of them:

        ``levels``
            A precomputed level labeling used for the *first* phase in
            place of its BFS (a copy is taken; the caller's list is
            never mutated).  Any labeling is sound: the blocking-flow
            DFS only follows residual arcs that climb exactly one
            level, so every path it pushes is a real augmenting path
            and no cycle can form; phases after the first rebuild
            levels by BFS as usual, so optimality never depends on the
            hint.  On a stage-structured network the wiring-time table
            (:attr:`MultistageNetwork.flow_levels
            <repro.networks.topology.MultistageNetwork.flow_levels>`)
            is every reachable node's BFS level, making the hint exact.
        ``value_bound``
            A known upper bound on the flow this call can add.  When
            the augmented total reaches it the solve stops without the
            terminating everyone-unreachable BFS — reaching a bound
            that caps the max flow is already a certificate of
            optimality.
        ``touched``
            When given, every arc id pushed on (forward or reverse,
            duplicates included) is appended: the only pairs the flow
            delta can sit on.
        ``paths_out``
            When given, each augmenting path is pushed by the *unit
            push* (:meth:`unit_paths`) and appended itself, no copy; a
            path arc whose residual is not exactly 1 raises
            :class:`~repro.flows.validate.FlowViolation`.  With no
            reverse arc in ``touched``, these paths *are* the flow
            delta's decomposition.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        n = self.n_nodes
        head = self.head
        next_arc = self.next_arc
        to = self.to
        cap = self.cap
        total = 0
        visits = scans = augmentations = pushes = 0
        use_hint = levels is not None
        while True:
            if value_bound is not None and total >= value_bound:
                break
            if use_hint and levels is not None:
                use_hint = False
                level = list(levels)
            else:
                # --- BFS: level[v] = layered-network rank over useful arcs.
                level = [-1] * n
                level[source] = 0
                queue = [source]
                for v in queue:
                    visits += 1
                    lv = level[v] + 1
                    a = head[v]
                    while a != -1:
                        scans += 1
                        if cap[a] > 0:
                            w = to[a]
                            if level[w] < 0:
                                level[w] = lv
                                queue.append(w)
                        a = next_arc[a]
                if level[sink] < 0:
                    break
            self.phases += 1
            # --- Blocking flow: iterative DFS with arc cursors.  A
            # node whose moves are exhausted is pruned from the level
            # graph (level[v] = -1), the software mirror of the paper's
            # "marking cleared when a resource token backtracks" rule.
            cursor = list(head)
            path: list[int] = []
            v = source
            while True:
                if v == sink:
                    augmentations += 1
                    pushes += len(path)
                    if touched is not None:
                        touched += path
                    if paths_out is not None:
                        # The push below on residual-1 arcs (reverses at
                        # 0): all saturate, so the retreat lands on source.
                        for a in path:
                            if cap[a] != 1:
                                raise FlowViolation(
                                    f"augmenting path arc {a} has residual {cap[a]}, "
                                    "not 1: recorded paths need unit arcs"
                                )
                            cap[a] = 0
                            cap[a ^ 1] = 1
                        total += 1
                        paths_out.append(path)
                        path = []
                        v = source
                        continue
                    aug = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= aug
                        cap[a ^ 1] += aug
                    total += aug
                    # Retreat to the tail of the first saturated arc.
                    for i, a in enumerate(path):  # pragma: no branch
                        if cap[a] == 0:
                            del path[i:]
                            v = to[a ^ 1]
                            break
                    continue
                visits += 1
                a = cursor[v]
                lv = level[v] + 1
                while a != -1:
                    scans += 1
                    if cap[a] > 0 and level[to[a]] == lv:
                        break
                    a = next_arc[a]
                cursor[v] = a
                if a != -1:
                    path.append(a)
                    v = to[a]
                    continue
                if v == source:
                    break
                level[v] = -1  # dead end: prune for the rest of the phase
                back = path.pop()
                v = to[back ^ 1]
        self.visits += visits
        self.scans += scans
        self.augmentations += augmentations
        self.pushes += pushes
        return total

    # ------------------------------------------------------------------
    # Min-cost flow (primal-dual successive shortest paths)
    # ------------------------------------------------------------------
    def min_cost_flow(
        self, source: int, sink: int, cost: list[int], target: int
    ) -> tuple[int, int]:
        """Push up to ``target`` units at minimum cost; ``(value, cost)``.

        ``cost`` runs parallel to ``cap``: ``cost[a] >= 0`` per unit on
        forward arc ``a``, ``cost[a ^ 1] == -cost[a]`` on its reverse.
        The kernel must hold a zero flow (zero potentials are then
        feasible).  ``value < target`` means no more fits.

        Successive shortest paths in primal-dual form.  Each round (a
        ``phase``) runs label-setting shortest paths from ``source`` on
        the reduced costs ``cost[a] + pi[tail] - pi[head]``, frontier in
        buckets keyed by integer distance, and stops once the sink's
        distance is final.  Every settled node's potential then drops
        by how far short of the sink it lies, which keeps residual
        reduced costs non-negative and zeroes them along every
        shortest path; a blocking flow over the zero-reduced-cost arcs
        follows, by :meth:`max_flow`'s cursor DFS, each unit costing
        ``pi[sink] - pi[source]``.  Two equally cheap routes make a
        zero-cost residual cycle, so where ``max_flow`` has levels this
        DFS bars the nodes on its path and its dead ends: an arc passed
        over for that can cost an extra round, never exactness, and a
        round's first descent is a plain DFS, so it finds the path the
        labels just proved — every round pushes at least one unit.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        n = self.n_nodes
        head = self.head
        next_arc = self.next_arc
        to = self.to
        cap = self.cap
        pi = [0] * n
        # No simple path costs more, and a reduced distance never
        # exceeds the true one (the source's potential is the lowest).
        unreached = sum(cost[::2]) + 1
        value = total_cost = 0
        visits = scans = augmentations = pushes = 0
        while value < target:
            # --- Shortest paths.  ``reach`` is the sink's tentative
            # distance: final once no bucket is nearer.
            dist = [unreached] * n
            dist[source] = 0
            reach = unreached
            settled: list[int] = []
            buckets = {0: [source]}
            while buckets:
                d = min(buckets)
                if d >= reach:
                    break
                for v in buckets[d]:  # grows as zero-cost arcs file into it
                    if dist[v] != d:
                        continue  # settled nearer since it was filed here
                    visits += 1
                    settled.append(v)
                    shift = pi[v] + d
                    a = head[v]
                    while a != -1:
                        scans += 1
                        if cap[a] > 0:
                            w = to[a]
                            cand = cost[a] + shift - pi[w]
                            if cand < dist[w] and cand < reach:
                                dist[w] = cand
                                if w == sink:
                                    reach = cand
                                elif cand in buckets:
                                    buckets[cand].append(w)
                                else:
                                    buckets[cand] = [w]
                        a = next_arc[a]
                del buckets[d]
            if reach == unreached:
                break
            self.phases += 1
            for v in settled:
                pi[v] += dist[v] - reach
            # --- Blocking flow over the zero-reduced-cost arcs.
            before = value
            cursor = list(head)
            barred = [False] * n
            barred[source] = True
            path: list[int] = []
            v = source
            while True:
                if v == sink:
                    aug = min(min(cap[a] for a in path), target - value)
                    for a in path:
                        cap[a] -= aug
                        cap[a ^ 1] += aug
                    value += aug
                    augmentations += 1
                    pushes += len(path)
                    if value == target:
                        break
                    # Retreat to the tail of the first saturated arc.
                    for i, a in enumerate(path):  # pragma: no branch
                        if cap[a] == 0:
                            for b in path[i:]:
                                barred[to[b]] = False  # off the path again
                            del path[i:]
                            v = to[a ^ 1]
                            break
                    continue
                visits += 1
                a = cursor[v]
                tight = pi[v]
                while a != -1:
                    scans += 1
                    if cap[a] > 0:
                        w = to[a]
                        if cost[a] + tight == pi[w] and not barred[w]:
                            break
                    a = next_arc[a]
                cursor[v] = a
                if a != -1:
                    path.append(a)
                    v = to[a]
                    barred[v] = True
                    continue
                if v == source:
                    break
                back = path.pop()  # dead end: stays barred this round
                v = to[back ^ 1]
            total_cost += (value - before) * (pi[sink] - pi[source])
        self.visits += visits
        self.scans += scans
        self.augmentations += augmentations
        self.pushes += pushes
        return value, total_cost

    # ------------------------------------------------------------------
    # Path decomposition (Theorem 2 in reverse)
    # ------------------------------------------------------------------
    def decompose(self, source: int, sink: int, arcs: Iterable[int]) -> list[list[int]]:
        """Decompose the flow on forward ``arcs`` into s-t paths of arc ids.

        The walk of ``FlowNetwork.decompose_paths`` on the arrays: the
        flow on forward arc ``a`` is ``cap[a ^ 1]``, each node leaves by
        its first forward arc with flow left in the order ``arcs`` lists
        them (ascending ids gives the object walk's order) — ``source``
        by its arcs in the order they were linked into its adjacency
        list, which is ascending ids unless a lowering relinked it —
        and a revisited node cuts the enclosed cycle out of the path.  Flow no
        s-t path uses (cut cycles, components the walk never reaches)
        is cancelled in place so it cannot read as stale flow later.

        Raises :class:`~repro.flows.validate.FlowViolation` — a real
        raise that survives ``python -O`` — when a walk runs out of flow
        before the sink: the arrays violate conservation.
        """
        cap = self.cap
        to = self.to
        flowing = [a for a in arcs if cap[a ^ 1]]
        # Per arc, the units not yet walked; per node, the arcs it still
        # has flow on, the next one to take last (lists beat dicts here).
        avail = [0] * len(cap)
        for a in flowing:
            avail[a] = cap[a ^ 1]
        out: list[list[int] | None] = [None] * self.n_nodes
        for a in reversed(flowing):
            v = to[a ^ 1]
            outs = out[v]
            if outs is None:
                out[v] = [a]
            else:
                outs.append(a)
        # The list runs latest-linked first; taken from its end, earliest first.
        firsts = []
        a = self.head[source]
        while a != -1:
            if avail[a]:
                firsts.append(a)
            a = self.next_arc[a]
        out[source] = firsts
        paths: list[list[int]] = []
        cut_arcs: list[int] = []
        while firsts:
            path: list[int] = []
            on_path = {source: 0}
            v = source
            while v != sink:
                outs = out[v]
                if not outs:
                    raise FlowViolation(
                        f"flow decomposition ran out of flow at node {v}: "
                        "the kernel arrays violate conservation"
                    )
                a = outs[-1]
                avail[a] -= 1
                if not avail[a]:
                    outs.pop()
                v = to[a]
                pos = on_path.get(v)
                if pos is None:
                    path.append(a)
                    on_path[v] = len(path)
                else:
                    # Cycle: cut it out of the path; its units are
                    # cancelled below, exactly like decompose_paths.
                    cut_arcs += path[pos:]
                    cut_arcs.append(a)
                    for b in path[pos:]:
                        del on_path[to[b]]
                    del path[pos:]
            paths.append(path)
        for a in cut_arcs:
            cap[a] += 1
            cap[a ^ 1] -= 1
        for a in flowing:
            left = avail[a]
            if left:
                cap[a] += left
                cap[a ^ 1] -= left
        return paths

    def unit_paths(
        self, source: int, sink: int, *, levels: list[int], value_bound: int
    ) -> list[list[int]]:
        """:meth:`max_flow` by the unit push; its new units as s-t arc paths.

        Theorem 1 makes every arc of Transformation 1's network a unit
        arc, so a path saturates every arc it crosses: the *unit push*
        sets each to 0 and its reverse to 1, with no ``min`` and no
        retreat, and starts again from ``source``, as the paper's
        resource token does once a path registers.  Its guard makes the
        theorem a checked precondition: a path arc whose residual is
        not exactly 1 raises :class:`~repro.flows.validate.FlowViolation`.

        The kernel must hold no unfrozen flow (no reverse residual).
        The solve takes ``levels`` as its first phase and stops at
        ``value_bound``.  When that one blocking flow is all it ran,
        every push climbed a level, so no reverse arc was pushed and no
        unit cancelled or rerouted: the augmenting paths are the flow
        delta's decomposition, and in the order their source arcs were
        linked they are what :meth:`decompose` walks (the DFS and the
        walk pair each node's in-units with its out-arcs in linking
        order, read from opposite ends).  After a second phase the
        touched pairs are walked.

        The shortcut carries the walk's guard, as a certificate: every
        path arc is a forward arc carrying exactly one unit, the paths
        are arc-disjoint and, end to end, exactly the touched arcs, and
        each leaves ``source`` and ends on an arc into ``sink``.  A
        failed leg, or a unit count other than the solve's value,
        raises :class:`~repro.flows.validate.FlowViolation`, which
        survives ``python -O``.
        """
        touched: list[int] = []
        paths: list[list[int]] = []
        phases = self.phases
        value = self.max_flow(
            source, sink, levels=levels, value_bound=value_bound,
            touched=touched, paths_out=paths,
        )
        if self.phases - phases > 1:
            paths = self.decompose(source, sink, sorted({a & -2 for a in touched}))
        else:
            # A service tick runs this over every arc it grants, so it is
            # plain loops and C-level compares.  a | 1 is a forward
            # arc's reverse, at 1 while the arc carries its unit, and a
            # reverse arc itself, which a push leaves at 0.
            cap, to = self.cap, self.to
            for a in touched:
                if cap[a | 1] != 1:
                    raise FlowViolation(
                        "an augmenting path arc does not carry exactly one unit: "
                        "the kernel arrays violate conservation"
                    )
            if len(set(touched)) != len(touched) or list(chain.from_iterable(paths)) != touched:
                raise FlowViolation(
                    "the augmenting paths are not arc-disjoint or do not cover "
                    "exactly the touched arcs"
                )
            for path in paths:
                if to[path[0] ^ 1] != source or to[path[-1]] != sink:
                    raise FlowViolation("an augmenting path does not run from source to sink")
            # The source's cursor only advances and each path left by its
            # own arc, so they came latest-linked first: reversed, the walk's.
            paths.reverse()
        if len(paths) != value:
            raise FlowViolation(f"a flow of value {value} decomposed into {len(paths)} units")
        return paths

    def charge(self, counter: OpCounter | None, baseline: tuple[int, int, int, int]) -> None:
        """Charge op-count deltas since ``baseline`` to ``counter``.

        ``baseline`` is a :meth:`snapshot` taken before the solve; the
        keys match the object solvers' cost model so
        ``instructions_per_allocation`` stays comparable.
        """
        if counter is None:
            return
        v0, s0, a0, p0 = baseline
        counter.charge("node_visit", self.visits - v0)
        counter.charge("arc_scan", self.scans - s0)
        counter.charge("augmentation", self.augmentations - a0)
        counter.charge("arc_update", self.pushes - p0)

    def snapshot(self) -> tuple[int, int, int, int]:
        """Current op counts, for delta charging around one solve."""
        return (self.visits, self.scans, self.augmentations, self.pushes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowKernel(|V|={self.n_nodes}, |E|={self.n_arcs // 2} pairs)"


class CompiledNetwork:
    """A :class:`~repro.flows.graph.FlowNetwork` lowered to a kernel.

    Built by :meth:`FlowNetwork.compile()
    <repro.flows.graph.FlowNetwork.compile>`; its one remaining caller
    is ``bench/``'s cold compile-and-solve stage
    (``flows.kernel_compile_ms`` / ``flows.kernel_solve_us``), and both
    leave together.  The lowering is positional: object arc ``k``
    becomes kernel arc pair ``2 * k``; nodes get dense ids in
    insertion order (``node_of``).

    The kernel knows no lower bounds, so an arc with ``lower > 0`` is
    rejected at compile time with a ``ValueError`` naming it rather
    than solved as if the bound were 0.
    """

    def __init__(self, net: "FlowNetwork") -> None:
        self.net = net
        self.node_of = node_of = {node: v for v, node in enumerate(net.nodes)}
        for arc in net.arcs:
            if arc.lower > 0:
                raise ValueError(
                    f"cannot compile {arc!r}: lower bound {arc.lower} > 0, "
                    f"and the kernel solves without lower bounds"
                )
        self.kernel = FlowKernel(len(node_of))
        self.kernel.add_arcs(
            [node_of[arc.tail] for arc in net.arcs],
            [node_of[arc.head] for arc in net.arcs],
            [arc.capacity for arc in net.arcs],
        )

    def solve(self, source: Node, sink: Node) -> int:
        """Max flow from ``source`` to ``sink``; flows land on ``Arc.flow``.

        Seeds the kernel from the network's current ``Arc.flow`` and
        augments on top of it, like the object solvers; returns the
        flow value.  A flow outside ``[0, capacity]`` is a
        ``ValueError``, never a wrong residual network.  A missing
        terminal, or ``source == sink``, admits no flow: value 0.
        """
        net = self.net
        if source == sink or source not in self.node_of or sink not in self.node_of:
            return 0
        kernel = self.kernel
        cap = kernel.cap
        for k, arc in enumerate(net.arcs):
            flow = arc.flow
            if flow < 0 or flow > arc.capacity:
                raise ValueError(
                    f"flow {flow} outside [0, {arc.capacity}] on "
                    f"{arc!r}; cannot seed the kernel from an illegal flow"
                )
            cap[2 * k] = arc.capacity - flow
            cap[2 * k + 1] = flow
        kernel.max_flow(self.node_of[source], self.node_of[sink])
        for k, arc in enumerate(net.arcs):
            arc.flow = cap[2 * k + 1]
        return net.flow_value(source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledNetwork({self.kernel!r})"
