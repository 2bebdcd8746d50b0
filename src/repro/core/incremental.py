"""Warm-start incremental flow engine for per-tick scheduling.

The paper's distributed architecture re-runs Dinic *on top of the flow
left by previous scheduling iterations*, yet the cold scheduling path
rebuilds the whole Transformation-1 network from scratch every cycle.
Under sustained load — many short-lived allocations against a slowly
changing network — that O(V+E) rebuild dominates steady-state cost.

:class:`KernelFlowEngine` keeps **one persistent Transformation-1
network per service**, lowered once per build straight onto the
flat-array :class:`~repro.flows.kernel.FlowKernel` by the same
:func:`~repro.core.transform.lower_to_kernel` the cold default uses (no
object graph in between), and evolves it with the system:

- every physical link is materialised once as a unit arc (occupied
  links as capacity-0 arcs), every processor gets a permanent
  ``s → (p, i)`` arc and every resource a permanent ``(r, j) → t`` arc;
- a scheduling cycle *enables* the source arcs of the batch
  (capacity 1), runs Dinic from the standing flow — usually 0–2 phases
  instead of a full solve — and reads the new allocations off the flow
  *delta* (the units not yet frozen);
- committing a mapping **freezes** its unit paths so later solves can
  neither reroute nor cancel a held circuit;
- ``release``/``end_transmission`` *retract* the released circuit's
  unit of flow along its recorded arc path in O(path length), instead
  of discarding the network.

Fallback-to-cold rules: the engine never trusts itself blindly.
Whenever the MRSIN's state epoch moved by anything but the engine's own
paired mutations, the next cycle cross-checks every persistent arc
against the physical occupancy it mirrors (an O(E) scan of plain
attribute reads — far cheaper than a rebuild); any *flow* divergence
(state mutated behind the engine's back, a circuit it never saw
released, a failed apply) rebuilds from the live MRSIN.  Pure
*capacity* deltas — a link or switchbox failing or being repaired, a
resource failing or coming back — are absorbed in place by the same
scan (the arc's capacity is simply rewritten to mirror the physical
state), so fault churn never forces a cold rebuild on its own.  A
rebuild re-registers in-flight circuits from
:meth:`~repro.core.model.MRSIN.transmitting_circuits`, so even a
rebuilt network stays warm.

Because frozen arcs are exactly the arcs a cold Transformation-1 build
would omit, the maximum *additional* flow on the persistent network
equals the cold network's maximum flow — warm-start scheduling
allocates exactly as many requests per cycle as a from-scratch
:meth:`OptimalScheduler.schedule
<repro.core.scheduler.OptimalScheduler.schedule>` (the differential
tests pin this down every tick).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.mapping import Mapping
from repro.core.model import MRSIN
from repro.core.requests import Request, Resource
from repro.core.transform import kernel_mapping, lower_to_kernel
from repro.flows.kernel import FlowKernel
from repro.networks.topology import Link
from repro.util.counters import OpCounter

__all__ = ["KernelFlowEngine"]


class KernelFlowEngine:
    """A persistent Transformation-1 network warm-started across cycles.

    Parameters
    ----------
    mrsin:
        The system whose scheduling cycles this engine serves.  The
        engine mirrors — never owns — its link/resource state.
    counter:
        Optional :class:`~repro.util.counters.OpCounter` charged with
        the solver operations of each warm solve (same cost model as
        the cold path).

    The engine only understands the homogeneous discipline
    (Transformation 1 / max flow).  Priority or heterogeneous cycles
    must be solved cold; feed their applied mappings back through
    :meth:`commit` so the persistent flow keeps tracking the physical
    circuits (:meth:`OptimalScheduler.schedule_incremental
    <repro.core.scheduler.OptimalScheduler.schedule_incremental>` does
    both).

    Hot-path representation:

    - the persistent network is **lowered once** per build onto a
      :class:`~repro.flows.kernel.FlowKernel`; every per-tick operation
      (enable/disable source arcs, solve, extract the flow delta,
      freeze, retract) runs on flat int arrays.  Solve and extraction
      are one call, :meth:`FlowKernel.unit_paths
      <repro.flows.kernel.FlowKernel.unit_paths>` — the routine cold
      Table II row 1 runs too — with the network's wiring-time
      :attr:`~repro.networks.topology.MultistageNetwork.flow_levels` as
      its first phase and the enabled source arcs as its value bound.
      A unit arc pair
      ``(a, a ^ 1)`` encodes the arc lifecycle directly: ``(1, 0)``
      free, ``(0, 1)`` carrying uncommitted flow, ``(0, 0)`` frozen
      (committed circuit, tracked in ``_frozen``) or disabled;
    - the O(links + resources) reconciliation scan is skipped entirely
      when :attr:`MRSIN.state_epoch <repro.core.model.MRSIN>` still
      equals the epoch recorded at the last sync.  The engine's own
      mutators re-adopt the epoch only when it advanced by exactly the
      bumps their paired MRSIN call produces; any other movement leaves
      the epoch stale and the next cycle scans (the always-safe
      fallback).  Consequently :meth:`commit` /
      :meth:`note_transmission_end` / :meth:`note_release` must be
      called *immediately after* their MRSIN counterpart
      (``apply_mapping`` / ``complete_transmission`` /
      ``complete_service``/``revoke``), with no interleaved mutations.
      State mutated behind the MRSIN API (e.g. directly on the network)
      requires :meth:`invalidate`.

    Statistics: ``builds`` counts cold (re)builds of the persistent
    network, ``warm_ticks`` the cycles scheduled on it, and
    ``last_new_flow`` the allocations found by the latest solve.
    """

    def __init__(self, mrsin: MRSIN, *, counter: OpCounter | None = None) -> None:
        self.mrsin = mrsin
        self.counter = counter
        self.builds = 0
        self.warm_ticks = 0
        self.last_new_flow = 0
        self._kernel: FlowKernel | None = None
        self._s = -1
        self._t = -1
        # processor / resource index <-> kernel forward-arc id (always
        # even; the reverse arc is id ^ 1).
        self._src_pair: dict[int, int] = {}
        self._sink_pair: dict[int, int] = {}
        self._proc_of_arc: dict[int, int] = {}
        self._arc_of_link: dict[int, int] = {}
        # kernel arc id -> the link it mirrors (None for S/T arcs).
        self._link_of_arc: list[Link | None] = []
        # (physical object, kernel arc) pairs for the reconciliation scan.
        self._link_tuples: list[tuple[Link, int]] = []
        self._res_tuples: list[tuple[Resource, int]] = []
        # resource index -> frozen kernel arc path of its circuit.
        self._circuit_arcs: dict[int, list[int]] = {}
        # Flag per kernel arc: set on forward arcs whose (0, 0) pair
        # means one committed unit, not "disabled" — the scan needs the
        # distinction.
        self._frozen = bytearray()
        self._enabled: set[int] = set()
        self._request_of: dict[int, Request] = {}
        self._pending: list[tuple[int, list[int]]] | None = None
        self._pending_mapping: Mapping | None = None
        self._dirty = True
        self._synced_epoch = -1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, requests: Sequence[Request]) -> Mapping:
        """One warm scheduling cycle: returns the optimal new mapping.

        Enables the batch's source arcs, augments Dinic from the
        standing flow, and extracts the flow delta as assignments.  The
        mapping is *pending* until :meth:`commit`; scheduling again
        first rolls the uncommitted flow back.
        """
        reqs = list(requests)
        procs = [r.processor for r in reqs]
        if len(set(procs)) != len(procs):
            raise ValueError("at most one request per processor per cycle (model item 5)")
        self._rollback_pending()
        if self._kernel is None or self._dirty:
            self._build()
        elif self.mrsin.state_epoch != self._synced_epoch:
            if self._scan():
                self._synced_epoch = self.mrsin.state_epoch
            else:
                self._build()
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError(
                "kernel engine invariant broken: _build() left no kernel behind"
            )
        cap = kernel.cap
        frozen = self._frozen
        self._request_of.clear()
        wanted: set[int] = set()
        for req in reqs:
            a = self._src_pair[req.processor]
            if frozen[a]:
                raise ValueError(
                    f"processor {req.processor} still holds a transmitting circuit"
                )
            wanted.add(req.processor)
            self._request_of[req.processor] = req
        for p in self._enabled - wanted:
            a = self._src_pair[p]
            if not frozen[a]:
                cap[a] = 0
        for p in wanted:
            cap[self._src_pair[p]] = 1
        self._enabled = wanted
        baseline = kernel.snapshot()
        # Between solves every held unit is a frozen (0, 0) pair and no
        # other pair carries flow: the wiring-time levels are a sound
        # (here: exact) first phase, and the new units are the paths.
        paths = kernel.unit_paths(
            self._s, self._t, levels=self.mrsin.network.flow_levels, value_bound=len(wanted)
        )
        kernel.charge(self.counter, baseline)
        mapping = kernel_mapping(paths, self._link_of_arc, self._request_of, self.mrsin)
        self._pending = [(asg.resource.index, path) for asg, path in zip(mapping, paths)]
        self._pending_mapping = mapping
        self.last_new_flow = len(paths)
        self.warm_ticks += 1
        return mapping

    def commit(self, mapping: Mapping) -> None:
        """Record ``mapping`` as applied (circuits now live on the MRSIN).

        The engine's own pending mapping is frozen in place along each
        unit path.  Any *other* mapping — a cold priority or
        heterogeneous solve — is forced onto the persistent network
        through the link → arc index; if its paths cannot be reconciled
        with the standing flow the engine marks itself dirty and the
        next cycle rebuilds.

        Call directly after :meth:`MRSIN.apply_mapping
        <repro.core.model.MRSIN.apply_mapping>` succeeded (no
        interleaved MRSIN mutations — see the class docstring).
        """
        kernel = self._kernel
        if kernel is None:
            return
        cap = kernel.cap
        if mapping is self._pending_mapping:
            if self._pending is None:
                raise RuntimeError(
                    "kernel engine invariant broken: a pending mapping was "
                    "recorded without its pending flow paths"
                )
            for res, arcs in self._pending:
                self._freeze(arcs)
                self._circuit_arcs[res] = arcs
            self._pending = None
            self._pending_mapping = None
            self._adopt_epoch(1)
            return
        self._rollback_pending()
        for asg in mapping.assignments:
            arcs = self._path_arcs(asg.request.processor, asg.path, asg.resource.index)
            if arcs is None or any(self._frozen[a] or cap[a ^ 1] for a in arcs):
                self._dirty = True
                return
            self._freeze(arcs)
            self._circuit_arcs[asg.resource.index] = arcs
        self._adopt_epoch(1)

    # ------------------------------------------------------------------
    # Release lifecycle
    # ------------------------------------------------------------------
    def note_transmission_end(self, resource: int) -> None:
        """The circuit into ``resource`` was torn down; it stays busy.

        Retracts the recorded unit of flow along the circuit's arcs
        (freeing the links for future solves) and closes the resource's
        sink arc until the task completes.  Call directly after
        ``MRSIN.complete_transmission``.
        """
        kernel = self._kernel
        if kernel is None:
            return
        arcs = self._circuit_arcs.pop(resource, None)
        if arcs is None:
            self._dirty = True  # a circuit the engine never registered
            return
        self._retract(arcs)
        kernel.cap[self._sink_pair[resource]] = 0
        self._adopt_epoch(1)

    def note_release(self, resource: int) -> None:
        """``resource`` finished service (or was revoked): free it.

        Retracts the circuit's flow if one was still held.  A failed
        resource stays closed (capacity 0) until the reconciliation
        scan sees it repaired.  Call directly after
        ``MRSIN.complete_service`` / ``MRSIN.revoke``.
        """
        kernel = self._kernel
        if kernel is None:
            return
        arcs = self._circuit_arcs.pop(resource, None)
        if arcs is not None:
            self._retract(arcs)
        a = self._sink_pair.get(resource)
        if a is None:
            return
        cap = kernel.cap
        if self._frozen[a] or cap[a ^ 1]:
            self._dirty = True  # an unregistered circuit is still parked here
            return
        cap[a] = 0 if self.mrsin.resources[resource].failed else 1
        self._adopt_epoch(1)

    def invalidate(self) -> None:
        """Force a cold rebuild on the next scheduling cycle."""
        self._dirty = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Cold build of the persistent network from the live MRSIN.

        Source arcs start closed, link and sink arcs mirror the current
        occupied/busy/failed state (:func:`lower_to_kernel
        <repro.core.transform.lower_to_kernel>`'s persistent mode).
        """
        mrsin = self.mrsin
        lowered = lower_to_kernel(mrsin, persistent=True)
        kernel = self._kernel = lowered.kernel
        self._s, self._t = lowered.source, lowered.sink
        self._src_pair = lowered.source_arc
        self._sink_pair = lowered.sink_arc
        self._proc_of_arc = {a: p for p, a in self._src_pair.items()}
        self._link_of_arc = lowered.link_of_arc
        self._arc_of_link = {
            link.index: a for a, link in enumerate(self._link_of_arc) if link is not None
        }
        self._link_tuples = [
            (link, self._arc_of_link[link.index]) for link in mrsin.network.links
        ]
        self._res_tuples = [(mrsin.resources[r], a) for r, a in self._sink_pair.items()]
        self._circuit_arcs = {}
        self._frozen = bytearray(kernel.n_arcs)
        self._enabled = set()
        self._request_of = {}
        self._pending = None
        self._pending_mapping = None
        # Promote in-flight circuits to frozen unit flows (their arcs
        # compiled to (0, 0) already — occupied links and busy sinks are
        # capacity 0 in the persistent build).
        for res, circuit in mrsin.transmitting_circuits().items():
            arcs = self._path_arcs(circuit.processor, circuit.links, res)
            if arcs is None:
                continue
            self._freeze(arcs)
            self._circuit_arcs[res] = arcs
        self._dirty = False
        self._synced_epoch = mrsin.state_epoch
        self.builds += 1

    def _scan(self) -> bool:
        """Reconcile kernel arcs with the physical state (the epoch
        moved): absorbs capacity deltas in place, returns False on flow
        divergence — the module docstring's fallback-to-cold rules."""
        kernel = self._kernel
        if kernel is None:
            return False
        cap = kernel.cap
        frozen = self._frozen
        # The same test the build's capacities came from
        # (lower_to_kernel): a link is down with either adjacent box.
        link_usable = self.mrsin.network.link_usable
        for link, a in self._link_tuples:
            if link.occupied:
                if cap[a] or cap[a ^ 1]:
                    return False
            else:
                if frozen[a] or cap[a ^ 1]:
                    return False
                cap[a] = 1 if link_usable(link) else 0
        for res, a in self._res_tuples:
            if res.busy:
                if cap[a] or cap[a ^ 1]:
                    return False
            else:
                if frozen[a] or cap[a ^ 1]:
                    return False
                cap[a] = 0 if res.failed else 1
        return True

    def _adopt_epoch(self, expected: int) -> None:
        """Stay on the epoch fast path only when the MRSIN moved by
        *exactly* the bumps our paired mutator produces (or not at all
        — the paired call was skipped).  Any other movement means a
        foreign mutation slipped in; the recorded epoch is left stale
        so the next cycle runs the reconciliation scan."""
        delta = self.mrsin.state_epoch - self._synced_epoch
        if delta == 0 or delta == expected:
            self._synced_epoch = self.mrsin.state_epoch

    def _path_arcs(
        self, processor: int, links: Sequence[Link], resource: int
    ) -> list[int] | None:
        """The kernel arc path (source, links, sink) of a circuit."""
        src = self._src_pair.get(processor)
        dst = self._sink_pair.get(resource)
        if self._kernel is None or src is None or dst is None:
            return None
        arcs = [src]
        for link in links:
            a = self._arc_of_link.get(link.index)
            if a is None:
                return None
            arcs.append(a)
        arcs.append(dst)
        return arcs

    def _freeze(self, arcs: list[int]) -> None:
        """Commit one unit of flow along a circuit's arcs."""
        kernel = self._kernel
        if kernel is None:
            return
        cap, frozen = kernel.cap, self._frozen
        for a in arcs:
            cap[a] = 0
            cap[a ^ 1] = 0
            frozen[a] = 1

    def _retract(self, arcs: list[int]) -> None:
        """Remove one committed unit of flow along a circuit's arcs."""
        kernel = self._kernel
        if kernel is None:
            return
        cap, frozen = kernel.cap, self._frozen
        for a in arcs:
            frozen[a] = 0
            cap[a] = 1
            cap[a ^ 1] = 0
        src = arcs[0]  # s -> (p, i): closed until the processor requests again
        cap[src] = 0
        self._enabled.discard(self._proc_of_arc[src])

    def _rollback_pending(self) -> None:
        """Drop un-committed flow from a solve whose mapping went unused."""
        kernel = self._kernel
        if self._pending and kernel is not None:
            cap = kernel.cap
            for _res, arcs in self._pending:
                for a in arcs:
                    cap[a] = 1
                    cap[a ^ 1] = 0
        self._pending = None
        self._pending_mapping = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kernel = self._kernel
        state = "empty" if kernel is None else f"|E|={kernel.n_arcs // 2} pairs"
        return (
            f"KernelFlowEngine({self.mrsin.network.name!r}, {state}, "
            f"builds={self.builds}, warm_ticks={self.warm_ticks})"
        )
