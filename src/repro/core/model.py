"""The MRSIN: a network bound to a resource pool and a request queue.

This is the system model of Section II, items 1–5: circuit switching,
one resource per request, one outstanding transmission per processor,
and the two-phase lifetime of an allocation — *"The circuit between a
processor and a resource can be released once the request has been
transmitted.  The processor can continue to make other requests, while
the resource will be busy until the task is completed."*
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.core.mapping import Mapping
from repro.core.requests import DEFAULT_TYPE, Request, Resource
from repro.networks.switchbox import Switchbox
from repro.networks.topology import Circuit, Link, MultistageNetwork

__all__ = ["FAULT_KINDS", "MRSIN"]

#: The component classes that fail and are repaired (Section II's
#: model: links, switchboxes, resources); see :meth:`MRSIN.set_failed`.
FAULT_KINDS = ("link", "switchbox", "resource")


class MRSIN:
    """A multistage resource sharing interconnection network.

    Parameters
    ----------
    network:
        The physical interconnection network.  Input ports are
        processors; each output port carries one resource.
    resource_types:
        Type of the resource on each output port (defaults to a
        homogeneous pool of :data:`~repro.core.requests.DEFAULT_TYPE`).
    preferences:
        Preference value per resource (defaults to all 1).
    max_priority, max_preference:
        The scales ``ymax`` / ``qmax`` of Transformation 2 (the
        paper's Fig. 5 uses 10 for both).
    """

    def __init__(
        self,
        network: MultistageNetwork,
        *,
        resource_types: Sequence[Hashable] | None = None,
        preferences: Sequence[int] | None = None,
        max_priority: int = 10,
        max_preference: int = 10,
    ) -> None:
        n_res = network.n_resources
        if resource_types is None:
            resource_types = [DEFAULT_TYPE] * n_res
        if preferences is None:
            preferences = [1] * n_res
        if len(resource_types) != n_res or len(preferences) != n_res:
            raise ValueError(
                f"need {n_res} resource types/preferences, got "
                f"{len(resource_types)}/{len(preferences)}"
            )
        if max(preferences, default=1) > max_preference:
            raise ValueError(
                f"preference {max(preferences)} exceeds qmax={max_preference}"
            )
        self.network = network
        self.resources = [
            Resource(i, resource_types[i], preferences[i]) for i in range(n_res)
        ]
        # A resource's type never changes after construction, so the
        # type set admission validates against is computed once.
        self._resource_types = frozenset(resource_types)
        self.max_priority = max_priority
        self.max_preference = max_preference
        self.pending: list[Request] = []
        # resource index -> circuit currently transmitting into it.
        self._transmitting: dict[int, Circuit] = {}
        # Monotonic counter bumped by every mutation of the state the
        # warm-start engine mirrors (circuits, busy flags, faults — not
        # the request queue).  An engine that recorded the epoch while
        # in sync can skip its reconciliation scan when the epoch is
        # unchanged; see KernelFlowEngine in repro.core.incremental.
        self.state_epoch = 0
        # Set by every failure; lets severed_resources() answer
        # "nothing severed" in O(1) between fault events.
        self._fault_dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        """Number of processors (network input ports)."""
        return self.network.n_processors

    @property
    def n_resources(self) -> int:
        """Number of resources (network output ports)."""
        return self.network.n_resources

    @property
    def resource_types(self) -> frozenset[Hashable]:
        """Distinct resource types in the pool (fixed at construction)."""
        return self._resource_types

    @property
    def is_heterogeneous(self) -> bool:
        """More than one resource type present."""
        return len(self._resource_types) > 1

    def free_resources(self, resource_type: Hashable | None = None) -> list[Resource]:
        """Available resources, optionally filtered by type."""
        return [
            res
            for res in self.resources
            if res.available
            and (resource_type is None or res.resource_type == resource_type)
        ]

    def requesting_processors(self) -> set[int]:
        """Processors with at least one pending request."""
        return {req.processor for req in self.pending}

    def transmitting_circuits(self) -> dict[int, Circuit]:
        """Resource index → circuit currently transmitting into it.

        A read-only snapshot of the allocation lifecycle state; the
        incremental flow engine uses it to register committed circuits
        (their held links and the arcs they map to) when it builds or
        rebuilds its persistent network.
        """
        return dict(self._transmitting)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def check_request(self, request: Request) -> None:
        """Raise :class:`ValueError` unless this system can hold ``request``.

        The processor must exist, its type must be in the pool, and its
        priority must be on Transformation 2's scale (``<= max_priority``):
        a request failing any of these could never be scheduled.
        """
        if not 0 <= request.processor < self.n_processors:
            raise ValueError(
                f"processor {request.processor} outside [0, {self.n_processors})"
            )
        if request.resource_type not in self._resource_types:
            raise ValueError(
                f"no resource of type {request.resource_type!r} in this system"
            )
        if request.priority > self.max_priority:
            raise ValueError(
                f"priority {request.priority} exceeds ymax={self.max_priority}"
            )

    def submit(self, request: Request) -> None:
        """Queue a request for the next scheduling cycle.

        Model item 5: a processor transmits one task at a time, so at
        most one request per processor may be *scheduled* per cycle;
        extra requests simply stay queued.  The request must pass
        :meth:`check_request`.
        """
        self.check_request(request)
        self.pending.append(request)

    def submit_many(self, requests: Iterable[Request]) -> None:
        """Queue several requests."""
        for req in requests:
            self.submit(req)

    def schedulable_requests(self) -> list[Request]:
        """At most one pending request per processor, in queue order.

        Also excludes processors whose input link is still occupied by
        an in-flight transmission or is unusable (failed, or entering a
        failed switchbox) — a request from a disconnected processor
        stays queued until the fault is repaired.
        """
        chosen: dict[int, Request] = {}
        for req in self.pending:
            if req.processor in chosen:
                continue
            link = self.network.processor_link(req.processor)
            if link.occupied or not self.network.link_usable(link):
                continue
            chosen[req.processor] = req
        return list(chosen.values())

    # ------------------------------------------------------------------
    # Allocation lifecycle
    # ------------------------------------------------------------------
    def apply_mapping(self, mapping: Mapping) -> list[Circuit]:
        """Realise a mapping: establish circuits, mark resources busy.

        The mapping is validated first; on success each served request
        is removed from the queue and its resource enters the *busy*
        state with an active transmission circuit.  The two halves of
        :meth:`Mapping.validate <repro.core.mapping.Mapping.validate>`
        run in turn — its resource checks, then the atomic
        :meth:`~repro.networks.topology.MultistageNetwork.establish_circuits`,
        whose path check is the link half — so a grant makes one pass
        over its links, and any failure leaves the system untouched.
        """
        mapping.check_resources(self)
        circuits = self.network.establish_circuits(
            [a.path for a in mapping.assignments]
        )
        pending = self.pending  # empty when an allocation service owns the queue
        for a, circuit in zip(mapping.assignments, circuits):
            self.resources[a.resource.index].busy = True
            self._transmitting[a.resource.index] = circuit
            if pending and a.request in pending:
                pending.remove(a.request)
        self.state_epoch += 1
        return circuits

    def complete_transmission(self, resource_index: int) -> None:
        """Release the circuit into a resource; the resource stays busy.

        Model item 5: circuits are held only for the task transmission,
        not for the whole service time.
        """
        circuit = self._transmitting.pop(resource_index, None)
        if circuit is None:
            raise ValueError(f"resource {resource_index} has no transmitting circuit")
        self.network.release_circuit(circuit)
        self.state_epoch += 1

    def complete_service(self, resource_index: int) -> Circuit | None:
        """Mark a resource free again (its task finished).

        Implicitly completes any transmission still in flight; returns
        the circuit torn down, else ``None``.  Bumps ``state_epoch``
        once: the warm engine counts one bump per public mutator call.
        """
        res = self.resources[resource_index]
        if not res.busy:
            raise ValueError(f"resource {resource_index} is not busy")
        circuit = self._transmitting.pop(resource_index, None)
        if circuit is not None:
            self.network.release_circuit(circuit)
        res.busy = False
        self.state_epoch += 1
        return circuit

    def reset(self) -> None:
        """Drop all requests, circuits, busy states, and faults."""
        self.pending.clear()
        self._transmitting.clear()
        self.network.release_all()
        for link in self.network.links:
            link.failed = False
        for box in self.network.boxes():
            box.failed = False
        for res in self.resources:
            res.busy = False
            res.failed = False
        self.state_epoch += 1
        self._fault_dirty = False

    # ------------------------------------------------------------------
    # Fault lifecycle
    # ------------------------------------------------------------------
    # One transition, set_failed, fails or repairs a component of any
    # of the three FAULT_KINDS.  Failing never tears anything down by
    # itself: a circuit crossing a failed link/box (or feeding a failed
    # resource) becomes *severed* and shows up in
    # :meth:`severed_resources`; the owner (the allocation service)
    # decides when to :meth:`revoke` it.

    def set_failed(self, kind: str, target: Any, failed: bool = True) -> bool:
        """Fail one component, or repair it with ``failed=False``.

        ``kind`` is one of :data:`FAULT_KINDS`; ``target`` is a link
        index, a ``(stage, box)`` pair or a resource index to match.  A
        failed component is excluded from all scheduling, and a task a
        failed resource was serving is lost.  Idempotent: returns
        whether the component's state changed, and only a change bumps
        ``state_epoch``.
        """
        component: Link | Switchbox | Resource
        if kind == "link":
            component = self.network.links[target]
        elif kind == "switchbox":
            component = self.network.box(*target)
        elif kind == "resource":
            component = self.resources[target]
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        if component.failed == failed:
            return False
        component.failed = failed
        self.state_epoch += 1
        if failed:
            self._fault_dirty = True
        return True

    def failed_components(self) -> dict[str, list]:
        """Snapshot of everything currently failed."""
        return {
            "links": [link.index for link in self.network.links if link.failed],
            "switchboxes": [
                (box.stage, box.index) for box in self.network.boxes() if box.failed
            ],
            "resources": [res.index for res in self.resources if res.failed],
        }

    def severed_resources(self) -> list[int]:
        """Busy resources whose allocation a fault has broken.

        A resource is *severed* when it failed while serving a task, or
        when its in-flight transmission circuit crosses a failed link
        or switchbox.  Severed allocations must be reclaimed with
        :meth:`revoke` before their links/resources can be reused.

        Severance can only *appear* through a :meth:`set_failed` call
        (circuits are never established across failed components), so
        between fault events this answers from a cached "no faults
        since the last empty scan" flag in O(1) instead of walking every
        transmitting circuit; the full scan keeps running while severed
        allocations linger un-revoked.
        """
        if not self._fault_dirty:
            return []
        severed: set[int] = set()
        usable = self.network.link_usable
        for idx, circuit in self._transmitting.items():
            if self.resources[idx].failed or not all(map(usable, circuit.links)):
                severed.add(idx)
        for res in self.resources:
            if res.failed and res.busy:
                severed.add(res.index)
        if not severed:
            self._fault_dirty = False
        return sorted(severed)

    def revoke(self, resource_index: int) -> Circuit | None:
        """Forcibly reclaim a (severed) allocation.

        The same transition as :meth:`complete_service`: the
        transmitting circuit, if still held, is torn down — the
        surviving links are freed; failed ones stay failed — and the
        resource is marked idle (it remains unavailable while failed).
        Returns the circuit torn down, or ``None`` if transmission had
        already completed.
        """
        return self.complete_service(resource_index)

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of resources currently busy."""
        if not self.resources:
            return 0.0
        return sum(res.busy for res in self.resources) / len(self.resources)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MRSIN({self.network.name!r}, pending={len(self.pending)}, "
            f"free={len(self.free_resources())}/{self.n_resources})"
        )
