"""Workload generation: random scheduling instances for the experiments.

A scheduling instance is one snapshot handed to a scheduler: which
processors request, which resources are free, what is already occupied
in the network.  :class:`WorkloadSpec` captures the paper's knobs —
request/free densities, prior occupancy, priorities, resource type
mixes — and :func:`sample_instance` draws a concrete
:class:`~repro.core.model.MRSIN` state from it.

:func:`build_mrsin` (types, preferences, background circuits) and
:func:`draw_request` (a request's type, then its priority) are the one
system builder and request draw; ``run_service`` calls both too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.mapping import Assignment, Mapping
from repro.core.model import MRSIN
from repro.core.requests import DEFAULT_TYPE, Request
from repro.networks.topology import MultistageNetwork
from repro.util.rng import make_rng

__all__ = [
    "WorkloadSpec",
    "build_mrsin",
    "draw_request",
    "sample_instance",
    "occupy_random_circuits",
]

#: Random (processor, resource) draws before occupancy gives up.
MAX_OCCUPY_ATTEMPTS = 200


def occupy_random_circuits(
    net: MultistageNetwork,
    mrsin: MRSIN,
    n_circuits: int,
    rng: np.random.Generator,
) -> int:
    """Establish up to ``n_circuits`` random processor→resource circuits.

    Models the *"network is not completely free"* regime: other
    allocations already hold paths.  Each circuit is granted through
    :meth:`MRSIN.apply_mapping <repro.core.model.MRSIN.apply_mapping>`,
    the one allocation path, so it is a transmission a fault can sever
    and a service can reclaim.  Returns the number actually established
    (dense networks may not admit all within
    :data:`MAX_OCCUPY_ATTEMPTS` draws).
    """
    established = 0
    attempts = 0
    while established < n_circuits and attempts < MAX_OCCUPY_ATTEMPTS:
        attempts += 1
        p = int(rng.integers(0, net.n_processors))
        r = int(rng.integers(0, net.n_resources))
        if net.processor_link(p).occupied or mrsin.resources[r].busy:
            continue
        path = net.find_free_path(p, r)
        if path is None:
            continue
        resource = mrsin.resources[r]
        request = Request(p, resource_type=resource.resource_type)
        mrsin.apply_mapping(Mapping([Assignment(request, resource, tuple(path))]))
        established += 1
    return established


@dataclass
class WorkloadSpec:
    """Parameters of a random scheduling instance.

    Attributes
    ----------
    builder:
        Topology constructor, e.g. ``repro.networks.omega``.
    n_ports:
        Network size (processors = resources = ``n_ports`` for the
        square builders).
    request_density:
        Probability each processor has a pending request.
    free_density:
        Probability each resource is free.
    occupied_circuits:
        Circuits established before the cycle (their resources count
        as busy on top of ``free_density``).
    priority_levels:
        If > 1, request priorities are drawn uniformly from
        ``1..priority_levels`` and resource preferences likewise.
    resource_types:
        Types assigned cyclically to resources; requests draw a type
        uniformly from this list.  ``None`` = homogeneous.
    """

    builder: Callable[[int], MultistageNetwork]
    n_ports: int = 8
    request_density: float = 1.0
    free_density: float = 1.0
    occupied_circuits: int = 0
    priority_levels: int = 1
    resource_types: Sequence[Hashable] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.request_density <= 1.0:
            raise ValueError(f"request_density {self.request_density} outside [0, 1]")
        if not 0.0 <= self.free_density <= 1.0:
            raise ValueError(f"free_density {self.free_density} outside [0, 1]")
        if self.occupied_circuits < 0:
            raise ValueError(
                f"occupied_circuits must be >= 0, got {self.occupied_circuits}"
            )
        if self.priority_levels < 1:
            raise ValueError("priority_levels must be >= 1")


def build_mrsin(spec: WorkloadSpec, rng: np.random.Generator) -> MRSIN:
    """The spec's system with no requests queued: cyclic resource
    types, drawn preferences, then the background circuits."""
    net = spec.builder(spec.n_ports)
    if spec.resource_types is not None:
        types = [
            spec.resource_types[i % len(spec.resource_types)]
            for i in range(net.n_resources)
        ]
    else:
        types = None
    if spec.priority_levels > 1:
        prefs = [int(rng.integers(1, spec.priority_levels + 1)) for _ in range(net.n_resources)]
    else:
        prefs = None
    mrsin = MRSIN(
        net,
        resource_types=types,
        preferences=prefs,
        max_priority=max(spec.priority_levels, 1),
        max_preference=max(spec.priority_levels, 1),
    )
    occupy_random_circuits(net, mrsin, spec.occupied_circuits, rng)
    return mrsin


def draw_request(spec: WorkloadSpec, processor: int, rng: np.random.Generator) -> Request:
    """One request from ``processor``: its type, then its priority,
    each drawn only when the spec varies it."""
    rtype = (
        DEFAULT_TYPE
        if spec.resource_types is None
        else spec.resource_types[int(rng.integers(0, len(spec.resource_types)))]
    )
    priority = (
        1 if spec.priority_levels == 1
        else int(rng.integers(1, spec.priority_levels + 1))
    )
    return Request(processor, resource_type=rtype, priority=priority)


def sample_instance(
    spec: WorkloadSpec, rng: int | np.random.Generator | None = None
) -> MRSIN:
    """Draw one random MRSIN state from ``spec``.

    The returned model has requests queued and occupancy applied;
    hand it straight to any scheduler policy.
    """
    gen = make_rng(rng)
    mrsin = build_mrsin(spec, gen)
    net = mrsin.network
    for res in mrsin.resources:
        if not res.busy and gen.random() >= spec.free_density:
            res.busy = True
    for p in range(net.n_processors):
        if net.processor_link(p).occupied:
            continue
        if gen.random() < spec.request_density:
            mrsin.submit(draw_request(spec, p, gen))
    return mrsin
