"""Heuristic (address-mapped) schedulers — the paper's comparators.

These model the *conventional* interconnection network of Section I:
each request is bound to a concrete resource address up front and
destination-tag routed, with no joint optimisation and no rerouting of
other circuits.  The paper's simulations put such heuristics at
*"around 20 percent"* blocking where the optimal scheduler achieves
*"as low as 2 percent"* — the SIM-BLOCK benchmark re-measures exactly
this gap.

Three policies:

- :func:`greedy_schedule` — requests processed in order; each tries
  the free resources of its type (nearest-address or random order)
  until one routes.  Previously placed circuits are honoured but never
  moved.  Failed components are avoided the same way occupied ones
  are: failed resources are not ``available`` and the destination-tag
  router never takes a failed link or enters a failed switchbox, so
  the comparator stays safe on a faulted network too.
- :func:`random_binding_schedule` — pure address mapping: a random
  free resource of the request's type, bound before routing.
- :func:`arbitrary_schedule` — the paper's "arbitrary resource-request
  mapping": the i-th request is bound to the i-th free resource, no
  alternatives tried.  Used in the extra-stage experiment.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.core.mapping import Assignment, Mapping
from repro.core.model import MRSIN
from repro.networks.routing import destination_tag_path
from repro.util.rng import make_rng

__all__ = ["greedy_schedule", "arbitrary_schedule", "random_binding_schedule"]


@contextmanager
def _scratch(mrsin: MRSIN) -> Iterator[list]:
    """The network as scratch space for a policy's tentative circuits.

    However the policy's block ends, returning or raising, every
    circuit it appended is torn down, so the network ends as it began.
    """
    tentative: list = []
    try:
        yield tentative
    finally:
        for _, _, circuit in tentative:
            mrsin.network.release_circuit(circuit)


def _finish(tentative: list) -> Mapping:
    """Package the (torn-down) tentative circuits as the mapping."""
    mapping = Mapping()
    for request, resource, circuit in tentative:
        mapping.add(Assignment(request=request, resource=resource, path=circuit.links))
    return mapping


def greedy_schedule(
    mrsin: MRSIN,
    *,
    order: str = "nearest",
    rng: int | np.random.Generator | None = None,
) -> Mapping:
    """First-fit address-mapped scheduling.

    Each request tries free resources of its type one by one
    (``order="nearest"`` scans by address distance from the processor;
    ``order="random"`` shuffles) and keeps the first that destination-
    tag routes over the current network state.  Earlier requests are
    never rerouted — the decisive difference from the optimal flow
    scheduler.

    The network is used as scratch space for tentative circuits and
    restored before returning; apply the mapping explicitly via
    :meth:`~repro.core.model.MRSIN.apply_mapping`.
    """
    if order not in ("nearest", "random"):
        raise ValueError(f"unknown order {order!r}")
    gen = make_rng(rng)
    taken: set[int] = set()
    with _scratch(mrsin) as tentative:
        for req in mrsin.schedulable_requests():
            candidates = [
                res for res in mrsin.free_resources(req.resource_type)
                if res.index not in taken
            ]
            if order == "random":
                gen.shuffle(candidates)
            else:
                candidates.sort(key=lambda res: abs(res.index - req.processor))
            for res in candidates:
                path = destination_tag_path(mrsin.network, req.processor, res.index)
                if path is None:
                    continue
                circuit = mrsin.network.establish_circuit(path)
                tentative.append((req, res, circuit))
                taken.add(res.index)
                break
    return _finish(tentative)


def random_binding_schedule(
    mrsin: MRSIN,
    *,
    rng: int | np.random.Generator | None = None,
) -> Mapping:
    """Pure address mapping: a centralized scheduler binds each request
    to a *random* free resource of its type before it enters the
    network; routing then either succeeds or blocks.

    This is the paper's conventional baseline — *"a request is
    initiated with a specific destination ... and routing is done by
    examining the address bits"* — with no knowledge of network state.
    It is the comparator behind the ~20% blocking figure.
    """
    gen = make_rng(rng)
    taken: set[int] = set()
    with _scratch(mrsin) as tentative:
        order = mrsin.schedulable_requests()
        gen.shuffle(order)
        for req in order:
            candidates = [
                res for res in mrsin.free_resources(req.resource_type)
                if res.index not in taken
            ]
            if not candidates:
                continue
            res = candidates[int(gen.integers(0, len(candidates)))]
            taken.add(res.index)  # the binding is committed even if routing fails
            path = destination_tag_path(mrsin.network, req.processor, res.index)
            if path is None:
                continue  # blocked in the network
            circuit = mrsin.network.establish_circuit(path)
            tentative.append((req, res, circuit))
    return _finish(tentative)


def arbitrary_schedule(mrsin: MRSIN) -> Mapping:
    """The paper's "arbitrary mapping": i-th request → i-th free resource.

    No alternatives are tried: if the bound pair does not route, the
    request blocks.  On networks with enough extra stages this is
    nearly as good as optimal (the SIM-EXTRA claim); on a bare Omega
    it is terrible.
    """
    with _scratch(mrsin) as tentative:
        for req in mrsin.schedulable_requests():
            free = [
                res for res in mrsin.free_resources(req.resource_type)
                if res.index not in {r.index for _, r, _ in tentative}
            ]
            if not free:
                continue
            res = free[0]
            path = destination_tag_path(mrsin.network, req.processor, res.index)
            if path is None:
                continue  # blocked: the bound resource is unreachable
            circuit = mrsin.network.establish_circuit(path)
            tentative.append((req, res, circuit))
    return _finish(tentative)
