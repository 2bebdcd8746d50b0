"""Seeded deterministic fault/repair event source.

A :class:`FaultInjector` turns a numpy generator into a Poisson stream
of :class:`FaultEvent`\\ s against one MRSIN: each fault picks a
component class (link, switchbox, resource) and a concrete target
uniformly; *transient* faults carry an exponentially distributed
repair that is scheduled onto the same timeline, *permanent* ones
never heal.  Events are produced strictly in time order (ties broken
by generation order), so the same seed yields the identical fault
history — the property seeded fault churn
(``run_service(fault_rate=)``) and the CI job rely on.

The injector never touches the MRSIN itself; :func:`apply_event` (or
:meth:`~repro.service.server.AllocationService.apply_fault_event`,
which also counts metrics) performs the mutation through the model's
one fault transition, :meth:`~repro.core.model.MRSIN.set_failed`.
This keeps the schedule replayable: generate once, apply anywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.model import FAULT_KINDS, MRSIN
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.server import AllocationService

__all__ = ["FaultEvent", "FaultInjector", "apply_event", "check_repair_model"]


@dataclass(frozen=True)
class FaultEvent:
    """One state change: a component fails, or a failed one is repaired.

    ``kind`` is one of :data:`~repro.core.model.FAULT_KINDS`;
    ``target`` is a link index, a ``(stage, box)`` pair, or a resource
    index depending on it.  ``transient`` records whether the
    fault came with a scheduled repair (repairs themselves have it
    ``False``).
    """

    time: float
    kind: str
    target: int | tuple[int, int]
    repair: bool = False
    transient: bool = False


def apply_event(mrsin: MRSIN, event: FaultEvent) -> bool:
    """Apply ``event`` to ``mrsin``; returns whether anything changed.

    Re-failing a failed component or repairing a healthy one is a
    no-op returning ``False`` (two transient faults on the same target
    can overlap; the second repair finds nothing to fix).
    """
    return mrsin.set_failed(event.kind, event.target, failed=not event.repair)


def check_repair_model(transient_fraction: float, mean_repair: float) -> None:
    """Raise ``ValueError`` unless the two repair knobs are usable."""
    if not 0.0 <= transient_fraction <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"transient_fraction must be in [0, 1], got {transient_fraction}")
    if not 0 < mean_repair < math.inf:
        raise ValueError(f"mean_repair must be positive and finite, got {mean_repair}")


class FaultInjector:
    """Deterministic Poisson fault schedule over one MRSIN's components.

    Parameters
    ----------
    mrsin:
        Supplies the target space (links, switchboxes, resources).
    rng:
        Seed or prepared generator (:func:`repro.util.rng.make_rng`
        discipline); the whole schedule is a pure function of it.
    fault_rate:
        Expected faults per time unit (Poisson arrivals).
    transient_fraction:
        Probability a fault is transient, i.e. schedules its own
        repair ``Exp(mean_repair)`` later.  The remainder are
        permanent.
    mean_repair:
        Mean time-to-repair for transient faults.

    Each fault draws its component class uniformly from
    :data:`~repro.core.model.FAULT_KINDS`.
    """

    def __init__(
        self,
        mrsin: MRSIN,
        *,
        rng: int | np.random.Generator | None = None,
        fault_rate: float = 0.05,
        transient_fraction: float = 0.8,
        mean_repair: float = 5.0,
    ) -> None:
        if not 0 < fault_rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"fault_rate must be positive and finite, got {fault_rate}")
        check_repair_model(transient_fraction, mean_repair)
        self.mrsin = mrsin
        self.rng = make_rng(rng)
        self.fault_rate = fault_rate
        self.transient_fraction = transient_fraction
        self.mean_repair = mean_repair
        self._boxes = [
            (s, b)
            for s, stage in enumerate(mrsin.network.stages)
            for b in range(len(stage))
        ]
        self._pending: list[tuple[float, int, FaultEvent]] = []
        self._tie = 0
        self._next_fault = float(self.rng.exponential(1.0 / fault_rate))
        self.generated = 0

    # ------------------------------------------------------------------
    def _push(self, event: FaultEvent) -> None:
        heapq.heappush(self._pending, (event.time, self._tie, event))
        self._tie += 1

    def _draw_target(self, kind: str) -> int | tuple[int, int]:
        if kind == "link":
            return int(self.rng.integers(0, len(self.mrsin.network.links)))
        if kind == "switchbox":
            return self._boxes[int(self.rng.integers(0, len(self._boxes)))]
        return int(self.rng.integers(0, len(self.mrsin.resources)))

    def _draw_fault(self, time: float) -> None:
        kind = FAULT_KINDS[int(self.rng.integers(0, len(FAULT_KINDS)))]
        target = self._draw_target(kind)
        transient = bool(self.rng.random() < self.transient_fraction)
        self._push(FaultEvent(time=time, kind=kind, target=target, transient=transient))
        self.generated += 1
        if transient:
            repair_at = time + float(self.rng.exponential(self.mean_repair))
            self._push(FaultEvent(time=repair_at, kind=kind, target=target, repair=True))

    # ------------------------------------------------------------------
    def events_until(self, now: float) -> list[FaultEvent]:
        """All events due at or before ``now``, in time order.

        Advances the internal Poisson process, so calls must be made
        with non-decreasing ``now`` (the service clock guarantees it).
        """
        while self._next_fault <= now:
            self._draw_fault(self._next_fault)
            self._next_fault += float(self.rng.exponential(1.0 / self.fault_rate))
        due: list[FaultEvent] = []
        while self._pending and self._pending[0][0] <= now:
            due.append(heapq.heappop(self._pending)[2])
        return due

    def inject(self, service: AllocationService, now: float) -> list[FaultEvent]:
        """Apply every due event through ``service`` (counting metrics).

        Convenience for driving a live
        :class:`~repro.service.server.AllocationService`; returns the
        events applied (including no-op ones).
        """
        events = self.events_until(now)
        for event in events:
            service.apply_fault_event(event)
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(rate={self.fault_rate:g}, generated={self.generated}, "
            f"pending={len(self._pending)})"
        )
