"""Table I: the seven status-bus events and the wired-OR status bus.

The paper's status bus is *"a specialized global 'memory' device"*:
each process drives a single-bit register per event, the bus bit is the
wired-OR of all drivers, and every process can observe the full event
vector instantly.  This module models exactly that: per-element
contributions OR-ed into a 7-bit vector.

==  =============================  ==================  ===
E   Definition                     Associated          Bit
==  =============================  ==================  ===
E1  Request pending                RQs                 6 (MSB)
E2  Resource ready                 RSs                 5
E3  Request token propagation      RQs, NSs            4
E4  Resource token propagation     RSs, NSs            3
E5  Path registration              NSs                 2
E6  An RS received a token         RSs                 1
E7  An RQ is bonded to an RS       RQs                 0 (LSB)
==  =============================  ==================  ===
"""

from __future__ import annotations

import enum
from typing import Hashable

__all__ = ["Event", "StatusBus"]


class Event(enum.IntEnum):
    """Status-bus events; the value is the bit position (MSB = E1)."""

    REQUEST_PENDING = 6        # E1
    RESOURCE_READY = 5         # E2
    REQUEST_TOKENS = 4         # E3
    RESOURCE_TOKENS = 3        # E4
    PATH_REGISTRATION = 2      # E5
    RESOURCE_GOT_TOKEN = 1     # E6
    RQ_BONDED = 0              # E7


class StatusBus:
    """A 7-bit wired-OR status bus.

    Every element contributes its own register via
    :meth:`set` / :meth:`clear`; the observable bus value is the OR
    over all contributions.  There is deliberately no way to force a
    bus bit low while any element still drives it — that is the
    wired-OR semantics the hardware gives.
    """

    N_BITS = 7

    def __init__(self) -> None:
        self._drivers: dict[Event, set[Hashable]] = {event: set() for event in Event}

    def set(self, element: Hashable, event: Event) -> None:
        """Element drives ``event`` high."""
        self._drivers[event].add(element)

    def clear(self, element: Hashable, event: Event) -> None:
        """Element stops driving ``event`` (idempotent)."""
        self._drivers[event].discard(element)

    def clear_all(self, element: Hashable) -> None:
        """Element releases every bit it drives."""
        for drivers in self._drivers.values():
            drivers.discard(element)

    def read(self, event: Event) -> bool:
        """Observed value of one bus bit."""
        return bool(self._drivers[event])

    def drivers(self, event: Event) -> frozenset[Hashable]:
        """Elements currently driving an event (diagnostic view)."""
        return frozenset(self._drivers[event])

    def vector(self) -> tuple[int, ...]:
        """The bus as an E1..E7 bit tuple (paper's state-vector order)."""
        return tuple(int(self.read(e)) for e in sorted(Event, reverse=True))

    def as_string(self) -> str:
        """Bus vector as a bit string, e.g. ``"1110000"``."""
        return "".join(map(str, self.vector()))
