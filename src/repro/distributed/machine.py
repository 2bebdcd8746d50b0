"""The Fig. 10 global state-transition diagram.

The MRSIN as a whole moves through idle, scheduling, and allocation
states; transitions are driven by the status-bus event vector.  The
simulator logs its state trace through :func:`next_state`, and the
tests assert the trace follows this diagram.
"""

from __future__ import annotations

import enum

from repro.distributed.events import Event, StatusBus

__all__ = ["GlobalState", "next_state"]


class GlobalState(enum.Enum):
    """Macro states of the distributed MRSIN (Fig. 10)."""

    IDLE = "idle"                                  # no request or no resource
    WAITING = "waiting"                            # requests pending, gathering
    REQUEST_PROPAGATION = "request-token-propagation"
    TOKEN_STOP = "tokens-stopping"                 # E6 raised, one settle period
    RESOURCE_PROPAGATION = "resource-token-propagation"
    PATH_REGISTRATION = "path-registration"
    ALLOCATION = "allocation"                      # registered paths become bonded


def next_state(state: GlobalState, bus: StatusBus) -> GlobalState:
    """One transition of the Fig. 10 diagram given the bus vector.

    The mapping follows the paper's walkthrough: ``111000x`` is
    request-token propagation; an RS setting E6 yields ``111001x`` for
    one clock; ``110100x`` is resource-token propagation; ``110110x``
    is path registration; falling E4/E5 starts the next iteration or,
    when no augmenting path was found, the allocation state.
    """
    pending = bus.read(Event.REQUEST_PENDING)
    ready = bus.read(Event.RESOURCE_READY)
    if state in (GlobalState.IDLE, GlobalState.WAITING, GlobalState.ALLOCATION):
        if pending and ready:
            return GlobalState.REQUEST_PROPAGATION
        if pending or ready:
            return GlobalState.WAITING
        return GlobalState.IDLE
    if state is GlobalState.REQUEST_PROPAGATION:
        if bus.read(Event.RESOURCE_GOT_TOKEN):
            return GlobalState.TOKEN_STOP
        if not bus.read(Event.REQUEST_TOKENS):
            # Tokens died out without reaching any RS: no augmenting
            # path exists; conclude the scheduling cycle.
            return GlobalState.ALLOCATION
        return GlobalState.REQUEST_PROPAGATION
    if state is GlobalState.TOKEN_STOP:
        return GlobalState.RESOURCE_PROPAGATION
    if state is GlobalState.RESOURCE_PROPAGATION:
        if bus.read(Event.PATH_REGISTRATION) or not bus.read(Event.RESOURCE_TOKENS):
            return GlobalState.PATH_REGISTRATION
        return GlobalState.RESOURCE_PROPAGATION
    if state is GlobalState.PATH_REGISTRATION:
        if pending and ready:
            return GlobalState.REQUEST_PROPAGATION
        return GlobalState.ALLOCATION
    raise ValueError(f"unknown state {state!r}")
