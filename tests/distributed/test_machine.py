"""Tests for the Fig. 10 state machine as a standalone component."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.events import Event, StatusBus
from repro.distributed.machine import GlobalState, next_state


def bus_with(*events: Event) -> StatusBus:
    bus = StatusBus()
    for e in events:
        bus.set("x", e)
    return bus


class TestTransitions:
    def test_idle_without_both_sides(self):
        assert next_state(GlobalState.IDLE, StatusBus()) is GlobalState.IDLE
        assert next_state(GlobalState.IDLE, bus_with(Event.REQUEST_PENDING)) is GlobalState.WAITING
        assert next_state(GlobalState.IDLE, bus_with(Event.RESOURCE_READY)) is GlobalState.WAITING

    def test_idle_to_scheduling(self):
        bus = bus_with(Event.REQUEST_PENDING, Event.RESOURCE_READY)
        assert next_state(GlobalState.IDLE, bus) is GlobalState.REQUEST_PROPAGATION
        assert next_state(GlobalState.WAITING, bus) is GlobalState.REQUEST_PROPAGATION
        assert next_state(GlobalState.ALLOCATION, bus) is GlobalState.REQUEST_PROPAGATION

    def test_request_phase_progress(self):
        busy = bus_with(Event.REQUEST_PENDING, Event.RESOURCE_READY, Event.REQUEST_TOKENS)
        assert next_state(GlobalState.REQUEST_PROPAGATION, busy) is GlobalState.REQUEST_PROPAGATION
        hit = bus_with(Event.REQUEST_PENDING, Event.RESOURCE_READY,
                       Event.REQUEST_TOKENS, Event.RESOURCE_GOT_TOKEN)
        assert next_state(GlobalState.REQUEST_PROPAGATION, hit) is GlobalState.TOKEN_STOP

    def test_request_phase_dies_to_allocation(self):
        bus = bus_with(Event.REQUEST_PENDING, Event.RESOURCE_READY)
        assert next_state(GlobalState.REQUEST_PROPAGATION, bus) is GlobalState.ALLOCATION

    def test_token_stop_always_advances(self):
        assert next_state(GlobalState.TOKEN_STOP, StatusBus()) is GlobalState.RESOURCE_PROPAGATION

    def test_resource_phase(self):
        running = bus_with(Event.RESOURCE_TOKENS)
        assert next_state(GlobalState.RESOURCE_PROPAGATION, running) is GlobalState.RESOURCE_PROPAGATION
        registering = bus_with(Event.RESOURCE_TOKENS, Event.PATH_REGISTRATION)
        assert next_state(GlobalState.RESOURCE_PROPAGATION, registering) is GlobalState.PATH_REGISTRATION
        assert next_state(GlobalState.RESOURCE_PROPAGATION, StatusBus()) is GlobalState.PATH_REGISTRATION

    def test_registration_iterates_or_allocates(self):
        more = bus_with(Event.REQUEST_PENDING, Event.RESOURCE_READY)
        assert next_state(GlobalState.PATH_REGISTRATION, more) is GlobalState.REQUEST_PROPAGATION
        assert next_state(GlobalState.PATH_REGISTRATION, StatusBus()) is GlobalState.ALLOCATION


def test_totality_over_all_bus_vectors():
    """Every (state, bus vector) pair transitions to a valid state —
    the machine can never wedge on an unexpected event combination."""
    for state in GlobalState:
        for bits in product([False, True], repeat=len(Event)):
            bus = StatusBus()
            for event, on in zip(Event, bits):
                if on:
                    bus.set("x", event)
            nxt = next_state(state, bus)
            assert isinstance(nxt, GlobalState)


@given(
    steps=st.lists(
        st.sets(st.sampled_from(list(Event))), min_size=1, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_property_no_illegal_adjacent_states(steps):
    """Property: under any event sequence, TOKEN_STOP only follows
    REQUEST_PROPAGATION and PATH_REGISTRATION only follows
    RESOURCE_PROPAGATION (the Fig. 10 arrows)."""
    state = GlobalState.IDLE
    prev = state
    for events in steps:
        bus = StatusBus()
        for e in events:
            bus.set("x", e)
        prev, state = state, next_state(state, bus)
        if state is GlobalState.TOKEN_STOP:
            assert prev is GlobalState.REQUEST_PROPAGATION
        if state is GlobalState.PATH_REGISTRATION:
            assert prev in (GlobalState.RESOURCE_PROPAGATION, GlobalState.PATH_REGISTRATION)


def test_an_unknown_state_is_refused():
    with pytest.raises(ValueError, match="unknown state 'halted'"):
        next_state("halted", bus_with())
