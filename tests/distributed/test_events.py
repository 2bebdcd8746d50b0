"""Tests for the Table I events and the wired-OR status bus."""

from repro.distributed.events import Event, StatusBus


class TestBitAssignments:
    def test_seven_events(self):
        assert len(Event) == StatusBus.N_BITS == 7

    def test_table1_positions(self):
        assert Event.REQUEST_PENDING == 6       # E1 = MSB
        assert Event.RESOURCE_READY == 5
        assert Event.REQUEST_TOKENS == 4
        assert Event.RESOURCE_TOKENS == 3
        assert Event.PATH_REGISTRATION == 2
        assert Event.RESOURCE_GOT_TOKEN == 1
        assert Event.RQ_BONDED == 0             # E7 = LSB


class TestWiredOr:
    def test_single_driver(self):
        bus = StatusBus()
        bus.set("a", Event.REQUEST_PENDING)
        assert bus.read(Event.REQUEST_PENDING)
        bus.clear("a", Event.REQUEST_PENDING)
        assert not bus.read(Event.REQUEST_PENDING)

    def test_or_of_multiple_drivers(self):
        """The bit stays high until *every* driver releases it."""
        bus = StatusBus()
        bus.set("a", Event.REQUEST_TOKENS)
        bus.set("b", Event.REQUEST_TOKENS)
        bus.clear("a", Event.REQUEST_TOKENS)
        assert bus.read(Event.REQUEST_TOKENS)
        bus.clear("b", Event.REQUEST_TOKENS)
        assert not bus.read(Event.REQUEST_TOKENS)

    def test_clear_is_idempotent(self):
        bus = StatusBus()
        bus.clear("ghost", Event.RQ_BONDED)  # must not raise
        assert not bus.read(Event.RQ_BONDED)


class TestVector:
    def test_paper_state_vector_order(self):
        """The paper writes vectors E1..E7 MSB-first: request-token
        propagation is 111000x."""
        bus = StatusBus()
        bus.set("rq", Event.REQUEST_PENDING)
        bus.set("rs", Event.RESOURCE_READY)
        bus.set("ns", Event.REQUEST_TOKENS)
        assert bus.as_string() == "1110000"

    def test_resource_phase_vector(self):
        bus = StatusBus()
        for e in (Event.REQUEST_PENDING, Event.RESOURCE_READY, Event.RESOURCE_TOKENS):
            bus.set("x", e)
        assert bus.as_string() == "1101000"

    def test_registration_vector(self):
        bus = StatusBus()
        for e in (
            Event.REQUEST_PENDING,
            Event.RESOURCE_READY,
            Event.RESOURCE_TOKENS,
            Event.PATH_REGISTRATION,
        ):
            bus.set("x", e)
        assert bus.as_string() == "1101100"
