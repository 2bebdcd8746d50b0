"""Tests for the MRSIN model: request queue and allocation lifecycle."""

import pytest

from repro.core import MRSIN, OptimalScheduler, Request
from repro.networks import crossbar, omega


def small() -> MRSIN:
    return MRSIN(crossbar(4, 4))


class TestConstruction:
    def test_defaults_homogeneous(self):
        m = small()
        assert not m.is_heterogeneous
        assert m.n_processors == 4 and m.n_resources == 4

    def test_typed_pool(self):
        m = MRSIN(crossbar(2, 3), resource_types=["fft", "fft", "conv"])
        assert m.is_heterogeneous
        assert m.resource_types == {"fft", "conv"}
        assert [r.index for r in m.free_resources("fft")] == [0, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resource types"):
            MRSIN(crossbar(2, 3), resource_types=["a"])

    def test_preferences(self):
        m = MRSIN(crossbar(2, 2), preferences=[5, 1])
        assert m.resources[0].preference == 5

    def test_preference_above_scale_rejected(self):
        # Every priced tick over such a pool would raise "exceeds qmax".
        with pytest.raises(ValueError, match="preference 11 exceeds qmax=10"):
            MRSIN(crossbar(2, 2), preferences=[11, 1], max_preference=10)
        assert MRSIN(crossbar(2, 2), preferences=[10, 1]).resources[0].preference == 10


class TestSubmission:
    def test_submit_and_pending(self):
        m = small()
        m.submit(Request(0))
        m.submit_many([Request(1), Request(2)])
        assert len(m.pending) == 3
        assert m.requesting_processors() == {0, 1, 2}

    def test_unknown_processor_rejected(self):
        m = small()
        with pytest.raises(ValueError, match="processor"):
            m.submit(Request(9))

    def test_unknown_type_rejected(self):
        m = small()
        with pytest.raises(ValueError, match="type"):
            m.submit(Request(0, resource_type="gpu"))

    def test_over_range_priority_rejected(self):
        m = MRSIN(crossbar(2, 2), max_priority=5)
        with pytest.raises(ValueError, match="priority 6 exceeds ymax=5"):
            m.submit(Request(0, priority=6))
        m.submit(Request(0, priority=5))
        assert len(m.pending) == 1

    def test_one_schedulable_per_processor(self):
        """Model item 5: a processor transmits one task at a time."""
        m = small()
        m.submit(Request(0, tag="first"))
        m.submit(Request(0, tag="second"))
        m.submit(Request(1))
        sched = m.schedulable_requests()
        assert len(sched) == 2
        assert sched[0].tag == "first"

    def test_transmitting_processor_excluded(self):
        m = small()
        m.submit(Request(0))
        mapping = OptimalScheduler().schedule(m)
        m.apply_mapping(mapping)
        m.submit(Request(0))
        assert m.schedulable_requests() == []


class TestAllocationLifecycle:
    def test_apply_mapping_updates_everything(self):
        m = small()
        m.submit(Request(0))
        m.submit(Request(1))
        mapping = OptimalScheduler().schedule(m)
        circuits = m.apply_mapping(mapping)
        assert len(circuits) == 2
        assert m.pending == []
        assert m.utilization() == pytest.approx(0.5)
        assert m.network.occupancy() > 0

    def test_transmission_release_keeps_resource_busy(self):
        """Model item 5: circuit released after transmission, resource
        busy until task completion."""
        m = small()
        m.submit(Request(0))
        mapping = OptimalScheduler().schedule(m)
        m.apply_mapping(mapping)
        r = mapping.assignments[0].resource.index
        m.complete_transmission(r)
        assert m.network.occupancy() == 0.0
        assert m.resources[r].busy

    def test_complete_service_frees_resource(self):
        m = small()
        m.submit(Request(0))
        m.apply_mapping(OptimalScheduler().schedule(m))
        r = next(res.index for res in m.resources if res.busy)
        m.complete_service(r)  # implicit transmission completion
        assert not m.resources[r].busy
        assert m.network.occupancy() == 0.0

    def test_double_completion_rejected(self):
        m = small()
        m.submit(Request(0))
        m.apply_mapping(OptimalScheduler().schedule(m))
        r = next(res.index for res in m.resources if res.busy)
        m.complete_service(r)
        with pytest.raises(ValueError):
            m.complete_service(r)
        with pytest.raises(ValueError):
            m.complete_transmission(r)

    def test_reset(self):
        m = small()
        m.submit(Request(0))
        m.apply_mapping(OptimalScheduler().schedule(m))
        m.reset()
        assert m.pending == [] and m.utilization() == 0.0
        assert m.network.occupancy() == 0.0


class TestStateEpoch:
    """The warm engine's fast path (``KernelFlowEngine._adopt_epoch``)
    counts exactly one ``state_epoch`` bump per state-changing call."""

    def test_one_bump_per_change_and_none_per_no_op(self):
        m = MRSIN(omega(8))
        m.submit(Request(0))
        m.submit(Request(1))
        mapping = OptimalScheduler().schedule(m)
        first, second = (a.resource.index for a in mapping.assignments)

        def bumps(call, *args):
            before = m.state_epoch
            call(*args)
            return m.state_epoch - before

        def refused(call, *args):
            before = m.state_epoch
            with pytest.raises(ValueError):
                call(*args)
            return m.state_epoch - before

        assert bumps(m.apply_mapping, mapping) == 1
        assert refused(m.apply_mapping, mapping) == 0
        assert bumps(m.complete_transmission, first) == 1
        assert refused(m.complete_transmission, first) == 0
        assert bumps(m.complete_service, first) == 1
        assert refused(m.complete_service, first) == 0
        assert bumps(m.revoke, second) == 1
        assert refused(m.revoke, second) == 0
        for kind, target in (("link", 0), ("switchbox", (1, 2)), ("resource", 3)):
            for failed in (True, False):
                assert bumps(m.set_failed, kind, target, failed) == 1
                assert bumps(m.set_failed, kind, target, failed) == 0
        assert refused(m.set_failed, "bus", 0) == 0
        assert bumps(m.reset) == 1


class TestSchedulingCyclesEndToEnd:
    def test_successive_cycles_drain_queue(self):
        """Requests beyond the per-cycle capacity are served next cycle."""
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        sched = OptimalScheduler()
        total = 0
        for _ in range(4):
            mapping = sched.schedule(m)
            if not mapping.assignments:
                break
            m.apply_mapping(mapping)
            total += len(mapping)
            # Tasks finish before the next cycle.
            for res in list(m.resources):
                if res.busy:
                    m.complete_service(res.index)
        assert total == 8
        assert m.pending == []
