"""Tests for the monitor architecture and its cost model."""

from repro.core import MRSIN, Request
from repro.distributed import DistributedScheduler, MonitorScheduler, INSTRUCTION_WEIGHTS
from repro.networks import omega


def loaded(n=8):
    m = MRSIN(omega(n))
    for p in range(n):
        m.submit(Request(p))
    return m


class TestMonitor:
    def test_same_optimum_as_distributed(self):
        m = loaded()
        mon = MonitorScheduler().schedule(m)
        dist = DistributedScheduler().schedule(m)
        assert len(mon.mapping) == len(dist.mapping) == 8

    def test_instruction_count_positive_and_itemised(self):
        m = loaded()
        out = MonitorScheduler().schedule(m)
        assert out.instructions > 0
        assert out.operations["arc_scan"] > 0
        assert out.operations["transform_arc"] == len(m.network.links)

    def test_instructions_grow_with_network_size(self):
        small = MonitorScheduler().schedule(loaded(8)).instructions
        large = MonitorScheduler().schedule(loaded(32)).instructions
        assert large > small

    def test_monitor_vs_distributed_cost_units(self):
        """The architectural speedup claim: the distributed clock count
        is far below the monitor instruction count on the same cycle
        (parallel search + gate delays vs instruction cycles)."""
        m = loaded(16)
        mon = MonitorScheduler().schedule(m)
        dist = DistributedScheduler().schedule(m)
        assert dist.clocks * 10 < mon.instructions

    def test_priority_discipline_supported(self):
        m = MRSIN(omega(8), preferences=[5] * 8)
        m.submit(Request(0, priority=3))
        out = MonitorScheduler().schedule(m)
        assert len(out.mapping) == 1

    def test_priority_cycle_is_costed_as_out_of_kilter(self):
        # The instruction estimate is about the paper's algorithm, not
        # about whatever OptimalScheduler's default happens to be: only
        # out-of-kilter charges kilter steps.
        m = MRSIN(omega(8), preferences=[1, 2, 3, 4, 5, 6, 7, 8])
        for p in range(4):
            m.submit(Request(p, priority=p + 1))
        out = MonitorScheduler().schedule(m)
        assert len(out.mapping) == 4
        assert out.operations["kilter_step"] > 0

    def test_weights_cover_all_charged_categories(self):
        m = loaded()
        out = MonitorScheduler().schedule(m)
        for category in out.operations.counts:
            assert category in INSTRUCTION_WEIGHTS, f"unweighted op {category}"
