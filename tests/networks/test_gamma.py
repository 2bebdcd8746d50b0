"""Tests for the gamma network (redundant paths, 3x3 switchboxes)."""

import numpy as np
import pytest

from repro.core import MRSIN, OptimalScheduler, Request
from repro.distributed import DistributedScheduler
from repro.networks import gamma
from repro.networks.gamma import _gamma_boundary
from repro.networks.routing import destination_tag_path, reachable_resources


class TestStructure:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_full_access(self, n):
        net = gamma(n)
        for p in range(n):
            assert reachable_resources(net, p) == frozenset(range(n))

    def test_stage_shapes(self):
        net = gamma(8)
        assert [len(s) for s in net.stages] == [8, 8, 8, 8]
        assert (net.box(0, 0).n_in, net.box(0, 0).n_out) == (1, 3)
        assert (net.box(1, 0).n_in, net.box(1, 0).n_out) == (3, 3)
        assert (net.box(3, 0).n_in, net.box(3, 0).n_out) == (3, 1)

    def test_redundant_path_counts(self):
        """Gamma path multiplicity equals the number of signed-digit
        representations of (dest - src) mod N with digits {-1,0,1} and
        place values 1, 2, 4 (N=8): distance 0 -> 1 way; distance 1 ->
        +1 | +2-1 | -4-2-1 | +4+... enumerated below."""
        net = gamma(8)

        def signed_reps(delta: int) -> int:
            count = 0
            for d0 in (-1, 0, 1):
                for d1 in (-1, 0, 1):
                    for d2 in (-1, 0, 1):
                        if (d0 + 2 * d1 + 4 * d2 - delta) % 8 == 0:
                            count += 1
            return count

        for src in range(8):
            for dst in range(8):
                expected = signed_reps((dst - src) % 8)
                assert net.count_paths(src, dst) == expected, (src, dst)

    def test_multipath_beats_unique_path_on_conflicts(self):
        """With redundancy, destination-tag routing can dodge an
        occupied straight link."""
        net = gamma(8)
        net.establish_circuit(destination_tag_path(net, 0, 1))
        # 1 -> 2 shares structure with 0 -> 1 in a unique-path network;
        # gamma finds an alternative.
        assert destination_tag_path(net, 1, 2) is not None


def test_boundary_wiring_refuses_a_wire_count_of_another_size():
    with pytest.raises(ValueError, match="gamma boundary expects 24 wires, got 16"):
        _gamma_boundary(0, 8)(0, 16)


class TestScheduling:
    def test_optimal_full_allocation(self):
        m = MRSIN(gamma(8))
        for p in range(8):
            m.submit(Request(p))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 8
        mapping.validate(m)
        m.apply_mapping(mapping)

    @pytest.mark.parametrize("seed", range(10))
    def test_distributed_matches_optimal_on_gamma(self, seed):
        """The token architecture is topology-independent: it must
        find the software optimum on 3x3-switch networks too."""
        rng = np.random.default_rng(seed)
        net = gamma(8)
        m = MRSIN(net)
        for link in net.links:
            if rng.random() < 0.2:
                link.occupied = True
        for r in range(8):
            if rng.random() < 0.25:
                m.resources[r].busy = True
        for p in range(8):
            if rng.random() < 0.8 and not net.processor_link(p).occupied:
                m.submit(Request(p))
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal
        outcome.mapping.validate(m)

    def test_priority_scheduling_on_gamma(self):
        m = MRSIN(gamma(8), preferences=[1, 9, 1, 1, 5, 1, 1, 1])
        m.submit(Request(0, priority=5))
        mapping = OptimalScheduler().schedule(m)
        assert len(mapping) == 1
        assert mapping.assignments[0].resource.index == 1  # preferred


class TestDataManipulator:
    """The descending-stride member of the PM2I family."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_full_access(self, n):
        from repro.networks import data_manipulator

        net = data_manipulator(n)
        for p in range(n):
            assert reachable_resources(net, p) == frozenset(range(n))

    def test_same_path_multiplicity_as_gamma(self):
        """Stride order does not change the number of signed-digit
        representations, so path counts match the gamma's."""
        from repro.networks import data_manipulator

        g, dm = gamma(8), data_manipulator(8)
        for src in range(8):
            for dst in range(8):
                assert g.count_paths(src, dst) == dm.count_paths(src, dst)

    def test_wiring_differs_from_gamma(self):
        from repro.networks import data_manipulator

        g, dm = gamma(8), data_manipulator(8)
        g_dsts = [l.dst for l in g.links]
        dm_dsts = [l.dst for l in dm.links]
        assert g_dsts != dm_dsts  # genuinely different interstage wiring

    def test_distributed_equivalence(self):
        from repro.networks import data_manipulator

        m = MRSIN(data_manipulator(8))
        for p in range(8):
            m.submit(Request(p))
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal == 8
