"""Tests for destination-tag (address-mapped) routing."""

import pytest

from repro.networks import baseline, benes, crossbar, omega
from repro.networks.routing import destination_tag_path, reachable_resources


class TestDestinationTag:
    def test_routes_everywhere_on_free_omega(self):
        net = omega(8)
        for p in range(8):
            for r in range(8):
                path = destination_tag_path(net, p, r)
                assert path is not None
                assert path[0].src.box == p
                assert path[-1].dst.box == r

    def test_path_is_establishable(self):
        net = omega(8)
        path = destination_tag_path(net, 2, 6)
        circuit = net.establish_circuit(path)
        assert (circuit.processor, circuit.resource) == (2, 6)

    def test_respects_occupancy(self):
        net = omega(8)
        net.establish_circuit(destination_tag_path(net, 0, 0))
        # Processor 0's own link is now occupied.
        assert destination_tag_path(net, 0, 1) is None

    def test_blocked_by_internal_conflict(self):
        """On a unique-path network, two circuits sharing an internal
        link cannot coexist; routing must report a block."""
        net = omega(8)
        blocked = 0
        routed = 0
        for p in range(8):
            path = destination_tag_path(net, p, p)
            if path is None:
                blocked += 1
            else:
                net.establish_circuit(path)
                routed += 1
        assert routed + blocked == 8
        assert routed >= 1

    def test_multipath_fallback_on_benes(self):
        """Benes offers alternatives: after one circuit, other pairs
        can usually still route by taking another middle path."""
        net = benes(8)
        net.establish_circuit(destination_tag_path(net, 0, 0))
        success = sum(
            destination_tag_path(net, p, p) is not None for p in range(1, 8)
        )
        assert success == 7  # Benes is rearrangeable; identity routes greedily

    def test_crossbar_never_blocks_free_pairs(self):
        net = crossbar(4, 4)
        net.establish_circuit(destination_tag_path(net, 0, 3))
        for p in range(1, 4):
            assert destination_tag_path(net, p, p - 1) is not None


class TestReachability:
    def test_reachable_resources_full_access(self):
        net = baseline(16)
        for p in range(16):
            assert reachable_resources(net, p) == frozenset(range(16))

    def test_cache_survives_occupancy(self):
        net = omega(8)
        before = reachable_resources(net, 0)
        net.establish_circuit(net.find_free_path(0, 0))
        # Structural reachability ignores occupancy by design.
        assert reachable_resources(net, 0) == before
