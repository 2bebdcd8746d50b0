"""Tests for workload generation."""

import numpy as np
import pytest

from repro.networks import omega
from repro.core.model import MRSIN
from repro.sim.workload import (
    WorkloadSpec,
    occupy_random_circuits,
    sample_instance,
)


class TestSpecValidation:
    def test_density_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(builder=omega, request_density=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(builder=omega, free_density=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(builder=omega, priority_levels=0)

    def test_negative_occupancy_rejected(self):
        """``occupied_circuits=-1`` used to run as 0 under a -1 label."""
        with pytest.raises(ValueError, match="occupied_circuits"):
            WorkloadSpec(builder=omega, occupied_circuits=-1)


class TestOccupancyHelpers:
    def test_occupy_random_circuits(self):
        rng = np.random.default_rng(0)
        net = omega(8)
        m = MRSIN(net)
        n = occupy_random_circuits(net, m, 3, rng)
        assert n == 3
        assert len(net.circuits) == 3
        assert sum(r.busy for r in m.resources) == 3

    def test_occupancy_gives_up_gracefully(self):
        rng = np.random.default_rng(0)
        net = omega(2)
        m = MRSIN(net)
        n = occupy_random_circuits(net, m, 10, rng)
        assert n <= 2  # only two processors exist


class TestSampling:
    def test_full_density(self):
        m = sample_instance(WorkloadSpec(builder=omega, n_ports=8), rng=1)
        assert len(m.pending) == 8
        assert len(m.free_resources()) == 8

    def test_partial_density_statistics(self):
        spec = WorkloadSpec(builder=omega, n_ports=16, request_density=0.5, free_density=0.5)
        total_req = total_free = 0
        for seed in range(40):
            m = sample_instance(spec, rng=seed)
            total_req += len(m.pending)
            total_free += len(m.free_resources())
        # Expect ~0.5 * 16 * 40 = 320 each; allow generous slack.
        assert 240 < total_req < 400
        assert 240 < total_free < 400

    def test_occupied_circuits_applied(self):
        spec = WorkloadSpec(builder=omega, n_ports=8, occupied_circuits=2)
        m = sample_instance(spec, rng=3)
        assert len(m.network.circuits) == 2
        # Processors holding circuits never also request.
        for circuit in m.network.circuits:
            assert circuit.processor not in {r.processor for r in m.pending}

    def test_priorities_sampled_in_range(self):
        spec = WorkloadSpec(builder=omega, n_ports=8, priority_levels=5)
        m = sample_instance(spec, rng=4)
        assert m.max_priority == 5
        for req in m.pending:
            assert 1 <= req.priority <= 5
        for res in m.resources:
            assert 1 <= res.preference <= 5

    def test_heterogeneous_types(self):
        spec = WorkloadSpec(builder=omega, n_ports=8, resource_types=["fft", "conv"])
        m = sample_instance(spec, rng=5)
        assert m.is_heterogeneous
        assert [r.resource_type for r in m.resources] == ["fft", "conv"] * 4
        for req in m.pending:
            assert req.resource_type in ("fft", "conv")

    def test_determinism(self):
        spec = WorkloadSpec(builder=omega, n_ports=8, request_density=0.5)
        a = sample_instance(spec, rng=42)
        b = sample_instance(spec, rng=42)
        assert [r.processor for r in a.pending] == [r.processor for r in b.pending]
        assert [r.busy for r in a.resources] == [r.busy for r in b.resources]
