"""Tests for the heuristic (address-mapped) comparator schedulers."""

import numpy as np
import pytest

from repro.core import (
    MRSIN,
    OptimalScheduler,
    Request,
    arbitrary_schedule,
    greedy_schedule,
    random_binding_schedule,
)
from repro.networks import crossbar, omega
from repro.networks.routing import destination_tag_path


def loaded_omega():
    m = MRSIN(omega(8))
    for p in range(8):
        m.submit(Request(p))
    return m


class TestGreedy:
    def test_network_left_pristine(self):
        m = loaded_omega()
        before = m.network.occupancy()
        greedy_schedule(m)
        assert m.network.occupancy() == before == 0.0
        assert len(m.pending) == 8  # scheduling does not consume requests

    def test_mapping_is_applicable(self):
        m = loaded_omega()
        mapping = greedy_schedule(m)
        mapping.validate(m)
        m.apply_mapping(mapping)

    def test_respects_types(self):
        m = MRSIN(crossbar(4, 4), resource_types=["a", "a", "b", "b"])
        m.submit(Request(0, resource_type="b"))
        mapping = greedy_schedule(m)
        assert len(mapping) == 1
        assert mapping.assignments[0].resource.resource_type == "b"

    def test_no_duplicate_resources(self):
        m = loaded_omega()
        mapping = greedy_schedule(m, order="random", rng=3)
        resources = [a.resource.index for a in mapping]
        assert len(set(resources)) == len(resources)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            greedy_schedule(loaded_omega(), order="sideways")

    def test_deterministic_given_seed(self):
        m1, m2 = loaded_omega(), loaded_omega()
        a = greedy_schedule(m1, order="random", rng=11)
        b = greedy_schedule(m2, order="random", rng=11)
        assert a.pairs == b.pairs


class TestRandomBinding:
    def test_blocks_more_than_optimal_on_average(self):
        """The SIM-BLOCK premise at unit scale: over many random
        states, address mapping loses allocations that the optimal
        scheduler finds."""
        sched = OptimalScheduler()
        opt_total = heur_total = 0
        for seed in range(30):
            m1, m2 = loaded_omega(), loaded_omega()
            opt_total += len(sched.schedule(m1))
            heur_total += len(random_binding_schedule(m2, rng=seed))
        assert opt_total == 30 * 8  # optimal always allocates fully here
        assert heur_total < opt_total  # binding blindly must block sometimes

    def test_applicable_and_pristine(self):
        m = loaded_omega()
        mapping = random_binding_schedule(m, rng=1)
        assert m.network.occupancy() == 0.0
        m.apply_mapping(mapping)


class TestArbitrary:
    def test_identity_binding_when_free(self):
        m = MRSIN(crossbar(3, 3))
        for p in range(3):
            m.submit(Request(p))
        mapping = arbitrary_schedule(m)
        assert mapping.pairs == {(0, 0), (1, 1), (2, 2)}

    def test_blocks_without_alternatives(self):
        """On a unique-path Omega the fixed binding frequently blocks
        even though free resources remain — the paper's motivation for
        extra stages."""
        blocked_any = False
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = omega(8)
            m = MRSIN(net)
            for _ in range(2):
                p, r = int(rng.integers(0, 8)), int(rng.integers(0, 8))
                path = net.find_free_path(p, r)
                if path:
                    net.establish_circuit(path)
                    m.resources[r].busy = True
            for p in range(8):
                if not net.processor_link(p).occupied:
                    m.submit(Request(p))
            n_req = len(m.schedulable_requests())
            n_free = len(m.free_resources())
            if len(arbitrary_schedule(m)) < min(n_req, n_free):
                blocked_any = True
        assert blocked_any


@pytest.mark.parametrize("policy", [greedy_schedule, random_binding_schedule, arbitrary_schedule])
def test_a_circuit_failing_mid_batch_leaves_every_link_as_it_started(policy, monkeypatch):
    m = loaded_omega()
    m.network.establish_circuit(destination_tag_path(m.network, 7, 7))
    before = [link.occupied for link in m.network.links]
    establish = m.network.establish_circuit
    calls = []

    def fails_third(path):
        calls.append(path)
        if len(calls) == 3:
            raise RuntimeError("link failed mid-batch")
        return establish(path)

    monkeypatch.setattr(m.network, "establish_circuit", fails_third)
    with pytest.raises(RuntimeError, match="mid-batch"):
        policy(m)
    assert len(calls) == 3
    assert [link.occupied for link in m.network.links] == before
