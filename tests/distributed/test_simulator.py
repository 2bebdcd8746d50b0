"""Tests for the distributed token-propagation scheduler.

The central claims verified here:

- the distributed architecture computes exactly the software optimum
  (it realises Dinic's algorithm, Theorems 2 and 4);
- the Fig. 10 state machine is traversed in the documented order;
- flow cancellation (reallocation) works through token propagation
  (the paper's Fig. 4 / Fig. 8 behaviour);
- markings, bonding, and registration leave the physical network
  untouched until the mapping is applied.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, OptimalScheduler, Request
from repro.distributed import DistributedScheduler, GlobalState
from repro.networks import baseline, benes, crossbar, cube, omega


def harsh_state(seed: int, n: int = 8, builder=omega):
    """Random *individual* link occupancy — the harshest partial state
    (a link can be held by traffic the scheduler does not control)."""
    rng = np.random.default_rng(seed)
    net = builder(n)
    m = MRSIN(net)
    for link in net.links:
        if rng.random() < 0.25:
            link.occupied = True
    for r in range(n):
        if rng.random() < 0.3:
            m.resources[r].busy = True
    for p in range(n):
        if rng.random() < 0.8 and not net.processor_link(p).occupied:
            m.submit(Request(p))
    return m


def random_state(seed: int, n: int = 8, builder=omega):
    """A random partially-occupied MRSIN with random requests."""
    rng = np.random.default_rng(seed)
    net = builder(n)
    m = MRSIN(net)
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        p, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        path = net.find_free_path(p, r)
        if path:
            net.establish_circuit(path)
            m.resources[r].busy = True
    for p in range(n):
        if rng.random() < 0.7 and not net.processor_link(p).occupied:
            m.submit(Request(p))
    return m


class TestEquivalenceWithSoftwareDinic:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_optimal_on_omega(self, seed):
        m = random_state(seed)
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal
        outcome.mapping.validate(m)

    @pytest.mark.parametrize("builder", [omega, cube, baseline, benes, crossbar])
    def test_matches_optimal_across_topologies(self, builder):
        for seed in range(8):
            m = random_state(1000 + seed, builder=builder)
            optimal = len(OptimalScheduler().schedule(m))
            outcome = DistributedScheduler().schedule(m)
            assert len(outcome.mapping) == optimal

    def test_full_allocation_on_free_omega(self):
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == 8
        m.apply_mapping(outcome.mapping)
        assert m.utilization() == 1.0


class TestReallocationThroughCancellation:
    def test_fig4_style_reallocation(self):
        """Pre-register a conflicting partial allocation by running one
        cycle, then verify a later cycle reallocates.  Equivalent
        behaviour: a single cycle starting from a state where greedy
        would block must still reach the optimum (the augmenting path
        cancels tentative flow *within* the cycle's iterations)."""
        # On omega(8), requests that force at least two Dinic
        # iterations: craft by occupying circuits.
        found_multi_iteration = False
        for seed in range(60):
            m = random_state(seed)
            outcome = DistributedScheduler().schedule(m)
            if outcome.iterations >= 2 and len(outcome.mapping) >= 2:
                found_multi_iteration = True
                optimal = len(OptimalScheduler().schedule(m))
                assert len(outcome.mapping) == optimal
        assert found_multi_iteration, "no multi-iteration instance found"

    def test_cancellation_trace_visible(self):
        """Harsh link-occupancy states force genuine flow cancellation
        (registered links traversed backward), and the result still
        matches the software optimum."""
        sched = DistributedScheduler(record=True)
        opt = OptimalScheduler()
        saw_cancel = 0
        for seed in range(120):
            m = harsh_state(seed)
            outcome = sched.schedule(m)
            assert len(outcome.mapping) == len(opt.schedule(m))
            if any("cancels" in t.detail for t in outcome.token_trace):
                saw_cancel += 1
        assert saw_cancel >= 3

    def test_same_pairing_expelled_regression(self):
        """Regression: an augmenting path that cancels both the in-
        and out-link of one old path segment through a box must delete
        that box's pairing outright (seed 31 of the harsh sweep used
        to KeyError here)."""
        m = harsh_state(31)
        outcome = DistributedScheduler().schedule(m)
        outcome.mapping.validate(m)
        assert len(outcome.mapping) == len(OptimalScheduler().schedule(m))


class TestStateMachine:
    def test_trace_follows_fig10(self):
        m = MRSIN(omega(8))
        for p in range(4):
            m.submit(Request(p))
        outcome = DistributedScheduler().schedule(m)
        trace = outcome.state_trace
        assert trace[0] is GlobalState.IDLE
        assert trace[-1] is GlobalState.ALLOCATION
        # Every iteration follows REQUEST -> STOP -> RESOURCE -> REGISTRATION.
        for i, state in enumerate(trace):
            if state is GlobalState.TOKEN_STOP:
                assert trace[i - 1] is GlobalState.REQUEST_PROPAGATION
                assert trace[i + 1] is GlobalState.RESOURCE_PROPAGATION
            if state is GlobalState.PATH_REGISTRATION:
                assert trace[i - 1] is GlobalState.RESOURCE_PROPAGATION

    def test_no_requests_goes_to_waiting_like_idle(self):
        m = MRSIN(omega(8))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == 0
        assert GlobalState.REQUEST_PROPAGATION not in outcome.state_trace[:1]

    def test_no_free_resources_finds_nothing(self):
        m = MRSIN(omega(8))
        for r in range(8):
            m.resources[r].busy = True
        m.submit(Request(0))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == 0

    def test_iterations_counted(self):
        m = MRSIN(omega(8))
        m.submit(Request(0))
        outcome = DistributedScheduler().schedule(m)
        assert outcome.iterations >= 1
        assert outcome.clocks > 0


class TestHygiene:
    def test_network_left_pristine(self):
        m = random_state(3)
        occupancy_before = m.network.occupancy()
        settings_before = m.network.switch_settings()
        DistributedScheduler().schedule(m)
        assert m.network.occupancy() == occupancy_before
        assert m.network.switch_settings() == settings_before

    def test_heterogeneous_rejected(self):
        m = MRSIN(crossbar(2, 2), resource_types=["a", "b"])
        m.submit(Request(0, resource_type="a"))
        with pytest.raises(ValueError, match="homogeneous"):
            DistributedScheduler().schedule(m)

    def test_busy_resources_never_bonded(self):
        m = MRSIN(omega(8))
        for r in range(4):
            m.resources[r].busy = True
        for p in range(8):
            m.submit(Request(p))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == 4
        for a in outcome.mapping:
            assert a.resource.index >= 4

    def test_clock_cost_scales_with_iterations(self):
        """Clocks >= iterations * (network depth) roughly: each
        iteration needs at least one full traversal."""
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        outcome = DistributedScheduler().schedule(m)
        depth = m.network.n_stages + 1
        assert outcome.clocks >= outcome.iterations * depth


@given(seed=st.integers(0, 100_000), n_log=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_property_distributed_equals_software_optimum(seed, n_log):
    """Property: for any random Omega state, the token architecture
    allocates exactly the software max-flow optimum, and its mapping
    is realisable."""
    m = random_state(seed, n=1 << n_log)
    optimal = len(OptimalScheduler().schedule(m))
    outcome = DistributedScheduler().schedule(m)
    assert len(outcome.mapping) == optimal
    outcome.mapping.validate(m)
    m.apply_mapping(outcome.mapping)


class TestNonSquareBoxTopologies:
    """Clos and gamma have rectangular switchboxes (n x m, 1x3, 3x1);
    the token architecture must be exact there too."""

    @pytest.mark.parametrize("seed", range(8))
    def test_clos_equivalence(self, seed):
        from repro.networks import clos

        m = random_state(3000 + seed, builder=lambda n: clos(3, 2, 4))
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal
        outcome.mapping.validate(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_gamma_harsh_equivalence(self, seed):
        from repro.networks import gamma

        m = harsh_state(4000 + seed, builder=gamma)
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal

    def test_large_network_stress(self):
        m = random_state(5000, n=32)
        optimal = len(OptimalScheduler().schedule(m))
        outcome = DistributedScheduler().schedule(m)
        assert len(outcome.mapping) == optimal
        # Clocks stay modest: parallel search is logarithmic-ish.
        assert outcome.clocks < 40 * outcome.iterations + 40


class TestDeterminism:
    def test_repeat_scheduling_identical(self):
        """The protocol is deterministic: the same state yields the
        same mapping, clock count, and trace every run."""
        a = DistributedScheduler(record=True).schedule(harsh_state(42))
        b = DistributedScheduler(record=True).schedule(harsh_state(42))
        assert a.mapping.pairs == b.mapping.pairs
        assert a.clocks == b.clocks
        assert a.iterations == b.iterations
        assert [t.detail for t in a.token_trace] == [t.detail for t in b.token_trace]

    def test_explicit_request_list_respected(self):
        m = MRSIN(omega(8))
        for p in range(8):
            m.submit(Request(p))
        subset = m.schedulable_requests()[:3]
        outcome = DistributedScheduler().schedule(m, subset)
        assert len(outcome.mapping) == 3
        assert {a.request.processor for a in outcome.mapping} == {
            r.processor for r in subset
        }
