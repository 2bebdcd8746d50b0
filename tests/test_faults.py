"""Tests for the fault model: core exclusion semantics, revocation,
the seeded injector, and fault churn through ``run_service``."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, OptimalScheduler, Request
from repro.core.heuristic import greedy_schedule
from repro.core.incremental import KernelFlowEngine
from repro.faults import FaultEvent, FaultInjector, apply_event
from repro.networks import benes, build_network, omega
from repro.service.driver import run_service
from repro.service.invariants import InvariantError
from repro.service.server import AllocationService
from repro.sim.workload import WorkloadSpec


def fresh(n=8, n_requests=None):
    m = MRSIN(omega(n))
    for p in range(n if n_requests is None else n_requests):
        m.submit(Request(p))
    return m


# ----------------------------------------------------------------------
# Core exclusion: failed components never enter a schedule
# ----------------------------------------------------------------------
class TestCoreFaultModel:
    def test_failed_resource_not_allocated(self):
        m = fresh(8)
        m.set_failed("resource", 0)
        m.set_failed("resource", 1)
        mapping = OptimalScheduler().schedule(m)
        assert all(a.resource.index not in (0, 1) for a in mapping.assignments)
        assert len(mapping) == 6  # 8 requests, 6 surviving resources

    def test_failed_input_link_blocks_processor(self):
        m = fresh(8)
        link = m.network.processor_link(3)
        m.set_failed("link", link.index)
        assert all(r.processor != 3 for r in m.schedulable_requests())
        mapping = OptimalScheduler().schedule(m)
        assert all(a.request.processor != 3 for a in mapping.assignments)

    def test_failed_switchbox_excluded_everywhere(self):
        """Optimal and greedy schedules both avoid a dead switchbox."""
        m = fresh(8)
        m.set_failed("switchbox", (0, 0))
        for mapping in (OptimalScheduler().schedule(m), greedy_schedule(m)):
            for a in mapping.assignments:
                for link in a.path:
                    for ref in (link.src, link.dst):
                        if ref.kind in ("box_in", "box_out"):
                            assert (ref.stage, ref.box) != (0, 0)

    def test_faulted_solve_equals_subgraph_solve(self):
        """Theorem 2 on the surviving subgraph: failing half the
        resources gives exactly the max flow of the degraded network."""
        m = fresh(8)
        for idx in range(0, 8, 2):
            m.set_failed("resource", idx)
        assert len(OptimalScheduler().schedule(m)) == 4

    def test_fail_and_repair_are_idempotent(self):
        m = fresh(4)
        for kind, target in (("link", 0), ("switchbox", (0, 0)), ("resource", 2)):
            for failed in (True, False):
                assert m.set_failed(kind, target, failed) is True
                assert m.set_failed(kind, target, failed) is False
        assert m.failed_components() == {"links": [], "switchboxes": [], "resources": []}

    def test_repair_restores_full_capacity(self):
        m = fresh(8)
        m.set_failed("resource", 0)
        m.set_failed("resource", 0, failed=False)
        assert len(OptimalScheduler().schedule(m)) == 8

    def test_reset_clears_faults(self):
        m = fresh(4)
        m.set_failed("link", 0)
        m.set_failed("switchbox", (0, 0))
        m.set_failed("resource", 1)
        m.reset()
        assert m.failed_components() == {"links": [], "switchboxes": [], "resources": []}

    def test_establish_circuit_rejects_failed_path(self):
        m = fresh(8)
        mapping = OptimalScheduler().schedule(m)
        path = mapping.assignments[0].path
        m.set_failed("link", path[0].index)
        with pytest.raises(ValueError, match="failed"):
            m.network.establish_circuit(path)


# ----------------------------------------------------------------------
# Severed circuits and revocation
# ----------------------------------------------------------------------
class TestSeveranceAndRevoke:
    def _allocate_one(self):
        m = MRSIN(omega(8))
        m.submit(Request(0))
        mapping = OptimalScheduler().schedule(m)
        m.apply_mapping(mapping)
        a = mapping.assignments[0]
        return m, a.resource.index, a.path

    def test_link_fault_severs_held_circuit(self):
        m, res, path = self._allocate_one()
        assert m.severed_resources() == []
        m.set_failed("link", path[1].index)
        assert m.severed_resources() == [res]

    def test_resource_fault_severs_even_after_transmission(self):
        m, res, _ = self._allocate_one()
        m.complete_transmission(res)  # circuit gone, resource still busy
        m.set_failed("resource", res)
        assert m.severed_resources() == [res]

    def test_revoke_frees_links_and_resource(self):
        m, res, path = self._allocate_one()
        m.set_failed("link", path[0].index)
        circuit = m.revoke(res)
        assert circuit is not None
        assert not m.resources[res].busy
        assert all(not link.occupied for link in path)
        assert m.severed_resources() == []

    def test_revoke_idle_resource_raises(self):
        m = MRSIN(omega(4))
        with pytest.raises(ValueError, match="not busy"):
            m.revoke(0)

    def test_warm_engine_absorbs_fault_without_rebuild(self):
        """A fault/repair between ticks is a capacity delta the sync
        scan absorbs in place — no cold rebuild of the engine."""
        m = MRSIN(omega(8))
        engine = KernelFlowEngine(m)
        sched = OptimalScheduler()
        for p in range(4):
            m.submit(Request(p))
        mapping = sched.schedule_incremental(m, engine=engine)
        m.apply_mapping(mapping)
        engine.commit(mapping)
        builds_before = engine.builds
        m.set_failed("resource", 6)
        m.set_failed("link", m.network.processor_link(7).index)
        for p in range(4, 8):
            m.submit(Request(p))
        degraded = sched.schedule_incremental(m, engine=engine)
        assert engine.builds == builds_before  # absorbed, not rebuilt
        assert all(a.resource.index != 6 for a in degraded.assignments)
        cold = len(OptimalScheduler().schedule(m, [r for r in m.schedulable_requests()]))
        assert len(degraded) == cold


# ----------------------------------------------------------------------
# The injector: seeded, replayable, transient repairs ride the timeline
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        m = MRSIN(omega(8))
        histories = []
        for _ in range(2):
            inj = FaultInjector(m, rng=42, fault_rate=0.5)
            history = []
            for t in range(1, 101):
                history.extend(inj.events_until(float(t)))
            histories.append(history)
        assert histories[0] == histories[1]
        assert len(histories[0]) > 0

    def test_events_arrive_in_time_order(self):
        inj = FaultInjector(MRSIN(omega(8)), rng=7, fault_rate=1.0)
        events = inj.events_until(50.0)
        assert events == sorted(events, key=lambda e: e.time)

    def test_transient_faults_schedule_repairs(self):
        inj = FaultInjector(
            MRSIN(omega(8)), rng=1, fault_rate=1.0,
            transient_fraction=1.0, mean_repair=1.0,
        )
        events = inj.events_until(200.0)
        faults = [e for e in events if not e.repair]
        repairs = [e for e in events if e.repair]
        assert all(e.transient for e in faults)
        # Every fault's repair eventually lands on the same target.
        assert {(e.kind, e.target) for e in repairs} <= {(e.kind, e.target) for e in faults}
        assert len(repairs) > 0

    def test_permanent_faults_never_heal(self):
        inj = FaultInjector(
            MRSIN(omega(8)), rng=1, fault_rate=1.0, transient_fraction=0.0,
        )
        events = inj.events_until(100.0)
        assert events and all(not e.repair and not e.transient for e in events)

    def test_apply_event_round_trip(self):
        m = MRSIN(omega(8))
        fail = FaultEvent(time=0.0, kind="link", target=3)
        heal = FaultEvent(time=1.0, kind="link", target=3, repair=True)
        assert apply_event(m, fail) is True
        assert m.network.links[3].failed
        assert apply_event(m, fail) is False  # idempotent
        assert apply_event(m, heal) is True
        assert not m.network.links[3].failed

    def test_apply_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            apply_event(MRSIN(omega(4)), FaultEvent(time=0.0, kind="bus", target=0))

    def test_injector_validates_parameters(self):
        m = MRSIN(omega(4))
        with pytest.raises(ValueError):
            FaultInjector(m, fault_rate=0.0)
        with pytest.raises(ValueError):
            FaultInjector(m, transient_fraction=1.5)
        with pytest.raises(ValueError):
            FaultInjector(m, mean_repair=-1.0)

    @pytest.mark.parametrize("knob", ["fault_rate", "mean_repair"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_injector_rejects_nan_and_inf(self, knob, value):
        """NaN passes ``x <= 0``: the injector then never draws a fault
        (``nan <= now`` is false for ever) and a chaos run reports
        "invariants all held" over zero faults."""
        with pytest.raises(ValueError, match=knob):
            FaultInjector(MRSIN(omega(4)), **{knob: value})


# ----------------------------------------------------------------------
# Chaos: churn with hard invariants, through run_service(fault_rate=)
# (CI runs the full 2000-tick job)
# ----------------------------------------------------------------------
def churn(topology="omega", ports=16, horizon=400.0, seed=5, **kwargs):
    """``run_service`` under fault churn, as ``serve --fault-rate`` runs it."""
    kwargs.setdefault("rate", 0.4)
    kwargs.setdefault("fault_rate", 0.08)
    spec = WorkloadSpec(partial(build_network, topology), ports)
    return run_service(spec, horizon=horizon, seed=seed, **kwargs)


class TestChaos:
    def test_chaos_invariants_hold_on_omega(self):
        snap = churn().snapshot
        assert snap["allocated"] > 0
        assert snap["released"] > 0
        assert snap["faults_injected"] > 0
        assert snap["ticks"] == 400  # every one through checked_cycle

    def test_chaos_exercises_revocation(self):
        # Seed/rate chosen so faults actually sever live circuits.
        assert churn(fault_rate=0.2).snapshot["revoked"] > 0

    @pytest.mark.parametrize("topology", ["benes", "clos"])
    def test_chaos_invariants_hold_on_rearrangeable_nets(self, topology):
        snap = churn(topology, ports=8, horizon=150, seed=9).snapshot
        assert snap["allocated"] > 0 and snap["faults_injected"] > 0

    def test_chaos_is_deterministic(self):
        a = churn(ports=8, horizon=120, seed=3)
        b = churn(ports=8, horizon=120, seed=3)
        assert a == b

    def test_chaos_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown topology"):
            churn("hypercube9", horizon=10)
        with pytest.raises(ValueError, match="horizon"):
            churn(horizon=0)
        # The repair knobs come from outside the program: checked even
        # when no injector will run.
        with pytest.raises(ValueError, match="transient_fraction"):
            churn(horizon=10, fault_rate=0.0, transient_fraction=1.5)
        with pytest.raises(ValueError, match="mean_repair"):
            churn(horizon=10, fault_rate=0.0, mean_repair=float("nan"))

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1.0])
    def test_chaos_rate_must_be_finite_and_not_negative(self, rate):
        """inf used to reach numpy: ``lam value too large``."""
        with pytest.raises(ValueError, match="arrival rate must be positive and finite"):
            churn(horizon=10, rate=rate)
        with pytest.raises(ValueError, match="fault_rate must be positive and finite"):
            churn(horizon=10, fault_rate=rate)

    @pytest.mark.parametrize(
        "topology,ports,complaint",
        [("clos", 7, "6x6"), ("omega", 6, "power of two")],
    )
    def test_chaos_rejects_a_size_the_topology_cannot_build(
        self, topology, ports, complaint
    ):
        """Regression: chaos kept its own builder table without the
        realised-size check, so clos-7 churned a 6x6 network and
        reported it as ``chaos: clos-7``."""
        with pytest.raises(ValueError, match=complaint):
            churn(topology, ports=ports, horizon=10)

    @pytest.mark.parametrize(
        "topology,levels", [("benes", 1), ("clos", 3)], ids=["benes", "clos"]
    )
    def test_a_fault_on_background_load_is_reclaimed(self, topology, levels):
        """Background circuits used to bypass the MRSIN's transmission
        table, so a fault on one was never reclaimed and the run
        stopped with "failed link 43 still carries a circuit"."""
        spec = WorkloadSpec(
            partial(build_network, topology), 16,
            occupied_circuits=4, priority_levels=levels,
        )
        result = run_service(spec, horizon=400, seed=11, fault_rate=0.3)
        assert result.snapshot["revoked"] > 0
        assert result.snapshot["faults_injected"] > 0

    def test_a_leaking_release_is_caught_at_the_next_tick(self, monkeypatch):
        """A release that forgets its lease but keeps the resource busy
        breaks lease conservation; the run names the tick that saw it."""

        def leaky_release(self, lease):
            lease.active = False
            del self._leases[lease.lease_id]

        monkeypatch.setattr(AllocationService, "release", leaky_release)
        with pytest.raises(InvariantError, match=r"tick at t=\d+: .* a lease leaked"):
            churn(ports=8, horizon=60, fault_rate=0.0)


# ----------------------------------------------------------------------
# Property: apply_mapping round-trips exactly (fault-free bookkeeping
# is what revocation accounting builds on)
# ----------------------------------------------------------------------
class TestApplyMappingRoundTrip:
    @given(seed=st.integers(0, 10**6), n_failed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apply_then_release_restores_state(self, seed, n_failed):
        """apply_mapping → complete_service(each) restores every link's
        occupancy and the free-resource pool bit for bit, including on
        a degraded network."""
        m = MRSIN(benes(8) if seed % 2 else omega(8))
        for idx in range(n_failed):
            m.set_failed("resource", (seed + idx) % 8)
        m.set_failed("link", seed % len(m.network.links))
        for p in range(8):
            m.submit(Request(p))
        occupancy_before = [link.occupied for link in m.network.links]
        free_before = [res.index for res in m.free_resources()]
        mapping = OptimalScheduler().schedule(m)
        m.apply_mapping(mapping)
        for a in mapping.assignments:
            m.complete_service(a.resource.index)
        assert [link.occupied for link in m.network.links] == occupancy_before
        assert [res.index for res in m.free_resources()] == free_before
        assert m.severed_resources() == []
