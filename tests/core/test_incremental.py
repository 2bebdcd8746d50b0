"""Tests for the per-tick :class:`KernelFlowEngine`.

The load-bearing property is *differential*: a solve on the kernel the
engine rewrites from the live MRSIN each cycle must allocate exactly
as many requests as a cold Transformation-1 build-and-solve on the
same state.  The stochastic lifecycle test pins that down across many
ticks of allocation, transmission teardown and release, on one kernel
allocation; the hypothesis machine at the end interleaves every MRSIN
mutator, none of them reported to the engine, and checks that the
engine can never answer from stale state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MRSIN,
    Discipline,
    KernelFlowEngine,
    OptimalScheduler,
    Request,
)
from repro.core.model import FAULT_KINDS
from repro.networks import TOPOLOGIES, benes, build_network, omega
from repro.networks.topology import MultistageNetwork, PortRef

from tests.core.test_lowering import degraded_system


def cold_count(mrsin: MRSIN, reqs) -> int:
    """Allocations a from-scratch solve finds on the current state."""
    return len(OptimalScheduler().schedule(mrsin, reqs))


def run_lifecycle(mrsin: MRSIN, engine: KernelFlowEngine, rng, ticks: int) -> int:
    """Drive random request/teardown/release traffic; differential-check
    every tick.  Returns the total number of allocations."""
    holding: dict[int, int] = {}  # resource index -> processor of its circuit
    busy: set[int] = set()  # resources serving with the circuit torn down
    total = 0
    for _ in range(ticks):
        transmitting = set(holding.values())
        idle = [p for p in range(mrsin.n_processors) if p not in transmitting]
        n = int(rng.integers(0, len(idle) + 1))
        reqs = [Request(int(p)) for p in rng.choice(idle, size=n, replace=False)]

        expected = cold_count(mrsin, reqs)
        mapping = engine.schedule(reqs)
        assert len(mapping) == expected  # the differential property
        mrsin.apply_mapping(mapping)  # validates the circuits too
        total += len(mapping)
        for a in mapping.assignments:
            holding[a.resource.index] = a.request.processor

        # Tear down some transmissions (resource stays busy) ...
        for res in [r for r in list(holding) if rng.random() < 0.3]:
            mrsin.complete_transmission(res)
            del holding[res]
            busy.add(res)
        # ... and complete some services (with or without a live circuit).
        for res in [r for r in list(busy) if rng.random() < 0.4]:
            mrsin.complete_service(res)
            busy.discard(res)
        for res in [r for r in list(holding) if rng.random() < 0.15]:
            mrsin.complete_service(res)
            del holding[res]
    return total


class TestDifferential:
    # One engine, still parametrised: the leg keeps its recorded test id.
    @pytest.mark.parametrize("engine_cls", [KernelFlowEngine])
    @pytest.mark.parametrize("builder,size", [(omega, 8), (benes, 8), (omega, 16)])
    def test_warm_matches_cold_every_tick(self, builder, size, engine_cls):
        mrsin = MRSIN(builder(size))
        engine = engine_cls(mrsin)
        rng = np.random.default_rng(7)
        total = run_lifecycle(mrsin, engine, rng, ticks=60)
        assert total > 0
        assert engine.builds == 1  # one kernel, rewritten every tick
        assert engine.warm_ticks == 60

    def test_full_batch_on_free_network(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(8)])
        assert len(mapping) == 8
        mrsin.apply_mapping(mapping)
        assert engine.last_new_flow == 8

    def test_empty_batch(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        assert len(engine.schedule([])) == 0
        assert engine.last_new_flow == 0


def build_time_levels(mrsin: MRSIN) -> list[int]:
    """BFS from ``s`` over the wiring-time layout's forward arcs (the
    arcs the engine's kernel copies), capacity ignored: the first phase
    of a solve with every arc open."""
    kernel = mrsin.network.flow_layout().kernel
    levels = [-1] * kernel.n_nodes
    levels[0] = 0
    queue = [0]
    for v in queue:
        a = kernel.head[v]
        while a != -1:
            w = kernel.to[a]
            if not a & 1 and levels[w] < 0:
                levels[w] = levels[v] + 1
                queue.append(w)
            a = kernel.next_arc[a]
    return levels


def hand_built() -> MultistageNetwork:
    """Two processors, three resources: the stage-0 box reaches r2
    directly, skipping stage 1, and box (1, 1) feeds r1 but is fed by
    nothing."""
    net = MultistageNetwork("hand", 2, 3)
    net.add_stage([(2, 2)])
    net.add_stage([(1, 1), (1, 1)])
    for p in range(2):
        net.add_link(PortRef.processor(p), PortRef.box_in(0, 0, p))
    net.add_link(PortRef.box_out(0, 0, 0), PortRef.box_in(1, 0, 0))
    net.add_link(PortRef.box_out(0, 0, 1), PortRef.resource(2))
    net.add_link(PortRef.box_out(1, 0, 0), PortRef.resource(0))
    net.add_link(PortRef.box_out(1, 1, 0), PortRef.resource(1))
    return net


class TestLevelTable:
    """``MultistageNetwork.flow_levels`` is the engine's first phase: it
    must be that BFS, whatever the network's state."""

    @pytest.mark.parametrize("ports", [4, 8, 16])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_registry_levels_are_the_build_time_bfs(self, name, ports):
        try:
            network = build_network(name, ports)
        except ValueError:
            pytest.skip(f"{name} has no {ports}-port build")
        mrsin = MRSIN(network)
        # Load and faults change capacities, never the labelling.
        mrsin.apply_mapping(OptimalScheduler().schedule(mrsin, [Request(0), Request(1)]))
        mrsin.set_failed("link", network.links[-1].index)
        assert network.flow_levels == build_time_levels(mrsin)

    def test_hand_built_levels_are_the_build_time_bfs(self):
        mrsin = MRSIN(hand_built())
        levels = mrsin.network.flow_levels
        assert levels == build_time_levels(mrsin)
        # t sits above the nearest resource (r2, one box away); box
        # (1, 1) and r1 are unreached.
        assert levels[1] == 4 and levels[5:8] == [4, -1, 3]
        assert levels[-1] == -1

    def test_engine_serves_the_hand_built_network(self):
        mrsin = MRSIN(hand_built())
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(0), Request(1)])
        assert len(mapping) == cold_count(mrsin, [Request(0), Request(1)]) == 2
        mrsin.apply_mapping(mapping)


class TestLifecycle:
    def test_release_makes_resource_reusable(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(8)])
        mrsin.apply_mapping(mapping)
        # Saturated: nothing more to allocate even cold.
        assert cold_count(mrsin, []) == 0
        a = mapping.assignments[0]
        mrsin.complete_service(a.resource.index)
        follow_up = engine.schedule([Request(a.request.processor)])
        assert len(follow_up) == 1
        assert engine.builds == 1

    def test_transmission_end_frees_links_not_resource(self):
        mrsin = MRSIN(omega(4))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(4)])
        mrsin.apply_mapping(mapping)
        for a in mapping.assignments:
            mrsin.complete_transmission(a.resource.index)
        # Links are free again but every resource is still serving:
        # the engine and a cold solve must both find zero.
        reqs = [Request(p) for p in range(4)]
        assert cold_count(mrsin, reqs) == 0
        assert len(engine.schedule(reqs)) == 0
        assert engine.builds == 1

    def test_transmitting_processor_rejected(self):
        """A processor still transmitting gets nothing: its input link
        is occupied, so its link arc is closed in the engine's kernel
        and in a cold lowering alike.  (The service's batch selection
        keeps such a request queued before any solve sees it.)"""
        mrsin = MRSIN(omega(4))
        engine = KernelFlowEngine(mrsin)
        mrsin.apply_mapping(engine.schedule([Request(0)]))
        assert len(engine.schedule([Request(0)])) == cold_count(mrsin, [Request(0)]) == 0
        both = [Request(0), Request(1)]
        mapping = engine.schedule(both)
        assert len(mapping) == cold_count(mrsin, both) == 1
        assert mapping.assignments[0].request == Request(1)

    def test_duplicate_processor_rejected(self):
        engine = KernelFlowEngine(MRSIN(omega(4)))
        with pytest.raises(ValueError, match="one request per processor"):
            engine.schedule([Request(1), Request(1)])

    def test_uncommitted_schedule_rolls_back(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        discarded = engine.schedule([Request(p) for p in range(8)])
        assert len(discarded) == 8  # never applied
        mapping = engine.schedule([Request(p) for p in range(8)])
        assert len(mapping) == 8  # the unused solve's flow is not carried over
        mrsin.apply_mapping(mapping)


def _buildable() -> list[tuple[str, int]]:
    draws = []
    for name in sorted(TOPOLOGIES):
        for ports in (4, 8, 16):
            try:
                build_network(name, ports)
            except ValueError:
                continue
            draws.append((name, ports))
    return draws


#: Every (registry topology, port count <= 16) that builds.
BUILDS = _buildable()


def mrsin_state(mrsin: MRSIN) -> tuple[list, ...]:
    """Everything a solve may read and must not write."""
    network = mrsin.network
    return (
        [(link.occupied, link.failed) for link in network.links],
        [box.failed for box in network.boxes()],
        [(res.busy, res.failed) for res in mrsin.resources],
        [(c.processor, c.resource, c.links) for c in network.circuits],
        list(mrsin.pending),
    )


class TestNeverStale:
    """No MRSIN mutator is ever reported to the engine, and none needs
    to be: after each one the engine grants exactly as many requests as
    a cold solve of the same batch, on its one kernel, and writes
    nothing back."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unreported_mutations_never_leave_the_engine_stale(self, data):
        name, ports = data.draw(st.sampled_from(BUILDS), label="topology")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        mrsin, _ = degraded_system(name, seed, ports=ports)
        network = mrsin.network
        engine = KernelFlowEngine(mrsin)
        processors = st.lists(st.integers(0, ports - 1), unique=True)

        def check() -> None:
            batch = [Request(p) for p in data.draw(processors, label="batch")]
            before = mrsin_state(mrsin)
            mapping = engine.schedule(batch)
            assert mrsin_state(mrsin) == before
            assert engine.builds == 1
            cold = OptimalScheduler().schedule(mrsin, batch, discipline=Discipline.HOMOGENEOUS)
            assert len(mapping) == len(cold)
            mapping.validate(mrsin)

        check()
        calls = ["row 1", "row 2", "complete_transmission", "complete_service", "revoke"]
        calls += [(kind, failed) for kind in FAULT_KINDS for failed in (True, False)]
        for _ in range(data.draw(st.integers(1, 10), label="calls")):
            call = data.draw(st.sampled_from(calls), label="call")
            transmitting = [c.resource for c in network.circuits]
            busy = [res.index for res in mrsin.resources if res.busy]
            if call in ("row 1", "row 2"):
                batch = [
                    Request(p, priority=data.draw(st.integers(1, mrsin.max_priority)))
                    for p in data.draw(processors, label="cold batch")
                ]
                row = Discipline.HOMOGENEOUS if call == "row 1" else Discipline.PRIORITY
                mrsin.apply_mapping(OptimalScheduler().schedule(mrsin, batch, discipline=row))
            elif call == "complete_transmission":
                if not transmitting:
                    continue
                mrsin.complete_transmission(data.draw(st.sampled_from(transmitting)))
            elif call in ("complete_service", "revoke"):
                if not busy:
                    continue
                getattr(mrsin, call)(data.draw(st.sampled_from(busy)))
            else:
                kind, failed = call
                if kind == "link":
                    target = data.draw(st.integers(0, len(network.links) - 1))
                elif kind == "switchbox":
                    stage = data.draw(st.integers(0, len(network.stages) - 1))
                    target = (stage, data.draw(st.integers(0, len(network.stages[stage]) - 1)))
                else:
                    target = data.draw(st.integers(0, ports - 1))
                mrsin.set_failed(kind, target, failed)
            check()
