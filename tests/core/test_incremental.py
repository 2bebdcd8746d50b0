"""Tests for the warm-start :class:`KernelFlowEngine`.

The load-bearing property is *differential*: a warm solve on the
persistent network must allocate exactly as many requests per cycle as
a cold Transformation-1 build-and-solve on the same MRSIN state.  The
stochastic lifecycle test below pins that down across many ticks of
allocation, transmission teardown, and release, without a single
rebuild on the happy path.
"""

import numpy as np
import pytest

from repro.core import (
    MRSIN,
    KernelFlowEngine,
    OptimalScheduler,
    Request,
)
from repro.core.transform import lower_to_kernel
from repro.networks import TOPOLOGIES, benes, build_network, omega
from repro.networks.topology import MultistageNetwork, PortRef


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
        engine.commit(mapping)
        total += len(mapping)
        for a in mapping.assignments:
            holding[a.resource.index] = a.request.processor

        # Tear down some transmissions (resource stays busy) ...
        for res in [r for r in list(holding) if rng.random() < 0.3]:
            mrsin.complete_transmission(res)
            engine.note_transmission_end(res)
            del holding[res]
            busy.add(res)
        # ... and complete some services (with or without a live circuit).
        for res in [r for r in list(busy) if rng.random() < 0.4]:
            mrsin.complete_service(res)
            engine.note_release(res)
            busy.discard(res)
        for res in [r for r in list(holding) if rng.random() < 0.15]:
            mrsin.complete_service(res)
            engine.note_release(res)
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
        assert engine.builds == 1  # never fell back to cold on the happy path
        assert engine.warm_ticks == 60

    def test_full_batch_on_free_network(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(8)])
        assert len(mapping) == 8
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        assert engine.last_new_flow == 8

    def test_empty_batch(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        assert len(engine.schedule([])) == 0
        assert engine.last_new_flow == 0


def build_time_levels(mrsin: MRSIN) -> list[int]:
    """BFS from ``s`` over the persistent lowering's forward arcs,
    capacity ignored: the first phase of a warm solve with every arc
    open."""
    lowered = lower_to_kernel(mrsin)
    kernel = lowered.kernel
    levels = [-1] * kernel.n_nodes
    levels[lowered.source] = 0
    queue = [lowered.source]
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
        engine.commit(mapping)


class TestLifecycle:
    def test_release_makes_resource_reusable(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(8)])
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        # Saturated: nothing more to allocate even cold.
        assert cold_count(mrsin, []) == 0
        a = mapping.assignments[0]
        mrsin.complete_service(a.resource.index)
        engine.note_release(a.resource.index)
        follow_up = engine.schedule([Request(a.request.processor)])
        assert len(follow_up) == 1
        assert engine.builds == 1

    def test_transmission_end_frees_links_not_resource(self):
        mrsin = MRSIN(omega(4))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(4)])
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        for a in mapping.assignments:
            mrsin.complete_transmission(a.resource.index)
            engine.note_transmission_end(a.resource.index)
        # Links are free again but every resource is still serving:
        # warm and cold must both find zero.
        reqs = [Request(p) for p in range(4)]
        assert cold_count(mrsin, reqs) == 0
        assert len(engine.schedule(reqs)) == 0
        assert engine.builds == 1

    def test_transmitting_processor_rejected(self):
        mrsin = MRSIN(omega(4))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(0)])
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        with pytest.raises(ValueError, match="transmitting circuit"):
            engine.schedule([Request(0)])

    def test_duplicate_processor_rejected(self):
        engine = KernelFlowEngine(MRSIN(omega(4)))
        with pytest.raises(ValueError, match="one request per processor"):
            engine.schedule([Request(1), Request(1)])

    def test_uncommitted_schedule_rolls_back(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        discarded = engine.schedule([Request(p) for p in range(8)])
        assert len(discarded) == 8  # never applied nor committed
        mapping = engine.schedule([Request(p) for p in range(8)])
        assert len(mapping) == 8  # the rolled-back flow freed every link
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)


class TestFallback:
    def test_mutation_behind_engines_back_triggers_rebuild(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(8)])
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        assert engine.builds == 1
        # Release on the MRSIN without telling the engine.
        a = mapping.assignments[0]
        mrsin.complete_service(a.resource.index)
        reqs = [Request(a.request.processor)]
        expected = cold_count(mrsin, reqs)
        got = engine.schedule(reqs)
        assert len(got) == expected == 1  # still optimal, via the rebuild
        assert engine.builds == 2

    def test_rebuild_registers_in_flight_circuits(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        mapping = engine.schedule([Request(p) for p in range(4)])
        mrsin.apply_mapping(mapping)
        engine.commit(mapping)
        engine.invalidate()
        more = engine.schedule([Request(p) for p in range(4, 8)])
        assert engine.builds == 2
        mrsin.apply_mapping(more)
        engine.commit(more)
        # The rebuilt network re-registered the old circuits: releasing
        # them retracts in place, no further rebuild.
        for a in mapping.assignments:
            mrsin.complete_service(a.resource.index)
            engine.note_release(a.resource.index)
        again = engine.schedule([Request(a.request.processor) for a in mapping.assignments])
        assert len(again) == 4
        assert engine.builds == 2

    def test_external_mapping_committed_through_link_index(self):
        mrsin = MRSIN(omega(8))
        engine = KernelFlowEngine(mrsin)
        engine.schedule([])  # force the initial build
        # A cold solve the engine did not produce (e.g. a priority tick).
        external = OptimalScheduler().schedule(mrsin, [Request(p) for p in range(3)])
        mrsin.apply_mapping(external)
        engine.commit(external)
        assert engine.builds == 1  # reconciled without a rebuild
        reqs = [Request(p) for p in range(3, 8)]
        expected = cold_count(mrsin, reqs)
        assert len(engine.schedule(reqs)) == expected
        assert engine.builds == 1
