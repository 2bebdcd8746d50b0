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
from repro.networks import benes, omega


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
