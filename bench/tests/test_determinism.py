"""The same seed gives the same inputs; another seed gives others."""

import asyncio

import bench  # noqa: F401  (puts src/ on the path)
from bench import fabric, service, solve, wire
from bench.trace import Tracer
from repro.util.rng import spawn_rngs


def test_open_loop_schedule_is_a_pure_function_of_the_seed():
    first = wire.open_loop_schedule(17, wire.OPEN_RATE, 2.0)
    assert first == wire.open_loop_schedule(17, wire.OPEN_RATE, 2.0)
    assert first != wire.open_loop_schedule(18, wire.OPEN_RATE, 2.0)
    assert all(0 <= a.time < 2.0 and 0 <= a.processor < wire.PORTS for a in first)
    assert [a.time for a in first] == sorted(a.time for a in first)


def test_fabric_arrivals_repeat_per_seed_and_keep_the_skew():
    def rounds(seed):
        rngs = spawn_rngs(seed, fabric.CELLS)
        return [fabric.arrivals_for_round(rngs, 1000 * n) for n in range(3)]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)
    hot = sum(1 for batch in rounds(5) for request in batch if request.cell == 0)
    cool = sum(1 for batch in rounds(5) for request in batch if request.cell == 1)
    assert hot > 5 * cool
    ids = [request.req_id for request in rounds(5)[1]]
    assert ids == list(range(1000, 1000 + len(ids)))


def test_solver_pool_has_the_mix_and_fixed_sizes():
    pool = solve.make_pool(9, cycles=2)
    again = solve.make_pool(9, cycles=2)
    other = solve.make_pool(10, cycles=2)
    def key(pool):
        return [
            [(i.discipline, [(r.processor, r.resource_type, r.priority) for r in i.requests])
             for i in cycle]
            for cycle in pool
        ]

    assert key(pool) == key(again) != key(other)
    for cycle in pool:
        counts = {name: 0 for name in solve.MIX}
        for instance in cycle:
            counts[instance.discipline] += 1
            big = not instance.discipline.startswith("heterogeneous")
            assert len(instance.requests) == (solve.BIG_REQUESTS if big else solve.SMALL_REQUESTS)
        assert counts == solve.MIX


def _grants(load, seed, ticks, backend):
    async def go():
        drive = service.Drive(load, seed, Tracer(enabled=False), backend)
        for _ in range(ticks):
            await drive.step()
        await drive.backend.close()
        return drive.grants_by_tick, dict(drive.counts)
    return asyncio.run(go())


def test_tick_stream_repeats_and_the_bare_engine_replay_matches_the_service():
    for load in (service.TICKS, service.CHURN):
        first = _grants(load, 3, 30, service.ServiceBackend)
        assert first == _grants(load, 3, 30, service.ServiceBackend)
        assert first != _grants(load, 4, 30, service.ServiceBackend)
        assert first[0] == _grants(load, 3, 30, service.EngineBackend)[0]
