"""Tests for the virtual clock: ordering, determinism, drains."""

import asyncio

import pytest

from repro.service.clock import Clock, MonotonicClock, VirtualClock


def run(coro):
    return asyncio.run(coro)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_run_until_advances_time(self):
        async def scenario():
            clock = VirtualClock()
            await clock.run_until(10.0)
            return clock.now()

        assert run(scenario()) == 10.0

    def test_sleepers_wake_in_time_order(self):
        async def scenario():
            clock = VirtualClock()
            order = []

            async def sleeper(name, dt):
                await clock.sleep(dt)
                order.append((name, clock.now()))

            tasks = [
                asyncio.ensure_future(sleeper("late", 3.0)),
                asyncio.ensure_future(sleeper("early", 1.0)),
                asyncio.ensure_future(sleeper("mid", 2.0)),
            ]
            await clock.run_until(5.0)
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == [("early", 1.0), ("mid", 2.0), ("late", 3.0)]

    def test_equal_wake_times_fire_in_registration_order(self):
        async def scenario():
            clock = VirtualClock()
            order = []

            async def sleeper(name):
                await clock.sleep(1.0)
                order.append(name)

            tasks = [asyncio.ensure_future(sleeper(n)) for n in ("a", "b", "c")]
            await clock.run_until(1.0)
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == ["a", "b", "c"]

    def test_resleep_within_window_is_honoured(self):
        async def scenario():
            clock = VirtualClock()
            wakes = []

            async def repeater():
                for _ in range(4):
                    await clock.sleep(1.0)
                    wakes.append(clock.now())

            task = asyncio.ensure_future(repeater())
            await clock.run_until(10.0)
            await task
            return wakes

        assert run(scenario()) == [1.0, 2.0, 3.0, 4.0]

    def test_sleep_beyond_deadline_stays_parked(self):
        async def scenario():
            clock = VirtualClock()

            async def sleeper():
                await clock.sleep(100.0)

            task = asyncio.ensure_future(sleeper())
            await clock.run_until(5.0)
            parked = not task.done()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return parked, clock.pending_sleepers

        parked, remaining = run(scenario())
        assert parked
        assert remaining == 1

    def test_nonpositive_sleep_yields_without_parking(self):
        async def scenario():
            clock = VirtualClock()
            await clock.sleep(0.0)
            await clock.sleep(-1.0)
            return clock.now(), clock.pending_sleepers

        assert run(scenario()) == (0.0, 0)

    def test_advance_is_relative(self):
        async def scenario():
            clock = VirtualClock()
            clock.step(2.0)
            await clock.advance(3.0)
            return clock.now()

        assert run(scenario()) == 5.0


class TestMonotonicClock:
    def test_now_and_sleep(self):
        async def scenario():
            clock = MonotonicClock()
            t0 = clock.now()
            await clock.sleep(0.0)
            return clock.now() >= t0

        assert run(scenario())


def test_the_base_clock_tells_no_time():
    """A ``Clock`` subclass that forgets an override fails loudly."""
    clock = Clock()
    with pytest.raises(NotImplementedError):
        clock.now()
    with pytest.raises(NotImplementedError):
        clock.perf_ns()
    with pytest.raises(NotImplementedError):
        run(clock.sleep(1.0))
