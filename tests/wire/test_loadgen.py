"""Load-generator tests: schedules are pure functions of the config,
each arrival process has its shape, and a short open-loop run against
a real server produces a coherent report."""

import asyncio

import pytest

from repro.core import MRSIN
from repro.networks import omega
from repro.service.clock import MonotonicClock
from repro.service.server import AllocationService, ServiceConfig
from repro.wire import WireClient, WireServer
from repro.wire.loadgen import (
    ARRIVAL_PROCESSES,
    BURST_ON_FRACTION,
    BURST_PERIOD,
    DIURNAL_PERIOD,
    Arrival,
    LoadGenConfig,
    LoadGenReport,
    _one_request,
    arrival_schedule,
    run_loadgen,
)


def cfg(**kwargs):
    defaults = dict(rate=200.0, duration=2.0, processors=16, seed=7)
    defaults.update(kwargs)
    return LoadGenConfig(**defaults)


# ----------------------------------------------------------------------
# Schedules: seeded, pure, shaped
# ----------------------------------------------------------------------
class TestSchedules:
    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_schedule_is_deterministic(self, arrival):
        a = arrival_schedule(cfg(arrival=arrival))
        b = arrival_schedule(cfg(arrival=arrival))
        assert a == b
        assert len(a) > 50

    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_schedule_respects_horizon_and_ranges(self, arrival):
        config = cfg(arrival=arrival)
        schedule = arrival_schedule(config)
        assert all(0.0 <= a.time < config.duration for a in schedule)
        assert all(0 <= a.processor < config.processors for a in schedule)
        assert all(a.hold >= 0.0 for a in schedule)
        times = [a.time for a in schedule]
        assert times == sorted(times)

    def test_different_seeds_differ(self):
        assert arrival_schedule(cfg(seed=1)) != arrival_schedule(cfg(seed=2))

    def test_poisson_mean_rate(self):
        schedule = arrival_schedule(cfg(rate=500.0, duration=4.0))
        assert len(schedule) == pytest.approx(2000, rel=0.15)

    def test_bursty_clusters_into_on_windows(self):
        config = cfg(arrival="bursty", rate=200.0, duration=4.0)
        schedule = arrival_schedule(config)
        # Every arrival falls in the on-window of its cycle.
        assert all(
            (a.time % BURST_PERIOD) < BURST_PERIOD * BURST_ON_FRACTION + 1e-9
            for a in schedule
        )
        # The long-run mean still tracks `rate`.
        assert len(schedule) == pytest.approx(800, rel=0.2)

    def test_diurnal_peak_outweighs_trough(self):
        config = cfg(arrival="diurnal", rate=400.0, duration=DIURNAL_PERIOD)
        schedule = arrival_schedule(config)
        # sin > 0 on the first half-period, < 0 on the second.
        first = sum(a.time < DIURNAL_PERIOD / 2 for a in schedule)
        second = len(schedule) - first
        assert first > 1.5 * second

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(rate=0)
        with pytest.raises(ValueError):
            cfg(duration=-1)
        with pytest.raises(ValueError):
            cfg(arrival="constant")
        with pytest.raises(ValueError):
            cfg(connections=0)
        with pytest.raises(ValueError):
            cfg(processors=0)
        with pytest.raises(ValueError):
            cfg(request_timeout=0)

    @pytest.mark.parametrize(
        "knob", ["rate", "duration", "request_timeout", "mean_hold", "transmission"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_nan_and_inf(self, knob, value):
        """NaN passes ``x <= 0`` — an empty schedule reported as a clean
        run — and ``rate=inf`` never left ``arrival_schedule``."""
        with pytest.raises(ValueError, match=knob):
            cfg(**{knob: value})


# ----------------------------------------------------------------------
# A short real run
# ----------------------------------------------------------------------
class TestRun:
    def test_short_open_loop_run(self):
        async def scenario():
            service = AllocationService(
                MRSIN(omega(16)),
                config=ServiceConfig(
                    tick_interval=0.005, queue_limit=256, default_timeout=2.0
                ),
            )
            config = cfg(
                rate=300.0, duration=0.5, connections=2,
                mean_hold=0.01, request_timeout=2.0,
            )
            async with service:
                async with WireServer(service) as server:
                    host, port = server.address
                    report = await run_loadgen(host, port, config)
            assert report.offered == len(arrival_schedule(config))
            assert report.completed > 0
            assert (
                report.completed + report.rejected
                + report.timed_out + report.errors
                == report.offered
            )
            assert report.errors == 0
            assert report.histogram.count == report.completed
            assert report.throughput > 0
            latency = report.latency_ms()
            assert set(latency) == {"p50", "p90", "p99", "p999"}
            assert latency["p50"] <= latency["p99"] <= latency["p999"]
            # Everything granted was also handed back: no leaks.
            assert service.active_leases == 0
            payload = report.to_json()
            assert payload["completed"] == report.completed
            assert "loadgen" in report.render()

        asyncio.run(scenario())

    def test_request_cancelled_mid_hold_gives_its_lease_back(self):
        """Cancelling one request's lifecycle while it holds its lease
        (a deadline, a shutdown) must hand the lease back itself: the
        connection stays open, so the server's disconnect cleanup will
        not do it."""

        async def scenario():
            service = AllocationService(
                MRSIN(omega(8)),
                config=ServiceConfig(tick_interval=0.005, default_timeout=2.0),
            )
            config = cfg(request_timeout=2.0)
            report = LoadGenReport(config=config, offered=1)
            async with service:
                async with WireServer(service) as server:
                    host, port = server.address
                    async with WireClient(host, port, request_timeout=2.0) as client:
                        request = asyncio.ensure_future(_one_request(
                            client, Arrival(time=0.0, processor=3, hold=30.0),
                            config, MonotonicClock(), report,
                        ))
                        while report.completed == 0:  # LEASE received: holding
                            await asyncio.sleep(0.005)
                        assert service.active_leases == 1
                        request.cancel()
                        await asyncio.gather(request, return_exceptions=True)
                        assert request.cancelled()
                        assert service.active_leases == 0
                        assert server.open_connections == 1
                        await client.ping()  # and still usable

        asyncio.run(asyncio.wait_for(scenario(), 10.0))
