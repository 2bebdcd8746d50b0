"""Tests for the deterministic service driver and its CLI wrapper."""

import pytest

from repro.cli import main
from repro.networks import omega
from repro.service.driver import run_service
from repro.sim.workload import WorkloadSpec


def spec(**kwargs):
    defaults = dict(builder=omega, n_ports=8)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestDriver:
    def test_same_seed_same_snapshot(self):
        a = run_service(spec(), rate=0.8, horizon=40.0, seed=7)
        b = run_service(spec(), rate=0.8, horizon=40.0, seed=7)
        assert a.snapshot == b.snapshot
        assert a.render() == b.render()

    def test_different_seed_different_traffic(self):
        a = run_service(spec(), rate=0.8, horizon=40.0, seed=1)
        b = run_service(spec(), rate=0.8, horizon=40.0, seed=2)
        assert a.snapshot != b.snapshot

    def test_conservation_of_requests(self):
        res = run_service(spec(), rate=0.8, horizon=60.0, seed=3)
        snap = res.snapshot
        # Every admitted request is allocated, timed out, or still queued.
        assert (
            snap["submitted"]
            == snap["allocated"] + snap["timed_out"] + snap["queue_depth"]
        )
        # Leases are released or still active.
        assert snap["allocated"] == snap["released"] + snap["active_leases"]
        assert snap["ticks"] == 60

    def test_overload_triggers_timeouts_and_backpressure(self):
        res = run_service(
            spec(n_ports=4),
            rate=4.0,              # ~16 requests/tick into 4 resources
            horizon=60.0,
            seed=5,
            queue_limit=6,
            request_timeout=4.0,
            mean_service=4.0,
        )
        snap = res.snapshot
        assert snap["rejected_full"] > 0
        assert snap["timed_out"] > 0
        assert snap["max_queue_depth"] <= 6

    def test_heterogeneous_and_priority_traffic(self):
        res = run_service(
            spec(resource_types=("fft", "io"), priority_levels=3),
            rate=0.5,
            horizon=30.0,
            seed=11,
        )
        assert res.snapshot["allocated"] > 0

    @pytest.mark.parametrize(
        "rate,batching_clears_demand",
        [(0.5, True), (1.5, False)],
        ids=["moderate", "heavy"],
    )
    def test_batched_amortises_solver_cost(self, rate, batching_clears_demand):
        """The tentpole claim at the library level: batching spends
        fewer solver instructions per allocation than one-per-solve.

        The moderate rate is chosen so batching clears the whole demand
        — that is the regime the claim is about.  At the heavy
        (saturating) rate the comparison stops being meaningful and is
        not asserted (398 vs 384 instructions per allocation): a serial
        service starves its queue (most requests time out unserved),
        and the kernel's value-bound certificate makes each trivial
        one-request solve nearly free, so "instructions per allocation"
        rewards serving almost nobody.  There the asserts pin the
        starvation contrast instead: strictly more allocations inside
        the horizon (203 vs 40) and fewer timeouts (39 vs 96).
        """
        batched = run_service(spec(), rate=rate, horizon=40.0, seed=13)
        serial = run_service(spec(), rate=rate, horizon=40.0, seed=13, max_batch=1)
        if batching_clears_demand:
            per_alloc = lambda r: (
                r.snapshot["solver_instructions"] / max(r.snapshot["allocated"], 1)
            )
            assert batched.allocated >= serial.allocated
            assert per_alloc(batched) < per_alloc(serial)
            # Same traffic: batching serves everyone, one-per-tick starves.
            assert batched.snapshot["timed_out"] == 0
            assert serial.snapshot["timed_out"] > 0
        else:
            assert batched.allocated > serial.allocated
            assert batched.snapshot["timed_out"] < serial.snapshot["timed_out"]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            run_service(spec(), rate=0.0)

    def test_dead_client_is_raised_not_reported_as_an_empty_run(self, monkeypatch):
        """A client task that dies takes its arrival stream with it; the
        horizon's snapshot then describes less traffic than was asked
        for (all zeros, if every client died the same way), so the
        driver re-raises instead of returning it."""

        def boom(*args, **kwargs):
            raise RuntimeError("client bug")

        monkeypatch.setattr("repro.service.driver._handle_request", boom)
        with pytest.raises(RuntimeError, match="client bug"):
            run_service(spec(), rate=0.8, horizon=10.0, seed=1)


class TestServeCLI:
    def test_serve_smoke(self, capsys):
        assert main([
            "serve", "--network", "omega", "--rate", "0.8",
            "--horizon", "30", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "allocated" in out
        assert "seed=7" in out

    def test_serve_deterministic_output(self, capsys):
        argv = ["serve", "--rate", "0.6", "--horizon", "25", "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_with_knobs(self, capsys):
        assert main([
            "serve", "--network", "crossbar", "--ports", "6", "--rate", "2.0",
            "--horizon", "20", "--queue-limit", "8",
            "--max-batch", "4", "--timeout", "3", "--priority-levels", "2",
        ]) == 0
        assert "rejected_full" in capsys.readouterr().out


class TestPortValidation:
    def test_clos_odd_ports_rejected(self):
        with pytest.raises(SystemExit, match="6x6"):
            main(["serve", "--network", "clos", "--ports", "7", "--horizon", "5"])

    def test_clos_odd_ports_rejected_for_schedule_too(self):
        with pytest.raises(SystemExit, match="clos"):
            main(["schedule", "--network", "clos", "--ports", "7"])

    def test_power_of_two_builders_report_cleanly(self):
        with pytest.raises(SystemExit, match="power of two"):
            main(["blocking", "--network", "omega", "--ports", "6", "--trials", "2"])

    def test_valid_sizes_still_work(self, capsys):
        assert main(["schedule", "--network", "clos", "--ports", "8"]) == 0
        assert "allocated" in capsys.readouterr().out
