"""Tests for the deterministic service driver and its CLI wrapper."""

import hashlib
import json
from functools import partial

import pytest

from repro.cli import main
from repro.networks import build_network, omega
from repro.service.driver import run_service
from repro.service.server import AllocationService, ServiceFaulted
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
        """An arrival that dies must not be swallowed: the horizon's
        snapshot would describe less traffic than was asked for (all
        zeros, if every arrival died the same way).  Only the queue
        bound's ``AllocationRejected`` is an expected outcome of
        ``submit``; anything else leaves ``run_service`` as raised."""

        def boom(*args, **kwargs):
            raise RuntimeError("client bug")

        monkeypatch.setattr(AllocationService, "submit", boom)
        with pytest.raises(RuntimeError, match="client bug"):
            run_service(spec(), rate=0.8, horizon=10.0, seed=1)

    def test_raising_cycle_is_service_faulted_at_once(self, monkeypatch):
        """A broken tick is not a result: the run stops at the first
        raising cycle with the original as ``__cause__``."""
        cycles = []

        def broken(self):
            cycles.append(self.clock.now())
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(AllocationService, "run_one_cycle", broken)
        with pytest.raises(ServiceFaulted, match="solver exploded") as excinfo:
            run_service(spec(), rate=0.8, horizon=10.0, seed=1)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert cycles == [1.0]


# ----------------------------------------------------------------------
# Behaviour pinned across the rewrite: run_service used to replay this
# schedule on asyncio (a task per processor and per request, parked on
# the VirtualClock); the digests below were recorded from that driver at
# dddc0ba and must never be re-recorded to make a change pass.
# ----------------------------------------------------------------------
def named(net="omega", ports=8, **kwargs):
    return spec(builder=partial(build_network, net), n_ports=ports, **kwargs)


GRID = [
    # five topologies x three seeds
    *[
        (f"{net}-8/seed{seed}", named(net), dict(rate=0.8, horizon=60.0, seed=seed))
        for net in ("omega", "cube", "benes", "crossbar", "clos")
        for seed in (1, 2, 3)
    ],
    ("overload", named(ports=4), dict(
        rate=4.0, horizon=60.0, seed=5, queue_limit=6, request_timeout=4.0,
        mean_service=4.0)),
    ("typed+priority", named(resource_types=("fft", "io"), priority_levels=3),
     dict(rate=0.5, horizon=30.0, seed=11)),
    ("max_batch=1", named(), dict(rate=1.5, horizon=40.0, seed=13, max_batch=1)),
    ("tick=0.25", named(), dict(rate=0.8, horizon=40.0, seed=4, tick_interval=0.25)),
    ("tick=0.5", named(), dict(rate=0.8, horizon=40.0, seed=4, tick_interval=0.5)),
    ("transmission=0", named(), dict(rate=0.8, horizon=40.0, seed=6, transmission_time=0.0)),
    ("transmission=tick", named(), dict(rate=0.8, horizon=40.0, seed=6, transmission_time=1.0)),
    ("mean_service=0", named(), dict(rate=0.8, horizon=40.0, seed=8, mean_service=0.0)),
    ("timeout=None", named(), dict(rate=1.5, horizon=40.0, seed=9, request_timeout=None)),
    ("omega-32", named(ports=32), dict(rate=0.8, horizon=100.0, seed=7)),
    ("omega-8/horizon200", named(), dict(rate=0.8, horizon=200.0, seed=7)),
    # Same-instant orderings: a zero service time releases within the
    # instant its transmission ends, ahead of a tick due at that instant.
    ("service=0,transmission=2ticks",
     named("benes", occupied_circuits=1, priority_levels=2, resource_types=("a", "b")),
     dict(rate=0.3, horizon=33.3, seed=1, max_batch=3, queue_limit=2,
          request_timeout=4.0, transmission_time=2.0, mean_service=0.0)),
    ("service=0,transmission=4ticks", named(ports=4, occupied_circuits=1), dict(
        rate=0.8, horizon=33.3, seed=60, tick_interval=0.5, queue_limit=6,
        request_timeout=4.0, transmission_time=1.0, mean_service=0.0)),
    ("service=0,transmission=0", named(occupied_circuits=2), dict(
        rate=1.0, horizon=30.0, seed=100, transmission_time=0.0, mean_service=0.0)),
    # The first arrival is at 0.03, the next event at 0.96: stepping the
    # clock by the difference lands one ulp off.
    ("long-first-hop", named(ports=4), dict(rate=0.5, horizon=3.0, seed=48)),
]

GOLDEN = {
    "omega-8/seed1": "8c829df75a9cd9b3d07934ba4e76ebeeec0919a12d0f4397b5e6e7606c92fb50",
    "omega-8/seed2": "22282fef266a768ccfbec594d43899c825704a5f430947c24a391ca84612d890",
    "omega-8/seed3": "7c11f380bd1b763fa6edb76f4527c209aab2a053c8ef0005d2c40454e3d4f2f8",
    "cube-8/seed1": "30839f590157fa636ca38b5a62d6d4d5d01891896a90d7cfae247ba12fd45a7b",
    "cube-8/seed2": "3a8303026c14e69fdef65c36645bc748ec6ed146dfb7628ee47b1c1fb4fcf8dc",
    "cube-8/seed3": "0927e2a2632e8608941fbe99caff036a419b0a281e47e7856c33ddd4cff99b3b",
    "benes-8/seed1": "517a9069714c446cc56b3bc7d4de43b706f382b0c61a325ebd6c5018566c1c34",
    "benes-8/seed2": "9fa4a1e83917122c59547c7ef58c22c64c8b96aea1405b5245dac6efd827a967",
    "benes-8/seed3": "1fc8620374bd1c190749b4931a00fa97cb6e8fce2efafb8bcc47303288378894",
    "crossbar-8/seed1": "47c423e706b2dbddc71a4b584d7eb72844c41fdca8fa11cc7f75cdedd248039b",
    "crossbar-8/seed2": "a5bed94b7b16b5635c33cdb37bac5e10959c91684047a291e35373e645a74db1",
    "crossbar-8/seed3": "cc05918d074f708c9a0eff29c39254a7262401646b92cde0a51f267d05d7fb6c",
    "clos-8/seed1": "687d308830a69a4272b1a1ae9fb25a60da4885a309b14184ab1e70c67673a29c",
    "clos-8/seed2": "f61ab3d9780f34dd62b99be2436b9008328b02731fc40a171bb46c11a7cb93f5",
    "clos-8/seed3": "ad025265de7d0baa6657cb9aa3849cba5cf93d809fb50b1063f415e02ea84579",
    "overload": "dcdd95da93c304da5d2773616b9f59af4d695f27d3ebfdec7a56c60f4129cde5",
    "typed+priority": "6059e17cb609109565c9209d66e2bdd4407be8dd4993812d441671c92107cb1d",
    "max_batch=1": "53b66d88a84837b7493ee4efd42e5367c3e5e0a16094a93b343f49499810826f",
    "tick=0.25": "8153a8678d94554e8f9cf046bf03d4a5d5ab26ecdc819a669af4ae618c884fb5",
    "tick=0.5": "df5c9fffdda723d5ced3ad5e2e9d44eeb4dfe1c0b3eb96e9325c426bf19de0b8",
    "transmission=0": "9439d74a7a0a8dca5aa0c0bab5e7cc1010a923500f6577841684fc9c75975d77",
    "transmission=tick": "f70631a0b4a185606cd78dacc93440e3fefd0103b0f326e5c0be17ccb328471a",
    "mean_service=0": "fea33e44c675685a739aff5993b4e94fbf8491bb77959b3c7dc707dcc1af6df2",
    "timeout=None": "048773b4e32587e78cb85f419d4a42f3306cf89d0fba314c3189932fbbb68c72",
    "omega-32": "c1e88df27a36cf2266cff5a2cb10935ed8bf3fb092df4b34420c5ae8846d2b26",
    "omega-8/horizon200": "1dbcf874030a5004e75968b3d35853a5d2e98a2a2661538b42b394439d3d9e2a",
    "service=0,transmission=2ticks": "d3d91fad0167fd1f23512a852ffb3a68c315689686591d77a841ddfc2be43c08",
    "service=0,transmission=4ticks": "65eb4168771c75022e8a6b94c76fbc0934404dfa598b23d92a950b4265e480de",
    "service=0,transmission=0": "f433a65840fca2c93452175053c068fc240f5da1105f2d1418fda9b787ea0119",
    "long-first-hop": "f818fff91a400e8c72ed7952f772bd6c0d3f0a293a1b8573355e82a5bff537d1",
}


@pytest.mark.parametrize("name,workload,kwargs", GRID, ids=[row[0] for row in GRID])
def test_snapshot_and_table_match_the_event_loop_driver(name, workload, kwargs):
    result = run_service(workload, **kwargs)
    blob = json.dumps(result.snapshot, sort_keys=True) + "\n" + result.render()
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[name]


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
