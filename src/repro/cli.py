"""Command-line interface: run schedulers and experiments from a shell.

Examples
--------
::

    python -m repro schedule --network omega --ports 8 --policy optimal --render
    python -m repro blocking --network cube --policy random_binding --trials 200
    python -m repro sweep --network omega --policies optimal greedy random_binding
    python -m repro queueing --network omega --rate 0.8 --policy optimal
    python -m repro serve --network omega --rate 0.8 --horizon 200 --seed 7
    python -m repro serve --network omega --ports 32 --horizon 2000 --rate 0.4 --fault-rate 0.08
    python -m repro wire-serve --network omega --ports 16 --port 7586
    python -m repro loadgen --port 7586 --rate 300 --duration 5 --seed 7
    python -m repro fabric-serve --cells 4 --ports 32 --rounds 40 --seed 7
    python -m repro fabric-serve --cells 4 --kill-cell 1 --kill-round 10
    python -m repro tokens --seed 31
    python -m repro lint --stats
    python -m repro typecheck

Every command is a thin wrapper over the library API and prints the
same tables the benchmark harness generates.  Fault churn is ``serve
--fault-rate``; every ``serve`` tick runs the shared invariant set.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import partial
from typing import Sequence

from repro.core import MRSIN, OptimalScheduler, Request
from repro.distributed import DistributedScheduler
from repro.networks import TOPOLOGIES, build_network, omega
from repro.networks.render import render_circuits, render_network
from repro.service.invariants import InvariantError
from repro.sim.blocking import POLICIES, estimate_blocking
from repro.sim.queueing import WARMUP, simulate_queueing
from repro.sim.runner import sweep as run_sweep
from repro.sim.workload import WorkloadSpec, sample_instance
from repro.util.rng import make_rng
from repro.util.tables import Table

__all__ = ["main", "TOPOLOGIES"]


def _spec(args) -> WorkloadSpec:
    # build_network, not TOPOLOGIES[name]: a port count the topology
    # cannot realise must be an error, never a differently sized
    # network under the requested label.
    return WorkloadSpec(
        builder=partial(build_network, args.network),
        n_ports=args.ports,
        request_density=args.request_density,
        free_density=args.free_density,
        occupied_circuits=args.occupied,
    )


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", choices=sorted(TOPOLOGIES), default="omega")
    p.add_argument("--ports", type=int, default=8, help="network size N")
    p.add_argument("--request-density", type=float, default=1.0)
    p.add_argument("--free-density", type=float, default=1.0)
    p.add_argument("--occupied", type=int, default=0,
                   help="circuits pre-established before scheduling")
    p.add_argument("--seed", type=int, default=0)


def _add_fault_args(p: argparse.ArgumentParser, *, unit: str, mean_repair: float) -> None:
    """The injector's three knobs, named alike on every verb that has them."""
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help=f"component faults per {unit} (0 = no injection)")
    p.add_argument("--transient", type=float, default=0.85,
                   help="fraction of faults that self-repair")
    p.add_argument("--mean-repair", type=float, default=mean_repair,
                   help=f"mean time-to-repair for transient faults, in {unit}s")


def cmd_schedule(args) -> int:
    """One scheduling cycle; print the mapping (and optionally the net)."""
    m = sample_instance(_spec(args), args.seed)
    mapping = POLICIES[args.policy](m, make_rng(args.seed))
    n_req = len(m.schedulable_requests())
    print(f"{m.network.name}: {n_req} requests, "
          f"{len(m.free_resources())} free resources")
    print(f"{args.policy} allocated {len(mapping)}: {sorted(mapping.pairs)}")
    if args.render:
        m.apply_mapping(mapping)
        busy = {r.index for r in m.resources if r.busy}
        print()
        print(render_network(m.network, busy))
        print()
        print(render_circuits(m.network))
    return 0


def cmd_blocking(args) -> int:
    """Monte Carlo blocking estimate for one policy."""
    est = estimate_blocking(_spec(args), args.policy, trials=args.trials, seed=args.seed)
    lo, hi = est.ci95
    print(f"{args.policy} on {args.network}-{args.ports}: "
          f"P(block) = {est.probability:.4f}  [95% CI {lo:.4f}, {hi:.4f}]  "
          f"({est.blocked}/{est.possible} over {est.trials} trials)")
    return 0


def cmd_sweep(args) -> int:
    """Blocking sweep over request/free densities for several policies."""
    base = _spec(args)
    points = [
        (f"d={d:g}", replace(base, request_density=d, free_density=d))
        for d in args.densities
    ]
    result = run_sweep(
        f"blocking sweep on {args.network}-{args.ports}",
        points, args.policies, trials=args.trials, seed=args.seed,
    )
    print(result.render())
    return 0


def cmd_queueing(args) -> int:
    """Steady-state queueing run (utilization / response time)."""
    if 0 < args.horizon <= WARMUP:
        raise ValueError(f"--horizon {args.horizon:g} must exceed the {WARMUP:g} warm-up time units")
    m = MRSIN(build_network(args.network, args.ports))
    res = simulate_queueing(
        m, policy=args.policy, arrival_rate=args.rate,
        mean_service=args.service, horizon=args.horizon, seed=args.seed,
    )
    table = Table(["metric", "value"], title=f"queueing: {args.network}-{args.ports}, "
                  f"λ={args.rate:g}, policy={args.policy}")
    table.add_row("offered load", f"{res.offered_load:.2f}")
    table.add_row("resource utilization", f"{res.utilization:.3f}")
    table.add_row("mean response time", f"{res.mean_response:.3f}")
    table.add_row("mean queue length", f"{res.mean_queue:.3f}")
    table.add_row("tasks completed", res.completed)
    print(table.render())
    return 0


def cmd_serve(args) -> int:
    """Finite-horizon run of the online allocation service."""
    from repro.service.driver import run_service
    from repro.service.server import ServiceFaulted

    spec = WorkloadSpec(
        builder=partial(build_network, args.network),
        n_ports=args.ports,
        occupied_circuits=args.occupied,
        priority_levels=args.priority_levels,
    )
    try:
        result = run_service(
            spec,
            rate=args.rate,
            horizon=args.horizon,
            seed=args.seed,
            tick_interval=args.tick,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            request_timeout=args.timeout,
            transmission_time=args.transmission,
            mean_service=args.service,
            fault_rate=args.fault_rate,
            transient_fraction=args.transient,
            mean_repair=args.mean_repair,
        )
    except ServiceFaulted as exc:
        # One line, nonzero exit: the run's snapshot is from a broken
        # service and must not be mistaken for a result.
        raise SystemExit(f"error: service faulted mid-run: {exc.__cause__!r}") from exc
    if args.json:
        import json

        print(json.dumps(result.snapshot, sort_keys=True))
    else:
        print(result.render())
    return 0


def cmd_wire_serve(args) -> int:
    """Serve an allocation service over TCP (see repro.wire)."""
    import asyncio
    import json

    from repro.core import MRSIN
    from repro.service.server import AllocationService, ServiceConfig
    from repro.wire.server import WireServer

    network = build_network(args.network, args.ports)
    if args.duration is not None and not args.duration > 0:
        raise ValueError(f"duration must be positive, got {args.duration}")
    config = ServiceConfig(
        tick_interval=args.tick,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        default_timeout=args.timeout,
        fault_budget=args.fault_budget,
    )

    async def _run() -> dict:
        service = AllocationService(MRSIN(network), config=config)
        injector = None
        if args.fault_rate != 0:  # 0 = no injector; NaN / < 0 are FaultInjector's to refuse
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(
                service.mrsin,
                rng=make_rng(args.seed),
                fault_rate=args.fault_rate,
                transient_fraction=args.transient,
                mean_repair=args.mean_repair,
            )
        async with service:
            async with WireServer(
                service,
                host=args.host,
                port=args.port,
                max_connections=args.max_connections,
            ) as server:
                host, port = server.address
                print(
                    f"wire-serve: {args.network}-{args.ports} listening on "
                    f"{host}:{port}",
                    flush=True,
                )
                clock = service.clock
                # The injector's Poisson process starts at t=0; feed it
                # elapsed serve time, not the loop clock's arbitrary epoch.
                started = clock.now()
                end = math.inf if args.duration is None else started + args.duration
                if injector is None:  # nothing to do per tick: no second timer
                    await clock.sleep(end - started)
                while injector is not None and clock.now() < end:
                    await clock.sleep(config.tick_interval)
                    injector.inject(service, clock.now() - started)
                await server.drain()
                snapshot = service.snapshot()
                snapshot["wire"] = server.snapshot()
                return snapshot

    try:
        snapshot = asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("wire-serve: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        raise SystemExit(f"error: cannot listen on {args.host}:{args.port}: {exc}")
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
    else:
        table = Table(["metric", "value"],
                      title=f"wire-serve: {args.network}-{args.ports}")
        for key in ("ticks", "submitted", "allocated", "released",
                    "timed_out", "rejected_full", "revoked"):
            table.add_row(key, snapshot[key])
        for key, value in sorted(snapshot["wire"].items()):
            table.add_row(f"wire {key}", value)
        print(table.render())
    return 0


def cmd_loadgen(args) -> int:
    """Open-loop load generation against a running wire-serve."""
    import asyncio
    import json

    from repro.wire.client import WireConnectionError
    from repro.wire.loadgen import LoadGenConfig, run_loadgen

    config = LoadGenConfig(
        rate=args.rate,
        duration=args.duration,
        processors=args.processors,
        arrival=args.arrival,
        connections=args.connections,
        seed=args.seed,
        request_timeout=args.timeout,
        mean_hold=args.hold,
        transmission=args.transmission,
    )
    try:
        report = asyncio.run(run_loadgen(args.host, args.port, config))
    except WireConnectionError as exc:
        raise SystemExit(
            f"error: cannot reach {args.host}:{args.port}: {exc} "
            f"(is `repro wire-serve` running?)"
        ) from exc
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_fabric_serve(args) -> int:
    """Run one sharded fabric workload (multi-process cells + broker),
    optionally SIGKILLing one cell mid-run (``--kill-cell``)."""
    from repro.fabric.broker import FabricError
    from repro.fabric.driver import ChaosSchedule, FabricConfig, run_fabric

    config = FabricConfig(
        topology=args.network,
        ports=args.ports,
        cells=args.cells,
        seed=args.seed,
        rounds=args.rounds,
        ticks_per_round=args.ticks_per_round,
        rate=args.rate,
        spill_after=args.spill_after,
        max_hold=args.max_hold,
        queue_limit=args.queue_limit,
        group_size=args.group_size,
        uplink=args.uplink,
        trunk=args.trunk,
    )
    schedule = None
    if args.kill_cell is not None:
        schedule = ChaosSchedule(
            cell=args.kill_cell,
            kill_round=10 if args.kill_round is None else args.kill_round,
            rejoin_round=20 if args.rejoin_round is None else args.rejoin_round or None,
        )
    elif args.kill_round is not None or args.rejoin_round is not None:
        raise ValueError("--kill-round / --rejoin-round need --kill-cell")
    try:
        result = run_fabric(config, chaos=schedule)
    except FabricError as exc:
        raise SystemExit(f"error: fabric failed: {exc}") from exc
    if args.json:
        import json

        payload = {
            "totals": result.totals,
            "rounds_run": result.rounds_run,
            "drain_rounds": result.drain_rounds,
            "wall_s": result.wall_s,
            "wall_allocs_per_sec": result.wall_allocs_per_sec,
            "snapshot": result.snapshot,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.render())
    return 0


def cmd_tokens(args) -> int:
    """Trace one distributed (token-propagation) scheduling cycle."""
    m = sample_instance(_spec(args), args.seed)
    outcome = DistributedScheduler(record=True).schedule(m)
    print(f"iterations: {outcome.iterations}, clocks: {outcome.clocks}, "
          f"allocated: {len(outcome.mapping)}")
    for state, bus in zip(outcome.state_trace, outcome.bus_trace):
        print(f"  [{bus}] {state.value}")
    if args.verbose:
        for t in outcome.token_trace:
            print(f"  it{t.iteration} {t.phase:>8s} clk{t.clock:3d}: {t.detail}")
    return 0


def cmd_lint(args) -> int:
    """Run the invariant lint (R001–R006, R008) over the given paths."""
    from pathlib import Path

    from repro.analysis import LintEngine, LintError, default_rules

    rules = default_rules()
    if args.select:
        wanted = {r.strip().upper() for s in args.select for r in s.split(",")}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise SystemExit(f"error: unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.id in wanted]
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        report = LintEngine(rules).run(paths)
    except LintError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.format == "json":
        print(report.to_json())
    else:
        for f in report.findings:
            print(f.render())
        if args.stats or not report.findings:
            stats = report.stats()
            print(f"checked {stats['files_checked']} files: "
                  f"{stats['findings']} finding(s), "
                  f"{stats['suppressed']} suppressed")
            if args.stats:
                for rule_id, n in sorted(stats["by_rule"].items()):
                    print(f"  {rule_id}: {n}")
                for rule_id, n in sorted(stats["suppressed_by_rule"].items()):
                    print(f"  {rule_id} (suppressed): {n}")
    return report.exit_code


def cmd_typecheck(args) -> int:
    """Run the strict mypy gate (see repro.analysis.typing_gate)."""
    from repro.analysis.typing_gate import run_typecheck

    result = run_typecheck(strict_only=not args.all)
    if result.output:
        print(result.output)
    if not result.available:
        print("typecheck: SKIPPED (mypy unavailable)", file=sys.stderr)
    return result.exit_code


def cmd_report(args) -> int:
    """Compact paper-vs-measured report (a fast subset of benchmarks/)."""
    trials = args.trials
    table = Table(["claim (paper)", "measured"], title="reproduction snapshot")
    # 1. Blocking probabilities (SIM-BLOCK).
    spec = WorkloadSpec(builder=omega, n_ports=8,
                        request_density=0.8, free_density=0.8)
    opt = estimate_blocking(spec, "optimal", trials=trials, seed=1)
    heur = estimate_blocking(spec, "random_binding", trials=trials, seed=1)
    table.add_row("optimal blocking < 5% (~2%)", f"{opt.probability:.1%}")
    table.add_row("heuristic blocking ~20%", f"{heur.probability:.1%}")
    # 2. Distributed == software optimum, and its clock cost.
    agree = 0
    clocks = 0
    for seed in range(max(trials // 5, 3)):
        m = sample_instance(spec, 1000 + seed)
        a = len(OptimalScheduler().schedule(m))
        out = DistributedScheduler().schedule(m)
        agree += a == len(out.mapping)
        clocks += out.clocks
    n_checks = max(trials // 5, 3)
    table.add_row("distributed = software optimum",
                  f"{agree}/{n_checks} instances agree")
    table.add_row("distributed cost (gate-delay clocks/cycle)",
                  f"{clocks / n_checks:.0f}")
    # 3. Table II disciplines all dispatch and solve.
    from repro.core import MRSIN, Request

    m = MRSIN(omega(8), resource_types=["a", "b"] * 4)
    for p in range(4):
        m.submit(Request(p, resource_type="ab"[p % 2], priority=1 + p))
    hetero = OptimalScheduler().schedule(m)
    table.add_row("heterogeneous+priority discipline (Simplex)",
                  f"{len(hetero)}/4 typed requests served")
    print(table.render())
    print("\nfull harness: pytest benchmarks/ --benchmark-only  "
          "(details in EXPERIMENTS.md)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-sharing interconnection network experiments "
                    "(Juang & Wah, ICPP'86 / IEEE TC'89 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="run one scheduling cycle")
    _add_workload_args(p)
    p.add_argument("--policy", default="optimal", choices=sorted(POLICIES))
    p.add_argument("--render", action="store_true", help="draw the network state")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("blocking", help="estimate blocking probability")
    _add_workload_args(p)
    p.add_argument("--policy", default="optimal", choices=sorted(POLICIES))
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("sweep", help="blocking sweep over densities")
    _add_workload_args(p)
    p.add_argument("--policies", nargs="+", default=["optimal", "random_binding"],
                   choices=sorted(POLICIES))
    p.add_argument("--densities", nargs="+", type=float, default=[0.5, 0.75, 1.0])
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("queueing", help="discrete-event queueing simulation")
    _add_workload_args(p)
    p.add_argument("--policy", default="optimal",
                   choices=["optimal", "greedy", "random_binding"])
    p.add_argument("--rate", type=float, default=0.5, help="arrival rate per processor")
    p.add_argument("--service", type=float, default=1.0, help="mean service time")
    p.add_argument("--horizon", type=float, default=200.0)
    p.set_defaults(func=cmd_queueing)

    p = sub.add_parser("serve", help="run the online batched allocation service")
    p.add_argument("--network", choices=sorted(TOPOLOGIES), default="omega")
    p.add_argument("--ports", type=int, default=8, help="network size N")
    p.add_argument("--rate", type=float, default=0.5, help="arrival rate per processor")
    p.add_argument("--horizon", type=float, default=200.0, help="virtual time to run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tick", type=float, default=1.0, help="batching tick interval")
    p.add_argument("--max-batch", type=int, default=None,
                   help="cap requests per solve (default: everything pending)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded queue size (admission control)")
    p.add_argument("--timeout", type=float, default=16.0,
                   help="per-request deadline in virtual time units")
    p.add_argument("--transmission", type=float, default=0.1,
                   help="circuit-holding time per task")
    p.add_argument("--service", type=float, default=1.0, help="mean service time")
    p.add_argument("--occupied", type=int, default=0,
                   help="circuits pre-established before the run")
    p.add_argument("--priority-levels", type=int, default=1,
                   help="draw request priorities from 1..K (K>1 uses min-cost)")
    _add_fault_args(p, unit="time unit", mean_repair=6.0)
    p.add_argument("--json", action="store_true",
                   help="emit the final snapshot as one JSON object")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("wire-serve",
                       help="serve an allocation service over TCP")
    p.add_argument("--network", choices=sorted(TOPOLOGIES), default="omega")
    p.add_argument("--ports", type=int, default=16, help="network size N")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick a free one, printed on start)")
    p.add_argument("--tick", type=float, default=0.01,
                   help="batching tick interval, seconds")
    p.add_argument("--max-batch", type=int, default=None)
    p.add_argument("--queue-limit", type=int, default=256)
    p.add_argument("--timeout", type=float, default=5.0,
                   help="default per-request deadline, seconds")
    p.add_argument("--max-connections", type=int, default=64)
    p.add_argument("--duration", type=float, default=None,
                   help="seconds to serve (default: until interrupted)")
    _add_fault_args(p, unit="second", mean_repair=1.0)
    p.add_argument("--fault-budget", type=int, default=8,
                   help="consecutive failing ticks absorbed before faulting")
    p.add_argument("--seed", type=int, default=0, help="fault-injection seed")
    p.add_argument("--json", action="store_true",
                   help="emit the final snapshot as one JSON object")
    p.set_defaults(func=cmd_wire_serve)

    p = sub.add_parser("loadgen",
                       help="open-loop load generator against wire-serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--rate", type=float, default=200.0,
                   help="aggregate offered load, requests/second")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of arrivals to offer")
    p.add_argument("--processors", type=int, default=16,
                   help="processor indices drawn from [0, K)")
    p.add_argument("--arrival", choices=["poisson", "bursty", "diurnal"],
                   default="poisson")
    p.add_argument("--connections", type=int, default=4,
                   help="client connections (requests pipeline within each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-request deadline, seconds")
    p.add_argument("--hold", type=float, default=0.05,
                   help="mean lease hold time, seconds (exponential)")
    p.add_argument("--transmission", type=float, default=0.0,
                   help="circuit-hold before END_TX (0 skips END_TX)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as one JSON object")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("fabric-serve",
                       help="run a sharded multi-process allocation fabric")
    p.add_argument("--network", choices=sorted(TOPOLOGIES),
                   default="omega", help="intra-cell topology")
    p.add_argument("--ports", type=int, default=32, help="ports per cell")
    p.add_argument("--cells", type=int, default=4, help="number of cells")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=40,
                   help="bulk-synchronous rounds of load")
    p.add_argument("--ticks-per-round", type=int, default=8)
    p.add_argument("--rate", type=float, default=0.18,
                   help="arrivals per port per tick (per cell)")
    p.add_argument("--spill-after", type=int, default=4,
                   help="home-queue ticks before a request escalates")
    p.add_argument("--max-hold", type=int, default=6,
                   help="lease hold times drawn from 1..K ticks")
    p.add_argument("--queue-limit", type=int, default=0,
                   help="per-cell admission queue (0 = 4*ports)")
    p.add_argument("--group-size", type=int, default=4,
                   help="cells per spill-network aggregation pod")
    p.add_argument("--uplink", type=int, default=8,
                   help="per-cell spill uplink, requests/round")
    p.add_argument("--trunk", type=int, default=32,
                   help="spill core trunk, requests/round")
    p.add_argument("--kill-cell", type=int, default=None,
                   help="cell index to SIGKILL mid-run (whole-cell chaos "
                        "with its invariants; default: no kill)")
    p.add_argument("--kill-round", type=int, default=None,
                   help="round of the kill (default 10)")
    p.add_argument("--rejoin-round", type=int, default=None,
                   help="round the killed cell rejoins (default 20; 0 = never)")
    p.add_argument("--json", action="store_true",
                   help="emit totals + merged snapshot as one JSON object")
    p.set_defaults(func=cmd_fabric_serve)

    p = sub.add_parser("tokens", help="trace the distributed token architecture")
    _add_workload_args(p)
    p.add_argument("--verbose", action="store_true", help="print every token move")
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("lint", help="invariant lint: R001-R006, R008 over src")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the repro package)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--stats", action="store_true",
                   help="print per-rule hit and suppression counts")
    p.add_argument("--select", action="append", default=[],
                   help="comma-separated rule ids to run (default: all)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("typecheck",
                       help="strict mypy gate on flows/core/analysis/wire")
    p.add_argument("--all", action="store_true",
                   help="check the whole package permissively, not just "
                        "the strict subset")
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("report", help="compact paper-vs-measured snapshot")
    p.add_argument("--trials", type=int, default=60)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # The library validates its own inputs (a rate of 0, a density
        # of 2, a port count the topology cannot realise); at the shell
        # that is one line and a nonzero exit, never a traceback.
        raise SystemExit(f"error: {exc}") from exc
    except InvariantError as exc:  # serve, fabric-serve
        raise SystemExit(f"error: invariant violated: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
