"""The multi-process workload: ``fabric-skew``.

Two omega-32 cells in two OS processes behind the program's
``FabricBroker``, driven round by round through the public
``run_round``.  One cell is offered more than it can serve, the other
little, so every round the hot cell's overflow is escalated, routed by
the spill solve and served by the cool cell — the only place the
pickle+pipe IPC, the broker's serial section and ``solve_spill`` do
work.  Sized to the host's two cores; wall clock only, no modelled
speed-ups.

A request the spill tier fails is offered again next round under a new
id (a client retrying), so an operation fails only if it is never
granted; the retries are counted as ``fabric.spill_failed``.
"""

from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import replace
from typing import Any

import numpy as np

from repro.fabric.broker import FabricBroker, RoundOutcome
from repro.fabric.messages import FabricRequest, RoundResult, RoundWork
from repro.fabric.partition import FabricPartition
from repro.fabric.spill import SpillTopology, solve_spill
from repro.util.rng import spawn_rngs

from bench.spec import Check, RunResult
from bench.stats import headline, whole_window
from bench.trace import Tracer

__all__ = ["arrivals_for_round", "run"]

CELLS = 2
PORTS = 32
TICKS_PER_ROUND = 16
SPILL_AFTER = 4
MAX_HOLD = 6
#: Arrivals per port per tick: cell 0 is past its capacity, cell 1 idles.
RATES = (0.23, 0.02)
#: Wide enough that only the host cell's spare capacity limits a spill.
TOPOLOGY = SpillTopology(group_size=4, uplink=64, trunk=64)
WARMUP_ROUNDS = 12
#: Round at which the traced pass reads its exactly-repeating counts.
COUNT_ROUND = 150
#: Every this many rounds the IPC messages and spill solve are replayed.
REPLAY_EVERY = 8
MAX_DRAIN_ROUNDS = 80
#: A round takes ~15 ms, so the default half-second segment would hold
#: ~30 of them and its p90 would rest on three samples; one-second
#: segments (at the 10 s window) halve that statistic's run-to-run spread.
ROUND_SEGMENTS = 10


def arrivals_for_round(
    rngs: list[np.random.Generator], next_id: int
) -> list[FabricRequest]:
    """One round of seeded Poisson arrivals, home-routed, ids from ``next_id``."""
    arrivals: list[FabricRequest] = []
    for cell, (rng, rate) in enumerate(zip(rngs, RATES)):
        count = int(rng.poisson(rate * PORTS * TICKS_PER_ROUND))
        processors = rng.integers(0, PORTS, count)
        holds = rng.integers(1, MAX_HOLD + 1, count)
        ticks = rng.integers(0, TICKS_PER_ROUND, count)
        for processor, hold, tick in zip(processors.tolist(), holds.tolist(), ticks.tolist()):
            arrivals.append(FabricRequest(
                req_id=next_id + len(arrivals), cell=cell, processor=processor,
                hold_ticks=hold, origin_cell=cell, arrive_tick=tick,
            ))
    return arrivals


class _Run:
    """One started fabric plus the bookkeeping of what it was offered."""

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.tracer = tracer
        self.partition = FabricPartition("omega", PORTS, CELLS)
        self.broker = FabricBroker(
            self.partition, queue_limit=4 * PORTS, spill_after=SPILL_AFTER,
            spill_topology=TOPOLOGY,
        )
        self.rngs = spawn_rngs(seed, CELLS)
        self.next_id = 0
        #: Offered and not yet granted, by current request id.
        self.outstanding: dict[int, FabricRequest] = {}
        self.retry: list[FabricRequest] = []
        self.round = 0
        self.totals = {
            "offered": 0, "granted": 0, "spilled": 0, "escalated": 0,
            "spill_failed": 0, "critical_ns": 0, "broker_ns": 0,
        }
        #: ``(arrivals, outcome)`` of every REPLAY_EVERY-th round.
        self.recorded: list[tuple[list[FabricRequest], RoundOutcome]] = []

    def step(self, *, fresh: bool = True) -> tuple[RoundOutcome, float, float]:
        """One round; returns the outcome and its start/end instants."""
        arrivals = self.retry
        self.retry = []
        if fresh:
            new = arrivals_for_round(self.rngs, self.next_id)
            self.next_id += len(new)
            self.totals["offered"] += len(new)
            arrivals = arrivals + new
        for request in arrivals:
            self.outstanding[request.req_id] = request
        self.round += 1
        start = time.perf_counter()
        with self.tracer.span("fabric.run_round", op=self.round):
            outcome = self.broker.run_round(arrivals, TICKS_PER_ROUND)
        end = time.perf_counter()
        for grant in outcome.granted:
            del self.outstanding[grant.req_id]
        for failed in outcome.spill_failed:
            original = self.outstanding.pop(failed.req_id)
            self.retry.append(replace(original, req_id=self.next_id))
            self.next_id += 1
        totals = self.totals
        totals["granted"] += len(outcome.granted)
        totals["spilled"] += sum(1 for grant in outcome.granted if grant.spilled)
        totals["escalated"] += outcome.escalated
        totals["spill_failed"] += len(outcome.spill_failed)
        totals["critical_ns"] += outcome.critical_ns
        totals["broker_ns"] += outcome.broker_ns
        if self.tracer.enabled and self.round % REPLAY_EVERY == 0:
            self.recorded.append((arrivals, outcome))
        return outcome, start, end

    def drain(self) -> bool:
        for _ in range(MAX_DRAIN_ROUNDS):
            outcome, _, _ = self.step(fresh=False)
            if outcome.idle and not self.retry:
                return True
        return False


def _set_up(seed: int) -> tuple[_Run, float]:
    """Spawn the cell processes and warm them up.  Seconds taken."""
    began = time.perf_counter()
    run = _Run(seed, Tracer(enabled=False))
    run.broker.start()
    try:
        for _ in range(WARMUP_ROUNDS):
            run.step()
    except BaseException:
        run.broker.close()
        raise
    return run, time.perf_counter() - began


def run(
    workload: str, seed: int, seconds: float, tracer: Tracer, setups: int
) -> RunResult:
    """One pass of ``fabric-skew``."""
    setup_times = []
    for _ in range(setups - 1):
        fabric, took = _set_up(seed)
        setup_times.append(took)
        fabric.broker.close()
    fabric, took = _set_up(seed)
    setup_times.append(took)
    try:
        fabric.tracer = tracer
        before = dict(fabric.totals)
        round_ms: list[tuple[float, float]] = []
        grant_events: list[tuple[float, int]] = []
        counted: dict[str, float] = {}
        began = time.perf_counter()
        while time.perf_counter() - began < seconds:
            outcome, start, end = fabric.step()
            round_ms.append((start - began, (end - start) * 1e3))
            grant_events.append((end - began, len(outcome.granted)))
            if fabric.round == WARMUP_ROUNDS + COUNT_ROUND:
                counted = _counts(fabric.totals, before)
        wall = time.perf_counter() - began
        window = {k: fabric.totals[k] - before[k] for k in before}
        fabric.tracer = Tracer(enabled=False)
        drained = fabric.drain()
        snapshot = fabric.broker.snapshot()
        registry = fabric.broker.registry_size
    finally:
        fabric.broker.close()

    end_to_end = headline(round_ms, grant_events, seconds, ROUND_SEGMENTS)
    end_to_end["setup_s"] = statistics.median(setup_times)
    layers: dict[str, float] = {}
    totals = fabric.totals
    leaked = {
        cell_id: int(cell["allocated"]) - int(cell["released"]) - int(cell["revoked"])
        for cell_id, cell in snapshot["cells"].items()
    }
    checks = [
        Check("drained to quiescence", drained, f"after {fabric.round} rounds"),
        Check(
            "every offered request granted (spill failures re-offered)",
            not fabric.outstanding and totals["offered"] == totals["granted"],
            f"offered={totals['offered']} granted={totals['granted']} "
            f"retried={totals['spill_failed']} ungranted={len(fabric.outstanding)}",
        ),
        Check(
            "custody registry empty and no cell holds a lease after the drain",
            registry == 0 and not any(leaked.values()),
            f"registry={registry} per-cell outstanding={leaked}",
        ),
    ]
    if tracer.enabled:
        layers = {
            "fabric.critical_cpu_share": window["critical_ns"] / (wall * 1e9),
            "fabric.broker_cpu_share": window["broker_ns"] / (wall * 1e9),
            "fabric.wait_share": 1 - (window["critical_ns"] + window["broker_ns"]) / (wall * 1e9),
            "fabric.cell_cpu_us_per_alloc": window["critical_ns"] / max(window["granted"], 1) / 1e3,
            **_replay(fabric),
            **(counted or _counts(fabric.totals, before)),
            **whole_window(round_ms, window["granted"], wall, len(fabric.outstanding)),
        }
    return RunResult(
        workload=workload,
        params={
            "cells": CELLS, "cell_network": f"omega-{PORTS}", "processes": CELLS + 1,
            "ticks_per_round": TICKS_PER_ROUND, "rates_per_port_tick": list(RATES),
            "spill_after_ticks": SPILL_AFTER, "max_hold_ticks": MAX_HOLD,
            "window_s": seconds, "rounds_in_window": len(round_ms),
            "spill_share_in_window": round(window["spilled"] / max(window["granted"], 1), 4),
        },
        attempted=totals["offered"],
        failed=len(fabric.outstanding),
        end_to_end=end_to_end,
        layers=layers,
        checks=checks,
        samples={"rounds": len(round_ms), "grants": window["granted"], "setups": setups},
    )


def _counts(totals: dict[str, int], before: dict[str, int]) -> dict[str, float]:
    """Counts that repeat exactly for a seed: read at a fixed round."""
    delta = {k: totals[k] - before[k] for k in before}
    return {
        "fabric.spill_share": delta["spilled"] / max(delta["granted"], 1),
        "fabric.escalated": delta["escalated"],
        "fabric.spill_failed": delta["spill_failed"],
    }


def _replay(fabric: _Run) -> dict[str, float]:
    """IPC and spill-solve cost, replayed on recorded rounds.

    The broker's messages are rebuilt from what crossed its public
    interface — a round's arrivals and its :class:`RoundOutcome` — so
    the sizes match the real ``RoundWork`` / ``RoundResult`` traffic
    (one of each per cell per round) without reaching into the pipe.
    """
    cell_ids = [placement.cell_id for placement in fabric.partition.cells]
    pickle_ns = 0
    spill_ns: list[int] = []
    for arrivals, outcome in fabric.recorded:
        messages: list[Any] = []
        for cell, cell_id in enumerate(cell_ids):
            granted = tuple(g for g in outcome.granted if g.lease_id.startswith(cell_id))
            messages.append(RoundWork(
                round_no=outcome.round_no, ticks=TICKS_PER_ROUND,
                arrivals=tuple(r for r in arrivals if r.cell == cell),
            ))
            messages.append(RoundResult(
                round_no=outcome.round_no, cell=cell, granted=granted,
                released=tuple(g.lease_id for g in granted), unplaced=(),
                spare=outcome.spares.get(cell, 0),
                queue_depth=outcome.queue_depths.get(cell, 0),
                active_leases=outcome.active_leases.get(cell, 0),
                busy_resources=outcome.active_leases.get(cell, 0), compute_ns=0,
            ))
        began = time.perf_counter_ns()
        for message in messages:
            pickle.loads(pickle.dumps(message))
        pickle_ns += time.perf_counter_ns() - began
        if outcome.escalated:
            began = time.perf_counter_ns()
            solve_spill(
                {0: outcome.escalated}, outcome.spares, topology=TOPOLOGY, n_cells=CELLS
            )
            spill_ns.append(time.perf_counter_ns() - began)
    rounds = max(len(fabric.recorded), 1)
    return {
        "fabric.pickle_us_per_round": pickle_ns / rounds / 1e3,
        "fabric.spill_solve_us": statistics.mean(spill_ns) / 1e3 if spill_ns else 0.0,
    }
