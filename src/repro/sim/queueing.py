"""Discrete-event simulation of the Section II task lifecycle.

Model items 4–5 of the paper: tasks arrive at processors (Poisson),
each needs exactly one resource; a processor transmits one task at a
time; the circuit is held only for the transmission, after which the
processor may issue further requests while the resource stays busy for
the service time.  Scheduling cycles run whenever requests are pending
and resources are ready.

The simulator measures resource utilization and task response time as
functions of offered load — the system-level payoff of low blocking
(the paper: *"The extra delay ... may decrease the utilization of
resources, and hence increase the response time of the system"*).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.sim.blocking import POLICIES
from repro.util.rng import make_rng

__all__ = ["QueueingResult", "simulate_queueing", "WARMUP"]

#: Simulated time the statistics skip by default: the run starts empty.
WARMUP = 20.0


@dataclass
class QueueingResult:
    """Steady-state estimates from one queueing run.

    Attributes
    ----------
    utilization:
        Time-averaged fraction of busy resources.
    mean_response:
        Mean task time-in-system (arrival → service completion).
    completed:
        Tasks finished within the horizon.
    offered_load:
        ``arrival_rate * mean_service / n_resources`` — the normalized
        load the run was driven at.
    mean_queue:
        Time-averaged number of queued (unscheduled) tasks.
    """

    utilization: float
    mean_response: float
    completed: int
    offered_load: float
    mean_queue: float


def simulate_queueing(
    mrsin: MRSIN,
    *,
    policy: str = "optimal",
    arrival_rate: float = 1.0,
    mean_service: float = 1.0,
    transmission_time: float = 0.1,
    horizon: float = 200.0,
    warmup: float = WARMUP,
    min_batch: int = 1,
    seed: int | np.random.Generator | None = None,
) -> QueueingResult:
    """Run the task-lifecycle simulation on ``mrsin``.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate *per processor*.
    mean_service:
        Mean of the exponential resource service time.
    transmission_time:
        Fixed circuit-holding time per task (model item 5).
    horizon, warmup:
        Simulated time; statistics ignore the first ``warmup``, which
        must lie in ``[0, horizon)``.
    min_batch:
        Scheduling-cycle trigger: wait until at least this many
        requests are pending before scheduling — the paper's Fig. 10
        option to *"wait for more requests to arrive and more
        resources to become available before entering a scheduling
        cycle"*.  1 = schedule eagerly.
    """
    if policy not in ("optimal", "greedy", "random_binding"):
        raise ValueError(f"unknown policy {policy!r}")
    if not 0 < arrival_rate < math.inf:  # NaN fails both comparisons
        raise ValueError(f"arrival_rate must be positive and finite, got {arrival_rate}")
    if min_batch < 1:
        raise ValueError(f"min_batch must be >= 1, got {min_batch}")
    if not mean_service >= 0:
        raise ValueError(f"mean_service must be >= 0, got {mean_service}")
    if not transmission_time >= 0:
        raise ValueError(f"transmission_time must be >= 0, got {transmission_time}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0 <= warmup < horizon:  # else no statistics window: an all-zero table
        raise ValueError(f"warmup must be in [0, horizon={horizon:g}), got {warmup}")
    rng = make_rng(seed)
    dispatch = POLICIES[policy]
    mrsin.reset()
    n_proc = mrsin.n_processors
    tie = itertools.count()
    events: list[tuple[float, int, str, object]] = []

    def push(t: float, kind: str, payload: object = None) -> None:
        heapq.heappush(events, (t, next(tie), kind, payload))

    for p in range(n_proc):
        push(float(rng.exponential(1.0 / arrival_rate)), "arrival", p)

    arrival_time: dict[object, float] = {}
    # Integrators for time-averaged statistics.
    last_t = 0.0
    busy_integral = 0.0
    queue_integral = 0.0
    responses: list[float] = []
    completed = 0
    needs_schedule = False

    def integrate(now: float) -> None:
        nonlocal last_t, busy_integral, queue_integral
        span = now - last_t
        if span > 0 and now > warmup:
            span = min(span, now - max(last_t, warmup))
            busy_integral += span * sum(r.busy for r in mrsin.resources)
            queue_integral += span * len(mrsin.pending)
        last_t = now

    while events:
        now, _, kind, payload = heapq.heappop(events)
        if now > horizon:
            integrate(horizon)
            break
        integrate(now)
        if kind == "arrival":
            p = payload
            tag = (p, now)
            arrival_time[tag] = now
            mrsin.submit(Request(p, tag=tag))
            push(now + float(rng.exponential(1.0 / arrival_rate)), "arrival", p)
            needs_schedule = True
        elif kind == "transmission_done":
            mrsin.complete_transmission(payload)
            needs_schedule = True
        elif kind == "service_done":
            r, tag = payload
            mrsin.complete_service(r)
            completed += 1
            if now > warmup:
                responses.append(now - arrival_time[tag])
            del arrival_time[tag]
            needs_schedule = True
        if (
            needs_schedule
            and len(mrsin.pending) >= min_batch
            and mrsin.free_resources()
        ):
            needs_schedule = False
            mapping = dispatch(mrsin, rng)
            if mapping.assignments:
                mrsin.apply_mapping(mapping)
                for a in mapping.assignments:
                    r = a.resource.index
                    push(now + transmission_time, "transmission_done", r)
                    service = transmission_time + float(rng.exponential(mean_service))
                    push(now + service, "service_done", (r, a.request.tag))
    window = horizon - warmup
    return QueueingResult(
        utilization=busy_integral / (window * mrsin.n_resources),
        mean_response=(sum(responses) / len(responses)) if responses else 0.0,
        completed=completed,
        offered_load=arrival_rate * n_proc * mean_service / mrsin.n_resources,
        mean_queue=queue_integral / window,
    )
