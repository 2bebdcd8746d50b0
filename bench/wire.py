"""The two TCP workloads: ``wire-open`` and ``wire-closed``.

The server is the program's own ``python -m repro wire-serve`` in its
own process, so client and server each get a core; the client side is
this module's driver over the public :class:`WireClient`.  Loopback is
the transport — latencies are processor time plus tick quantisation,
not a network's.

The open-loop driver differs from ``repro.wire.loadgen.run_loadgen`` in
what it times: each request is timed from the instant it was **due**,
so a stalled generator or server charges the wait to every request it
delays, and the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.util.rng import make_rng
from repro.wire.client import (
    RemoteLease,
    WireClient,
    WireError,
    WireRejected,
    WireTimeout,
)
from repro.wire.loadgen import Arrival, LoadGenConfig, arrival_schedule
from repro.wire.protocol import (
    decode,
    encode,
    make_acquire,
    make_lease,
    make_ok,
    make_release,
)

from bench import SRC_DIR
from bench.spec import Check, RunResult
from bench.stats import best_percentiles, headline, percentile, whole_window
from bench.trace import Tracer

__all__ = ["LADDER_RATES", "ServerProcess", "run", "run_ladder", "open_loop_schedule"]

PORTS = 64
TICK_S = 0.002
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 5.0
OPEN_RATE = 1000.0
MEAN_HOLD_S = 0.002
WARMUP_S = 0.5
PINGS = 300
#: Frames replayed through encode/decode for the codec cost.
CODEC_SAMPLE_OPS = 2000

LADDER_RATES = (500.0, 1000.0, 2000.0, 3000.0, 4000.0)
LADDER_STEP_S = 6.0
#: The ladder's latency limit on segment-median p90: five ticks.
SLO_P90_MS = 5 * TICK_S * 1e3


class ServerProcess:
    """One ``python -m repro wire-serve`` child on a free loopback port."""

    def __init__(self, lifetime_s: float) -> None:
        #: The server exits by itself after this long, so a crashed
        #: benchmark can never leave it running.
        self.lifetime_s = lifetime_s
        self.port = 0
        self._proc: subprocess.Popen[bytes] | None = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "wire-serve",
                "--network", "omega", "--ports", str(PORTS), "--port", "0",
                "--tick", str(TICK_S), "--queue-limit", "4096",
                "--timeout", str(REQUEST_TIMEOUT_S),
                "--duration", str(self.lifetime_s),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
        )
        banner = self._read_banner(timeout_s=30.0)
        # "wire-serve: omega-64 listening on 127.0.0.1:PORT"
        self.port = int(banner.rsplit(":", 1)[1])

    def _read_banner(self, timeout_s: float) -> str:
        proc = self._proc
        if proc is None or proc.stdout is None:
            raise RuntimeError("server not started")
        deadline = time.monotonic() + timeout_s
        data = b""
        while not data.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
            chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(f"wire-serve did not come up (got {data!r})")
            data += chunk
        return data.decode().strip()

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used (``/proc``)."""
        if self._proc is None:
            return 0.0
        try:
            with open(f"/proc/{self._proc.pid}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


_SPIN = """
import os, sys, time
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
end = time.monotonic() + float(sys.argv[1])
while time.monotonic() < end:
    pass
"""


class AwakeCpus:
    """Holds every CPU out of the halted state for an open-loop window.

    At ~12 % load client and server sleep between events, so each
    request pays several idle wake-ups.  On a virtual CPU a wake-up
    from halt is a round trip through the hypervisor whose cost follows
    the host's adaptive halt polling: the same code measured p50
    2.9 ms right after a busy workload and 3.8 ms once the host had
    settled, drifting over minutes.  One lowest-priority (SCHED_IDLE)
    spinner per CPU runs only when nothing else is runnable and is
    preempted the moment client or server wakes, which pins the fast
    state (ten seeds: p50 2.81-2.92 ms) - the measurement a machine
    booted with ``idle=poll`` would give.  Saturating workloads never
    halt, and the spinners only cost them throughput, so they run bare.
    """

    def __init__(self, lifetime_s: float) -> None:
        #: The spinners exit by themselves after this long.
        self.lifetime_s = lifetime_s
        self._procs: list[subprocess.Popen[bytes]] = []

    def __enter__(self) -> "AwakeCpus":
        for _ in range(os.cpu_count() or 1):
            self._procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(self.lifetime_s)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
        return self

    def __exit__(self, *exc: object) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait()
        self._procs.clear()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class _Log:
    """What a driver recorded during one window."""

    #: ``(due_or_start_offset_s, latency_ms or +inf)`` per attempt.
    latencies: list[tuple[float, float]] = field(default_factory=list)
    #: Completion offsets (s) of successful operations.
    done: list[float] = field(default_factory=list)
    #: How late each open-loop request was dispatched, ms.
    late_ms: list[float] = field(default_factory=list)
    #: ``(processor, lease_id, resource, waited)`` of granted leases.
    grants: list[tuple[int, int, int, float]] = field(default_factory=list)
    rejected: int = 0
    timed_out: int = 0
    errors: int = 0
    #: RELEASEs that failed after a granted ACQUIRE.
    release_errors: int = 0

    @property
    def failed(self) -> int:
        return self.rejected + self.timed_out + self.errors + self.release_errors


def _count_failure(log: _Log, exc: WireError) -> None:
    if isinstance(exc, WireRejected):
        log.rejected += 1
    elif isinstance(exc, WireTimeout):
        log.timed_out += 1
    else:
        log.errors += 1


def open_loop_schedule(seed: int, rate: float, seconds: float) -> list[Arrival]:
    """The seeded Poisson arrivals of one open-loop window."""
    return arrival_schedule(LoadGenConfig(
        rate=rate, duration=seconds, processors=PORTS, connections=CONNECTIONS,
        seed=seed, request_timeout=REQUEST_TIMEOUT_S, mean_hold=MEAN_HOLD_S,
    ))


async def _open_loop(
    clients: list[WireClient], schedule: list[Arrival], tracer: Tracer
) -> _Log:
    """Fire every arrival at its due instant, whatever came before."""
    loop = asyncio.get_running_loop()
    log = _Log()
    start = loop.time() + 0.02

    async def one(index: int, arrival: Arrival) -> None:
        due = start + arrival.time
        client = clients[index % len(clients)]
        log.late_ms.append((loop.time() - due) * 1e3)
        span = tracer.begin("wire.acquire", op=index)
        try:
            lease = await client.acquire(arrival.processor)
        except WireError as exc:
            tracer.end(span)
            _count_failure(log, exc)
            log.latencies.append((arrival.time, float("inf")))
            return
        tracer.end(span)
        now = loop.time()
        log.latencies.append((arrival.time, (now - due) * 1e3))
        log.done.append(now - start)
        log.grants.append(
            (arrival.processor, lease.lease_id, lease.resource, lease.waited)
        )
        await _hold_and_release(client, lease, arrival.hold, log, tracer, index)

    tasks = []
    for index, arrival in enumerate(schedule):
        delay = start + arrival.time - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, arrival)))
    await asyncio.gather(*tasks)
    return log


async def _hold_and_release(
    client: WireClient, lease: RemoteLease, hold: float,
    log: _Log, tracer: Tracer, op: int,
) -> None:
    if hold > 0:
        await asyncio.sleep(hold)
    span = tracer.begin("wire.release", op=op)
    try:
        await client.release(lease)
    except WireError:
        log.release_errors += 1
    finally:
        tracer.end(span)


async def _closed_loop(
    clients: list[WireClient], seed: int, seconds: float, tracer: Tracer
) -> _Log:
    """One worker per processor: acquire, release, again — until time."""
    loop = asyncio.get_running_loop()
    log = _Log()
    # The seed decides which connection carries which processor.
    lanes = make_rng(seed).permutation(PORTS)
    start = loop.time()
    deadline = start + seconds

    async def worker(processor: int, client: WireClient) -> None:
        op = 0
        while (sent := loop.time()) < deadline:
            op += 1
            span = tracer.begin("wire.acquire", op=processor * 1_000_000 + op)
            try:
                lease = await client.acquire(processor)
            except WireError as exc:
                tracer.end(span)
                _count_failure(log, exc)
                log.latencies.append((sent - start, float("inf")))
                await asyncio.sleep(TICK_S)
                continue
            tracer.end(span)
            log.latencies.append((sent - start, (loop.time() - sent) * 1e3))
            log.grants.append((processor, lease.lease_id, lease.resource, lease.waited))
            await _hold_and_release(client, lease, 0.0, log, tracer, op)
            log.done.append(loop.time() - start)

    await asyncio.gather(*(
        worker(processor, clients[int(lanes[processor]) % len(clients)])
        for processor in range(PORTS)
    ))
    return log


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
async def _connect(server: ServerProcess, seed: int) -> list[WireClient]:
    clients = [
        WireClient(
            "127.0.0.1", server.port,
            request_timeout=REQUEST_TIMEOUT_S, reconnect_attempts=3, rng=seed + i,
        )
        for i in range(CONNECTIONS)
    ]
    for client in clients:
        await client.connect()
    return clients


async def _window(
    workload: str, clients: list[WireClient], seed: int, seconds: float, tracer: Tracer
) -> _Log:
    if workload == "wire-open":
        return await _open_loop(
            clients, open_loop_schedule(seed, OPEN_RATE, seconds), tracer
        )
    return await _closed_loop(clients, seed, seconds, tracer)


async def _set_up(
    workload: str, seed: int, seconds: float
) -> tuple[ServerProcess, list[WireClient], float]:
    """Spawn, connect, warm up; returns the pieces and the seconds taken."""
    began = time.perf_counter()
    server = ServerProcess(lifetime_s=seconds + 120.0)
    server.start()
    try:
        clients = await _connect(server, seed)
        await _window(workload, clients, seed + 7919, WARMUP_S, Tracer(enabled=False))
    except BaseException:
        server.stop()
        raise
    return server, clients, time.perf_counter() - began


async def _tear_down(server: ServerProcess, clients: list[WireClient]) -> None:
    for client in clients:
        await client.close()
    server.stop()


async def _pass(
    workload: str, seed: int, seconds: float, tracer: Tracer, setups: int
) -> RunResult:
    setup_times = []
    for _ in range(setups - 1):
        server, clients, took = await _set_up(workload, seed, seconds)
        setup_times.append(took)
        await _tear_down(server, clients)
    server, clients, took = await _set_up(workload, seed, seconds)
    setup_times.append(took)
    try:
        layers: dict[str, float] = {}
        if tracer.enabled:
            layers["wire.ping_rtt_p50_us"] = await _ping_rtt_us(clients[0])
        before = await clients[0].stats()
        awake = (
            AwakeCpus(lifetime_s=seconds + 60.0) if workload == "wire-open"
            else contextlib.nullcontext()
        )
        with awake:
            cpu_server, cpu_client = server.cpu_seconds(), time.process_time()
            began = time.perf_counter()
            log = await _window(workload, clients, seed, seconds, tracer)
            wall = time.perf_counter() - began
            cpu_server = server.cpu_seconds() - cpu_server
            cpu_client = time.process_time() - cpu_client
        after = await clients[0].stats()
        stale = sum(client.stale_replies for client in clients)
        client_errors = sum(client.protocol_errors for client in clients)
    finally:
        await _tear_down(server, clients)

    attempted = len(log.latencies)
    granted = len(log.grants)
    end_to_end = headline(log.latencies, [(t, 1) for t in log.done], seconds)
    if workload == "wire-open" and log.done:
        # An open loop completes what it was offered however the host
        # stalls, so its rate is what was delivered from the first due
        # instant to the last completion; no segment is "best".
        end_to_end["ops_per_s"] = len(log.done) / max(log.done)
    end_to_end["setup_s"] = statistics.median(setup_times)
    checks = [
        Check(
            "offered == granted + rejected + timed_out + errors",
            attempted == granted + log.rejected + log.timed_out + log.errors,
            f"{attempted} == {granted} + {log.rejected} + {log.timed_out} + {log.errors}",
        ),
        Check(
            "server ends with no active lease and an empty queue",
            after["active_leases"] == 0 and after["queue_depth"] == 0,
            f"active_leases={after['active_leases']} queue_depth={after['queue_depth']}",
        ),
        Check(
            "no protocol errors on either end",
            after["wire"]["protocol_errors"] == 0 and client_errors == 0,
            f"server={after['wire']['protocol_errors']} client={client_errors}",
        ),
    ]
    if tracer.enabled:
        ops = max(len(log.done), 1)
        frames = after["wire"]["frames_received"] - before["wire"]["frames_received"]
        timing = after["tick_timing"]
        layers.update(_codec_cost(log.grants[:CODEC_SAMPLE_OPS]))
        layers.update({
            "wire.server_cpu_share": cpu_server / wall,
            "wire.server_cpu_us_per_op": cpu_server / ops * 1e6,
            "wire.client_cpu_share": cpu_client / wall,
            # Every request frame the server read drew exactly one reply.
            "wire.frames_per_op": 2 * frames / ops,
            "wire.protocol_errors": after["wire"]["protocol_errors"] + client_errors,
            "wire.stale_replies": stale,
            "loadgen.late_p99_ms": percentile(log.late_ms, 99) if log.late_ms else 0.0,
            **whole_window(log.latencies, len(log.done), wall, log.failed),
            "service.reconcile_us_p50": timing["reconcile"]["p50_ns"] / 1e3,
            "service.solve_us_p50": timing["solve"]["p50_ns"] / 1e3,
            "service.apply_us_p50": timing["apply"]["p50_ns"] / 1e3,
            "service.queue_wait_p50_ms": after["wait_percentiles"]["p50"] * TICK_S * 1e3,
            "service.batch_mean": after["mean_batch"],
            "service.queue_depth_mean": after["mean_queue_depth"],
            "service.ticks": after["ticks"] - before["ticks"],
            "service.engine_builds": after["engine_builds"],
        })
    return RunResult(
        workload=workload,
        params={
            "transport": "TCP over loopback", "server": f"omega-{PORTS}",
            "tick_ms": TICK_S * 1e3, "connections": CONNECTIONS,
            "loop": (f"open, Poisson {OPEN_RATE:g} req/s, mean hold {MEAN_HOLD_S * 1e3:g} ms"
                     if workload == "wire-open" else f"closed, {PORTS} workers, zero hold"),
            "window_s": seconds, "client_cpu_share": round(cpu_client / wall, 3),
            "generator_valid": cpu_client / wall < 0.9,
        },
        attempted=attempted,
        failed=log.failed,
        end_to_end=end_to_end,
        layers=layers,
        checks=checks,
        samples={"latencies": attempted, "completed": len(log.done), "setups": setups},
    )


async def _ping_rtt_us(client: WireClient) -> float:
    """Median PING→PONG on the idle server: frame + TCP + dispatch, no tick."""
    samples = []
    for _ in range(PINGS):
        began = time.perf_counter_ns()
        await client.ping()
        samples.append((time.perf_counter_ns() - began) / 1e3)
    return percentile(samples, 50)


def _codec_cost(grants: list[tuple[int, int, int, float]]) -> dict[str, float]:
    """Mean ``protocol.encode`` / ``decode`` cost over the run's own frames.

    Each granted operation put four frames on the wire — ACQUIRE,
    LEASE, RELEASE, OK — rebuilt here from what the run was granted.
    """
    frames = []
    for n, (processor, lease_id, resource, waited) in enumerate(grants):
        frames += [
            make_acquire(2 * n + 1, processor, timeout=REQUEST_TIMEOUT_S),
            make_lease(2 * n + 1, lease_id, resource, waited),
            make_release(2 * n + 2, lease_id),
            make_ok(2 * n + 2, lease_id=lease_id),
        ]
    if not frames:
        return {}
    began = time.perf_counter_ns()
    lines = [encode(frame) for frame in frames]
    encoded = time.perf_counter_ns()
    for line in lines:
        decode(line)
    decoded = time.perf_counter_ns()
    return {
        "wire.encode_us": (encoded - began) / len(frames) / 1e3,
        "wire.decode_us": (decoded - encoded) / len(frames) / 1e3,
        "wire.bytes_per_op": sum(map(len, lines)) / len(grants),
    }


def run(
    workload: str, seed: int, seconds: float, tracer: Tracer, setups: int
) -> RunResult:
    """One pass of ``wire-open`` or ``wire-closed``."""
    return asyncio.run(_pass(workload, seed, seconds, tracer, setups))


# ----------------------------------------------------------------------
# The rate ladder (not part of the gated pass)
# ----------------------------------------------------------------------
async def _ladder(seed: int, step_s: float) -> dict[str, Any]:
    total_s = step_s * len(LADDER_RATES)
    server, clients, _ = await _set_up("wire-open", seed, total_s)
    steps = []
    try:
        with AwakeCpus(lifetime_s=total_s + 60.0):
            for rate in LADDER_RATES:
                steps.append(await _ladder_step(clients, seed, rate, step_s))
    finally:
        await _tear_down(server, clients)
    passing = [step["rate"] for step in steps if step["within_slo"]]
    return {"steps": steps, "max_rate_within_slo": max(passing, default=0.0)}


async def _ladder_step(
    clients: list[WireClient], seed: int, rate: float, step_s: float
) -> dict[str, Any]:
    schedule = open_loop_schedule(seed, rate, step_s)
    log = await _open_loop(clients, schedule, Tracer(enabled=False))
    first, last = (
        percentile([lat for off, lat in log.latencies if lo <= off < lo + step_s / 5], 50)
        for lo in (0.0, step_s * 4 / 5)
    )
    p90 = best_percentiles(log.latencies, step_s, (90,))[90]
    return {
        "rate": rate, "offered": len(schedule), "failed": log.failed,
        "p90_ms": p90, "first_fifth_p50_ms": first, "last_fifth_p50_ms": last,
        # A backlog that grows shows as latency climbing through the step.
        "within_slo": (
            log.failed == 0 and p90 <= SLO_P90_MS and last <= 2 * first + TICK_S * 1e3
        ),
    }


def run_ladder(seed: int, step_s: float = LADDER_STEP_S) -> dict[str, Any]:
    """Step the open loop through :data:`LADDER_RATES`; highest rate in SLO."""
    return asyncio.run(_ladder(seed, step_s))
