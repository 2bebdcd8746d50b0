"""Service-level metrics: queue depth, waits, batches, solver cost.

The monitor architecture's cost model (instructions charged to an
:class:`~repro.util.counters.OpCounter`) extends naturally to a
service: every solve the batching loop runs charges the same counter,
so the snapshot reports both *traffic* statistics (queue depth, wait
times, allocations/rejections/timeouts) and *solver* cost
(instructions per allocation — the quantity batching amortises).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any

from repro.distributed.monitor import INSTRUCTION_WEIGHTS
from repro.util.counters import OpCounter
from repro.util.histogram import LatencyHistogram

__all__ = [
    "ServiceMetrics",
    "TICK_PHASES",
    "WAIT_BUCKET_TICKS",
    "tick_timing",
    "wait_percentiles",
]

# Wait-time histogram bucket upper bounds, in units of the tick
# interval (the natural quantum: requests are only granted at ticks).
# Kept as the reporting shape; storage is a log-bucketed
# :class:`~repro.util.histogram.LatencyHistogram` in units of
# 1/1024 tick, whose power-of-two bucket boundaries make these
# tick-multiple cuts exact (see :meth:`ServiceMetrics.wait_histogram`).
WAIT_BUCKET_TICKS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, math.inf)

#: Histogram sub-tick resolution: waits are recorded in 1/1024ths of a
#: tick, so every legacy bucket bound ``b`` sits on the power-of-two
#: boundary ``b * 1024`` and bucket counts stay exact.
UNITS_PER_TICK = 1024

#: The phases of one scheduling cycle whose durations are recorded
#: (see :meth:`ServiceMetrics.record_tick_timing`): ``reconcile`` =
#: fault reconciliation + deadline expiry, ``solve`` = batch selection
#: + the flow solve, ``apply`` = mapping application, engine commit,
#: and lease fan-out.
TICK_PHASES: tuple[str, ...] = ("reconcile", "solve", "apply")


def wait_percentiles(hist: LatencyHistogram) -> dict[str, float]:
    """p50/p90/p99/p999 granted-request wait, in ticks.

    ``hist`` holds waits as :meth:`ServiceMetrics.record_allocation`
    stores them (one service's, or several merged).  Each quantile is
    resolved on the unit histogram and mapped back through the
    recording shift (``units + 1`` upper-bounds ``ticks * 1024``), so
    the figure is a tight upper bound at the histogram's log-bucket
    resolution.
    """
    return {
        label: (value + 1) / UNITS_PER_TICK
        for label, value in hist.percentiles().items()
    }


def tick_timing(
    phase_hists: Mapping[str, LatencyHistogram],
) -> dict[str, dict[str, float]]:
    """Per-phase tick durations: total/mean and p50/p99, in ns.

    The breakdown that attributes where a cell's time goes (solve vs
    apply vs reconcile).  Quantiles come from the per-phase
    :class:`LatencyHistogram`, so per-cell histograms merged with
    :meth:`LatencyHistogram.merge` keep them exact.
    """
    timing: dict[str, dict[str, float]] = {}
    for phase in TICK_PHASES:
        hist = phase_hists[phase]
        p = hist.percentiles()
        timing[phase] = {
            "total_ns": hist.total,
            "mean_ns": hist.mean,
            "p50_ns": p["p50"],
            "p99_ns": p["p99"],
        }
    return timing


class ServiceMetrics:
    """Accumulating counters for one :class:`AllocationService` run.

    All quantities are exact integers or sums — no wall time, no
    sampling — so two runs over the same virtual-clock schedule
    produce identical snapshots.
    """

    def __init__(self, counter: OpCounter, tick_interval: float = 1.0) -> None:
        self.counter = counter
        self.tick_interval = tick_interval
        self.submitted = 0
        self.rejected_full = 0
        self.timed_out = 0
        self.allocated = 0
        self.released = 0
        self.ticks = 0
        self.revoked = 0
        self.tick_retries = 0
        self.faults_injected = 0
        self.repairs_applied = 0
        self.max_queue_depth = 0
        self._queue_depth_sum = 0
        self._batch_sum = 0
        self._wait_sum = 0.0
        self.wait_hist = LatencyHistogram()
        # Per-tick timing breakdown, one histogram per phase, in
        # nanoseconds from Clock.perf_ns().  Under a VirtualClock all
        # durations are exactly 0 (virtual time does not advance inside
        # a cycle), so deterministic snapshots stay byte-identical;
        # under the monotonic clock these attribute where a cell's tick
        # budget actually goes — the fabric benchmark's raw material.
        self.phase_hists: dict[str, LatencyHistogram] = {
            phase: LatencyHistogram() for phase in TICK_PHASES
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_admission(self, queue_depth: int) -> None:
        """A request passed admission control and entered the queue."""
        self.submitted += 1
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def record_rejection(self) -> None:
        """A request bounced off the full queue (backpressure)."""
        self.rejected_full += 1

    def record_timeout(self) -> None:
        """A queued request's deadline expired before allocation."""
        self.timed_out += 1

    def record_allocation(self, wait: float) -> None:
        """A request was granted after waiting ``wait`` time units.

        The wait is stored in integer 1/1024-tick units, shifted down
        by one (``ceil(ticks * 1024) - 1``) so that the legacy bucket
        predicate "ticks <= b" becomes exactly "units < 1024 * b" — a
        power-of-two cut the log-bucketed histogram answers exactly.
        """
        self.allocated += 1
        self._wait_sum += wait
        ticks = wait / self.tick_interval if self.tick_interval > 0 else wait
        units = max(math.ceil(ticks * UNITS_PER_TICK) - 1, 0)
        self.wait_hist.record(units)

    def record_release(self) -> None:
        """A lease was released (resource freed)."""
        self.released += 1

    def record_revocation(self) -> None:
        """A fault severed a held allocation; its lease was revoked."""
        self.revoked += 1

    def record_tick_retry(self) -> None:
        """A scheduling cycle raised but stayed within the fault budget."""
        self.tick_retries += 1

    def record_fault_injected(self) -> None:
        """A fault event failed a healthy component."""
        self.faults_injected += 1

    def record_repair_applied(self) -> None:
        """A repair event restored a failed component."""
        self.repairs_applied += 1

    def record_tick_timing(
        self, *, reconcile_ns: int, solve_ns: int, apply_ns: int
    ) -> None:
        """One cycle's phase durations (integer nanoseconds, >= 0).

        Negative inputs are clamped to 0: ``perf_ns`` sources are
        monotone, but clamping keeps the recording path total-function
        under any future clock.
        """
        self.phase_hists["reconcile"].record(max(reconcile_ns, 0))
        self.phase_hists["solve"].record(max(solve_ns, 0))
        self.phase_hists["apply"].record(max(apply_ns, 0))

    def record_tick(self, batch_size: int, queue_depth: int) -> None:
        """One scheduling cycle finished."""
        self.ticks += 1
        self._batch_sum += batch_size
        self._queue_depth_sum += queue_depth
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def mean_wait(self) -> float:
        """Mean queue wait of granted requests, in time units."""
        return self._wait_sum / self.allocated if self.allocated else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean scheduled batch size per tick."""
        return self._batch_sum / self.ticks if self.ticks else 0.0

    @property
    def mean_queue_depth(self) -> float:
        """Mean post-tick queue depth."""
        return self._queue_depth_sum / self.ticks if self.ticks else 0.0

    def wait_histogram(self) -> dict[str, int]:
        """Granted-request waits, bucketed by tick multiples.

        Labels and counts are identical to the historic fixed-bucket
        implementation: each cut ``b * 1024`` units is a power of two,
        where :meth:`LatencyHistogram.count_below` is exact.
        """
        hist: dict[str, int] = {}
        below_prev = 0
        for bound in WAIT_BUCKET_TICKS:
            if math.isfinite(bound):
                below = self.wait_hist.count_below(int(bound) * UNITS_PER_TICK)
                hist[f"<= {bound:g} ticks"] = below - below_prev
                below_prev = below
            else:
                hist["> 32 ticks"] = self.wait_hist.count - below_prev
        return hist

    def snapshot(self) -> dict[str, Any]:
        """All metrics as a plain dict (JSON-serialisable)."""
        return {
            "ticks": self.ticks,
            "submitted": self.submitted,
            "allocated": self.allocated,
            "released": self.released,
            "timed_out": self.timed_out,
            "rejected_full": self.rejected_full,
            "revoked": self.revoked,
            "tick_retries": self.tick_retries,
            "faults_injected": self.faults_injected,
            "repairs_applied": self.repairs_applied,
            "mean_batch": self.mean_batch,
            "mean_wait": self.mean_wait,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "wait_histogram": self.wait_histogram(),
            "wait_percentiles": wait_percentiles(self.wait_hist),
            "tick_timing": tick_timing(self.phase_hists),
            "solver_ops": dict(sorted(self.counter.counts.items())),
            "solver_instructions": self.counter.total(INSTRUCTION_WEIGHTS),
        }
