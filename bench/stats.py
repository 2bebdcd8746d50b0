"""Percentile and segment arithmetic shared by every workload.

Two rules from ``bench/README.md`` live here:

- a failed operation enters the latency sample as ``+inf``, so it
  counts as missing any latency limit instead of vanishing;
- the **best-segment rule**: the timed window is cut into equal
  segments, each statistic is computed inside every segment, and the
  best segment is reported (highest rate, lowest latency percentile).
  On a shared host interference only ever slows a segment down — and
  this host's speed drifts by tens of percent for seconds at a time —
  so the least disturbed segment is the steadiest estimate of what the
  program itself does.  Whole-window figures are kept as per-layer
  metrics (``loadgen.*_whole``), so the disturbed picture stays visible.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "SEGMENTS",
    "best_percentiles",
    "best_rate",
    "headline",
    "percentile",
    "whole_window",
]

#: Equal slices of the timed window (by an operation's due/start time).
SEGMENTS = 20


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``.

    Nearest rank never does arithmetic on two samples, so ``+inf``
    failures propagate as ``+inf`` instead of ``nan``.  An empty sample
    has no percentile: ``+inf`` (it met no latency limit).
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def _segments(
    samples: Sequence[tuple[float, float]], window: float, segments: int
) -> list[list[float]]:
    """Bucket ``(offset_s, value)`` samples into equal time segments."""
    if window <= 0 or segments < 1:
        raise ValueError("window and segments must be positive")
    buckets: list[list[float]] = [[] for _ in range(segments)]
    for offset, value in samples:
        index = int(offset / window * segments)
        buckets[min(max(index, 0), segments - 1)].append(value)
    return buckets


def best_percentiles(
    samples: Sequence[tuple[float, float]],
    window: float,
    quantiles: Sequence[float],
    segments: int = SEGMENTS,
) -> dict[float, float]:
    """Lowest per-segment value of each percentile.

    ``samples`` are ``(offset_s, value)`` with the offset measured from
    the start of the timed window (an open-loop request's *due* time,
    a closed-loop operation's start).  Empty segments are skipped.
    """
    buckets = [b for b in _segments(samples, window, segments) if b]
    if not buckets:
        return {q: math.inf for q in quantiles}
    return {q: min(percentile(bucket, q) for bucket in buckets) for q in quantiles}


def best_rate(
    events: Iterable[tuple[float, int]], window: float, segments: int = SEGMENTS
) -> float:
    """Highest per-segment rate of completed operations per second.

    ``events`` are ``(offset_s, operations completed at that instant)``.
    """
    totals = [sum(b) for b in _segments(list(events), window, segments)]
    return max(totals) * segments / window


def headline(
    latencies: Sequence[tuple[float, float]],
    completions: Iterable[tuple[float, int]],
    window: float,
    segments: int = SEGMENTS,
) -> dict[str, float]:
    """The three timed end-to-end metrics, by the best-segment rule."""
    quantiles = best_percentiles(latencies, window, (50, 90), segments)
    return {
        "ops_per_s": best_rate(completions, window, segments),
        "latency_p50_ms": quantiles[50],
        "latency_p90_ms": quantiles[90],
    }


def whole_window(
    latencies: Sequence[tuple[float, float]], completed: int, wall: float, failed: int
) -> dict[str, float]:
    """The same quantities over the whole window, disturbances included."""
    values = [value for _, value in latencies]
    return {
        "loadgen.ops_per_s_whole": completed / wall,
        "loadgen.latency_p50_whole_ms": percentile(values, 50),
        "loadgen.latency_p90_whole_ms": percentile(values, 90),
        "loadgen.latency_p99_ms": percentile(values, 99),
        "loadgen.latency_p999_ms": percentile(values, 99.9),
        "loadgen.fail_share": failed / max(len(values), 1),
    }
