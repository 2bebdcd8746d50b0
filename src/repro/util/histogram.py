"""Log-bucketed integer latency histogram (HdrHistogram-style).

Tail-latency SLOs (p99/p999) need every sample counted — a mean hides
exactly the waits that matter — but storing every sample is unbounded.
:class:`LatencyHistogram` is the standard compromise: values are
bucketed log-linearly (each power-of-two tier split into
``2**FINE_BITS`` equal sub-buckets), so counts are **exact**, relative
quantile error is bounded by ``2**-FINE_BITS``, and the memory footprint
is a small sparse dict regardless of how many samples arrive.

Everything on the recording path is integer arithmetic — values are
whatever integer unit the caller picked (microseconds, milli-ticks);
the histogram never converts, rounds, or floats them (the same exactness
discipline R003 enforces for flows).  Every histogram has the same
geometry, so histograms merge by bucket-count addition and per-connection
or per-shard histograms aggregate losslessly.
"""

from __future__ import annotations

__all__ = ["LatencyHistogram", "QUANTILE_LABELS"]

#: Sub-bucket resolution: each power-of-two tier ``[2**k, 2**(k+1))`` is
#: split into ``2**FINE_BITS`` equal buckets, bounding relative quantile
#: error by ``2**-FINE_BITS`` (≤ 0.79%).  Values below ``2**FINE_BITS``
#: get one bucket each (exact).
FINE_BITS = 7
_FINE = 1 << FINE_BITS

#: The quantiles :meth:`LatencyHistogram.percentiles` reports, as
#: ``(label, numerator, denominator)`` — kept rational so the rank
#: computation stays exact.
QUANTILE_LABELS: tuple[tuple[str, int, int], ...] = (
    ("p50", 50, 100),
    ("p90", 90, 100),
    ("p99", 99, 100),
    ("p999", 999, 1000),
)


class LatencyHistogram:
    """Exact-count, log-bucketed histogram over non-negative integers.

    Every power of two is a bucket *boundary*, so :meth:`count_below`
    is exact at power-of-two thresholds — the property
    :class:`~repro.service.metrics.ServiceMetrics` uses to keep its
    legacy tick-multiple wait buckets bit-identical.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max_value = 0
        self.min_value = 0

    # ------------------------------------------------------------------
    # Bucket geometry
    # ------------------------------------------------------------------
    def bucket_index(self, value: int) -> int:
        """Index of the bucket holding ``value`` (int, >= 0)."""
        if value < _FINE:
            return value
        top = value.bit_length() - 1
        return ((top - FINE_BITS + 1) << FINE_BITS) + ((value - (1 << top)) >> (top - FINE_BITS))

    def bucket_bounds(self, index: int) -> tuple[int, int]:
        """Inclusive ``(low, high)`` value range of bucket ``index``."""
        if index < 0:
            raise ValueError(f"bucket index {index} negative")
        if index < _FINE:
            return (index, index)
        offset = index - _FINE
        tier = FINE_BITS + (offset >> FINE_BITS)
        sub = offset & (_FINE - 1)
        width = 1 << (tier - FINE_BITS)
        low = (1 << tier) + sub * width
        return (low, low + width - 1)

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------
    def record(self, value: int) -> None:
        """Count ``value`` once.  Integer-only; O(1)."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"LatencyHistogram records ints, got {value!r}")
        if value < 0:
            raise ValueError(f"cannot record negative value {value}")
        index = self.bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        if self.count == 0 or value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.count += 1
        self.total += value

    def merge(self, other: "LatencyHistogram") -> None:
        """Add ``other``'s counts into this histogram (lossless)."""
        for index, n in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + n
        if other.count:
            if self.count == 0 or other.min_value < self.min_value:
                self.min_value = other.min_value
            if other.max_value > self.max_value:
                self.max_value = other.max_value
        self.count += other.count
        self.total += other.total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mean recorded value (reporting path; 0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, numerator: int, denominator: int = 100) -> int:
        """Upper bound of the bucket holding the q-th ranked sample.

        ``numerator/denominator`` is the quantile (``99, 100`` → p99);
        rank arithmetic is exact-rational.  Returns 0 when empty.  The
        reported value is never below the true sample and overshoots by
        at most one bucket width (relative error ``<= 2**-FINE_BITS``).
        """
        if not 0 <= numerator <= denominator or denominator <= 0:
            raise ValueError(f"bad quantile {numerator}/{denominator}")
        if not self.count:
            return 0
        rank = max(1, -(-numerator * self.count // denominator))  # ceil
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                high = self.bucket_bounds(index)[1]
                return min(high, self.max_value)
        return self.max_value  # pragma: no cover - rank <= count always hits

    def percentiles(self) -> dict[str, int]:
        """The SLO quantiles (:data:`QUANTILE_LABELS`) in one dict."""
        return {
            label: self.quantile(num, den) for label, num, den in QUANTILE_LABELS
        }

    def count_below(self, threshold: int) -> int:
        """Exact number of samples with ``value < threshold``.

        ``threshold`` must be a bucket boundary (any value up to
        ``2**FINE_BITS``, or the low edge of some bucket — every power
        of two qualifies); otherwise the count would have to split a
        bucket and this raises :class:`ValueError` instead of guessing.
        """
        if threshold < 0:
            raise ValueError(f"threshold {threshold} negative")
        if threshold > _FINE:
            index = self.bucket_index(threshold)
            if self.bucket_bounds(index)[0] != threshold:
                raise ValueError(
                    f"threshold {threshold} is not a bucket boundary; counts would be inexact"
                )
        boundary = self.bucket_index(threshold) if threshold else 0
        return sum(n for index, n in self._counts.items() if index < boundary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "LatencyHistogram(empty)"
        p = self.percentiles()
        return (
            f"LatencyHistogram(count={self.count}, p50={p['p50']}, "
            f"p99={p['p99']}, p999={p['p999']}, max={self.max_value})"
        )
