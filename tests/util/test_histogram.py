"""Tests for the log-bucketed latency histogram: bucket geometry,
exact counting, quantiles, merging, and serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.histogram import QUANTILE_LABELS, LatencyHistogram


# ----------------------------------------------------------------------
# Bucket geometry
# ----------------------------------------------------------------------
class TestBucketGeometry:
    @given(value=st.integers(0, 2**50), fine_bits=st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_bounds_contain_value(self, value, fine_bits):
        """Property: every value lies inside its own bucket's bounds."""
        hist = LatencyHistogram(fine_bits=fine_bits)
        low, high = hist.bucket_bounds(hist.bucket_index(value))
        assert low <= value <= high

    @given(fine_bits=st.integers(1, 8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_monotone_in_value(self, fine_bits, data):
        """Property: bucket_index never decreases as the value grows."""
        hist = LatencyHistogram(fine_bits=fine_bits)
        a = data.draw(st.integers(0, 2**40))
        b = data.draw(st.integers(a, a + 2**20))
        assert hist.bucket_index(a) <= hist.bucket_index(b)

    @given(fine_bits=st.integers(1, 10), tier=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_powers_of_two_are_boundaries(self, fine_bits, tier):
        """Every power of two starts a bucket — the property the
        service's legacy tick-multiple wait buckets rely on."""
        hist = LatencyHistogram(fine_bits=fine_bits)
        value = 1 << tier
        assert hist.bucket_bounds(hist.bucket_index(value))[0] == value

    def test_fine_range_buckets_are_exact(self):
        hist = LatencyHistogram(fine_bits=4)
        for value in range(16):
            assert hist.bucket_bounds(hist.bucket_index(value)) == (value, value)

    def test_relative_error_bounded(self):
        hist = LatencyHistogram(fine_bits=7)
        for value in (1000, 12345, 10**6, 2**31 + 17):
            low, high = hist.bucket_bounds(hist.bucket_index(value))
            assert (high - low + 1) <= max(value >> 7, 1) * 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            LatencyHistogram(fine_bits=0)
        with pytest.raises(ValueError):
            LatencyHistogram().bucket_bounds(-1)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class TestRecording:
    def test_counts_and_summary_stats(self):
        hist = LatencyHistogram()
        for v in (5, 5, 300, 7000):
            hist.record(v)
        assert hist.count == 4
        assert hist.total == 5 + 5 + 300 + 7000
        assert hist.min_value == 5
        assert hist.max_value == 7000
        assert hist.mean == pytest.approx((5 + 5 + 300 + 7000) / 4)

    def test_weighted_record(self):
        hist = LatencyHistogram()
        hist.record(9, n=1000)
        assert hist.count == 1000 and hist.total == 9000

    def test_rejects_non_integers_and_negatives(self):
        hist = LatencyHistogram()
        with pytest.raises(TypeError):
            hist.record(1.5)
        with pytest.raises(TypeError):
            hist.record(True)
        with pytest.raises(ValueError):
            hist.record(-1)
        with pytest.raises(ValueError):
            hist.record(1, n=0)

    def test_empty_histogram_reports_zeros(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.quantile(99) == 0
        assert hist.percentiles() == {label: 0 for label, _, _ in QUANTILE_LABELS}


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_exact_in_fine_range(self):
        """Below 2**fine_bits every value has its own bucket, so
        quantiles are exact order statistics."""
        hist = LatencyHistogram(fine_bits=7)
        for v in range(1, 101):  # 1..100, all < 128
            hist.record(v)
        assert hist.quantile(50) == 50
        assert hist.quantile(90) == 90
        assert hist.quantile(99) == 99
        assert hist.quantile(100) == 100

    @given(
        samples=st.lists(st.integers(0, 2**20), min_size=1, max_size=200),
        num_den=st.sampled_from([(50, 100), (90, 100), (99, 100), (999, 1000)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_upper_bounds_true_order_statistic(self, samples, num_den):
        """Property: the reported quantile never undershoots the true
        sample and overshoots by at most one bucket width."""
        num, den = num_den
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        rank = max(1, -(-num * len(samples) // den))
        truth = sorted(samples)[rank - 1]
        reported = hist.quantile(num, den)
        low, high = hist.bucket_bounds(hist.bucket_index(truth))
        assert truth <= reported <= min(high, hist.max_value)

    def test_quantile_never_exceeds_max(self):
        hist = LatencyHistogram()
        hist.record(1_000_001)
        assert hist.quantile(999, 1000) == 1_000_001

    def test_bad_quantiles(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.quantile(101, 100)
        with pytest.raises(ValueError):
            hist.quantile(-1, 100)
        with pytest.raises(ValueError):
            hist.quantile(1, 0)


# ----------------------------------------------------------------------
# Exact threshold counts
# ----------------------------------------------------------------------
class TestCountBelow:
    @given(
        samples=st.lists(st.integers(0, 2**16), min_size=0, max_size=200),
        power=st.integers(0, 17),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_at_powers_of_two(self, samples, power):
        """Property: count_below at any power of two equals the exact
        number of smaller samples."""
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        threshold = 1 << power
        assert hist.count_below(threshold) == sum(s < threshold for s in samples)

    def test_exact_in_fine_range(self):
        hist = LatencyHistogram(fine_bits=7)
        for v in (3, 50, 100, 127):
            hist.record(v)
        assert hist.count_below(51) == 2
        assert hist.count_below(128) == 4

    def test_non_boundary_threshold_raises(self):
        hist = LatencyHistogram(fine_bits=2)
        with pytest.raises(ValueError, match="boundary"):
            hist.count_below(9)  # tier [8,16) at fine_bits=2 → buckets of 2
        with pytest.raises(ValueError):
            hist.count_below(-1)


# ----------------------------------------------------------------------
# Merge and serialisation
# ----------------------------------------------------------------------
class TestMergeAndSerialise:
    @given(
        a=st.lists(st.integers(0, 2**24), max_size=100),
        b=st.lists(st.integers(0, 2**24), max_size=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_recording_everything(self, a, b):
        """Property: merging shard histograms is lossless — identical
        buckets, counts, totals, and extremes to one big histogram."""
        ha, hb, hall = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for s in a:
            ha.record(s)
            hall.record(s)
        for s in b:
            hb.record(s)
            hall.record(s)
        ha.merge(hb)
        assert vars(ha) == vars(hall)

    def test_merge_requires_same_resolution(self):
        with pytest.raises(ValueError):
            LatencyHistogram(fine_bits=7).merge(LatencyHistogram(fine_bits=8))


# ----------------------------------------------------------------------
# Cross-process use (the fabric ships histograms between processes)
# ----------------------------------------------------------------------
class TestCrossProcess:
    def test_pickle_round_trip_preserves_queries(self):
        """The broker receives pickled per-cell histograms over pipes;
        a round-trip must preserve every query exactly."""
        import pickle

        hist = LatencyHistogram()
        for value in (0, 1, 7, 300, 300, 8191, 10**9):
            hist.record(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert vars(clone) == vars(hist)
        assert clone.percentiles() == hist.percentiles()
        assert clone.count_below(1024) == hist.count_below(1024)
        # The clone is independent state, not a shared view.
        clone.record(5)
        assert clone.count == hist.count + 1

    def test_merge_unequal_populations(self):
        """Merging a busy cell into a nearly idle one keeps exact
        counts, extremes, and totals (no averaging artifacts)."""
        busy, idle = LatencyHistogram(), LatencyHistogram()
        for value in range(1000):
            busy.record(value)
        idle.record(2**20)
        idle.merge(busy)
        assert idle.count == 1001
        assert idle.min_value == 0
        assert idle.max_value == 2**20
        assert idle.total == sum(range(1000)) + 2**20
        # The single huge sample is the strict maximum of the merged
        # population, so the top quantile's bucket must contain it.
        low, high = idle.bucket_bounds(idle.bucket_index(2**20))
        assert low <= idle.quantile(1001, 1001) <= high

    @given(
        shards=st.lists(
            st.lists(st.integers(0, 2**30), max_size=60),
            min_size=2,
            max_size=5,
        ),
        numerator=st.integers(1, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_then_quantile_matches_single_histogram(
        self, shards, numerator
    ):
        """Property: quantiles of per-shard histograms merged pairwise
        equal quantiles of one histogram that saw every sample — the
        fabric's merged wait/tick percentiles are exact, not an
        approximation over shards."""
        merged = LatencyHistogram()
        union = LatencyHistogram()
        for shard in shards:
            hist = LatencyHistogram()
            for value in shard:
                hist.record(value)
                union.record(value)
            merged.merge(hist)
        assert vars(merged) == vars(union)
        if union.count:
            assert merged.quantile(numerator) == union.quantile(numerator)
