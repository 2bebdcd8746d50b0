"""Percentile arithmetic: nearest rank, +inf failures, best-segment rule."""

import math

import pytest

from bench.stats import best_percentiles, best_rate, headline, percentile, whole_window


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 100) == 5.0


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_failure_enters_the_sample_as_infinity_not_nan():
    # One failure in ten: p90 still finite, p99 is the failure itself.
    values = [1.0] * 9 + [math.inf]
    assert percentile(values, 90) == 1.0
    assert percentile(values, 99) == math.inf
    assert percentile([], 50) == math.inf


def test_best_segment_drops_a_disturbed_segment():
    # Two segments of a 2 s window: the second is ten times slower.
    samples = [(0.1 * i, 1.0) for i in range(10)] + [(1.0 + 0.1 * i, 10.0) for i in range(10)]
    best = best_percentiles(samples, 2.0, (50, 90), segments=2)
    assert best == {50: 1.0, 90: 1.0}
    # ...while the whole window still shows it.
    whole = whole_window(samples, completed=20, wall=2.0, failed=0)
    assert whole["loadgen.latency_p90_whole_ms"] == 10.0


def test_a_failing_segment_cannot_be_the_best_but_failures_everywhere_show():
    clean = [(0.5, 2.0)] * 10
    failing = [(1.5, math.inf)] * 10
    assert best_percentiles(clean + failing, 2.0, (50,), segments=2)[50] == 2.0
    assert best_percentiles(failing, 2.0, (50,), segments=2)[50] == math.inf


def test_best_rate_is_the_fullest_segment_scaled_to_a_second():
    events = [(0.1, 3), (0.2, 3), (1.4, 10)]
    assert best_rate(events, 2.0, segments=2) == 10.0
    assert best_rate(events, 2.0, segments=4) == 20.0


def test_samples_past_the_window_land_in_the_last_segment():
    assert best_rate([(2.7, 4)], 2.0, segments=2) == 4.0


def test_headline_names_the_three_timed_metrics():
    out = headline([(0.5, 1.0), (1.5, 3.0)], [(0.5, 1), (1.5, 1)], 2.0, segments=2)
    assert out == {"ops_per_s": 1.0, "latency_p50_ms": 1.0, "latency_p90_ms": 1.0}
