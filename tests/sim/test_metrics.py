"""Tests for the statistics helpers."""

import pytest

from repro.sim.metrics import wilson_interval


class TestWilson:
    def test_half_and_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo < 0.25

    def test_zero_successes_interval_above_zero(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_all_successes(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert lo > 0.95

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(5, 50)
        lo2, hi2 = wilson_interval(50, 500)
        assert hi2 - lo2 < hi1 - lo1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_bracket_property(self):
        for s, n in [(0, 10), (3, 10), (10, 10), (17, 123)]:
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0
