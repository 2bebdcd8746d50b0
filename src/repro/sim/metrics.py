"""Summary statistics for the Monte Carlo experiments."""

from __future__ import annotations

import math

__all__ = ["wilson_interval"]

# 97.5% normal quantile for 95% two-sided intervals.
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation near 0 — exactly
    where the optimal scheduler's blocking probability lives (~2%).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z = Z95
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # Pin the exact boundary cases against float fuzz: the interval
    # must always bracket the point estimate.
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return min(lo, p), max(hi, p)
