"""Operation counters used by the monitor-vs-distributed cost models.

The paper compares a *monitor* architecture (software flow algorithm,
cost measured in executed instructions) against the distributed
token-propagation architecture (cost measured in clock periods of gate
delay).  The flow algorithms accept an optional :class:`OpCounter` and
charge abstract operation categories to it; the benchmark harness then
converts categories to instructions.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["OpCounter"]


class OpCounter:
    """Named operation counter with a weighted total.

    ``charge(category, n)`` accumulates raw counts; ``total(weights)``
    applies a per-category instruction weight (default 1).
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def charge(self, category: str, n: int = 1) -> None:
        """Add ``n`` operations to ``category``."""
        self.counts[category] += n

    def total(self, weights: dict[str, float] | None = None) -> float:
        """Weighted sum of all charged operations."""
        if weights is None:
            return float(sum(self.counts.values()))
        return float(sum(weights.get(cat, 1.0) * n for cat, n in self.counts.items()))

    def __getitem__(self, category: str) -> int:
        return self.counts[category]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({items})"
