"""Parameter sweeps rendered as paper-style result tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.sim.blocking import BlockingEstimate, estimate_blocking
from repro.sim.workload import WorkloadSpec
from repro.util.labels import label_hash
from repro.util.tables import Table

__all__ = ["SweepResult", "sweep"]


@dataclass
class SweepResult:
    """All estimates from one sweep, plus a rendered table.

    ``rows`` maps ``(point_label, policy)`` to the estimate.
    """

    title: str
    policies: Sequence[str]
    points: Sequence[str]
    rows: dict[tuple[str, str], BlockingEstimate] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII table: one row per sweep point, one column per policy."""
        table = Table(
            headers=["point"] + [f"{p} P(block)" for p in self.policies],
            title=self.title,
        )
        for point in self.points:
            cells: list[Any] = [point]
            for policy in self.policies:
                est = self.rows[(point, policy)]
                lo, hi = est.ci95
                cells.append(f"{est.probability:.3f} [{lo:.3f},{hi:.3f}]")
            table.add_row(*cells)
        return table.render()


def _label_offset(label: str) -> int:
    """A stable 32-bit seed offset derived from the point label.

    Hashing the label (rather than the enumeration index) means
    inserting, removing, or reordering sweep points leaves every other
    point's instance stream untouched.  Delegates to
    :func:`repro.util.labels.label_hash` (SHA-256-backed) for
    stability across processes and Python versions — builtin ``hash``
    is salted and must never feed a seed.
    """
    return label_hash(label, bits=32)


def sweep(
    title: str,
    points: Iterable[tuple[str, WorkloadSpec]],
    policies: Sequence[str],
    *,
    trials: int = 100,
    seed: int = 0,
) -> SweepResult:
    """Estimate blocking for every (sweep point, policy) pair.

    All policies see the same instance stream at each point: the
    per-point seed is ``seed`` plus a stable hash of the point label,
    so columns are directly comparable and adding or reordering points
    never perturbs the streams of existing points.
    """
    points = list(points)
    result = SweepResult(title=title, policies=list(policies), points=[p for p, _ in points])
    for label, spec in points:
        for policy in policies:
            result.rows[(label, policy)] = estimate_blocking(
                spec, policy, trials=trials, seed=seed + _label_offset(label)
            )
    return result
