"""Bounded-variable primal Simplex, written from scratch on numpy.

The paper solves the multicommodity LPs with the Simplex method,
noting it *"has been shown empirically to be a linear time algorithm"*
(McCall [31]).  This module implements the textbook two-phase primal
simplex with variable bounds:

- nonbasic variables rest at their lower *or* upper bound;
- phase 1 minimises the sum of artificial variables to find a basic
  feasible solution;
- Bland's smallest-index rule is used throughout, so the method cannot
  cycle (important: degenerate vertices are the norm in unit-capacity
  flow polytopes).

It is the *revised* form of that method: the basis inverse is carried
from pivot to pivot (phase 1 starts from the artificials' ``diag(+/-1)``;
a basis change is one rank-1 update, applied only to the rows where the
entering column is nonzero — on the others it subtracts zeros — so on
these sparse flow LPs it rewrites a few rows of ``Binv``, not all ``m``),
so a pivot costs three matrix–vector products and at most ``O(m^2)``
instead of two ``O(m^3)`` solves,
and every ``REFACTOR_EVERY`` basis changes the inverse and the basic
values are recomputed from ``A`` and ``b`` to shed accumulated rounding
error.  Which pivots are taken is untouched — Bland's rule and the
ratio test's tie rule decide as in the textbook loop — so pivot counts
are a property of the method: ``benchmarks/bench_multicommodity.py``
checks the near-linear scaling claim on them, ``python3 -m bench
--workload solve-disciplines`` times the two LP disciplines.
"""

from __future__ import annotations

import math

import numpy as np

from repro.flows.lp import LinearProgram, LPResult, LPStatus

__all__ = ["simplex_solve", "simplex_standard_form"]

TOL = 1e-8
#: Basis changes between refactorisations.  A constant, not a knob: on
#: the sizes ``TestPivotSequencePinned`` pins (up to omega-32 MULTI and
#: the omega-8 Table II rows) the pivot sequence does not depend on it,
#: only the rounding error does.  On larger degenerate LPs the pivot
#: count can change (EXPERIMENTS.md, REVISED-SIMPLEX: an omega-32 case).
REFACTOR_EVERY = 40


def _replace_basic(Binv: np.ndarray, col: np.ndarray, pos: int) -> None:
    """Update ``Binv`` in place for a new basic column at ``pos``.

    ``col`` is ``Binv @ A[:, entering]``: the product-form (eta)
    update, one rank-1 correction instead of a fresh factorisation.
    The correction touches only the rows where ``col`` is nonzero; on
    the others it would subtract exact zeros.
    """
    row = Binv[pos] / col[pos]
    rows = np.flatnonzero(col)
    Binv[rows] -= np.outer(col[rows], row)
    Binv[pos] = row


def _solve_phase(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    x: np.ndarray,
    basis: np.ndarray,
    Binv: np.ndarray,
    max_iter: int,
) -> tuple[LPStatus, int]:
    """Run primal simplex from a basic feasible solution.

    ``x``, ``basis`` and ``Binv`` (the inverse of ``A[:, basis]``) are
    updated in place.  A fixed variable (``low == high``) never enters,
    which is also how phase 2 freezes the artificials.  Returns
    ``(status, iterations)``; the status is never ``INFEASIBLE``.
    """
    at_upper = np.isclose(x, high) & ~np.isclose(low, high)
    movable = low != high
    nonbasic = np.ones(len(x), dtype=bool)
    nonbasic[basis] = False
    pivots = 0
    for iteration in range(1, max_iter + 1):
        # Dual values and reduced costs.
        d = c - (c[basis] @ Binv) @ A
        # Entering variable (Bland): smallest index with a profitable
        # direction — increase from lower bound if d < 0, decrease
        # from upper bound if d > 0.
        profitable = nonbasic & movable & np.where(at_upper, d > TOL, d < -TOL)
        entering = int(profitable.argmax())
        if not profitable[entering]:
            return LPStatus.OPTIMAL, iteration
        increase = not at_upper[entering]
        # Direction of basic variables as x_entering moves by +t
        # (or -t when decreasing from the upper bound).
        col = Binv @ A[:, entering]
        w = col if increase else -col
        # Ratio test: keep every basic variable inside its bounds, and
        # allow a bound-to-bound flip of the entering variable.
        t_max = high[entering] - low[entering]
        leaving_pos = -1
        rows = np.flatnonzero(np.abs(w) > TOL)
        blocking = basis[rows]
        to_upper = w[rows] < 0
        limits = (x[blocking] - np.where(to_upper, high[blocking], low[blocking])) / w[rows]
        for i, var, limit, up in zip(
            rows.tolist(), blocking.tolist(), limits.tolist(), to_upper.tolist()
        ):
            if math.isinf(limit):
                continue
            better = limit < t_max - TOL
            tie = (
                not better
                and not math.isinf(t_max)
                and abs(limit - t_max) <= TOL
                and (leaving_pos < 0 or var < basis[leaving_pos])
            )
            if better or tie:
                t_max = max(limit, 0.0)
                leaving_pos, leaving_to_upper = i, up
        if math.isinf(t_max):
            return LPStatus.UNBOUNDED, iteration
        # Apply the step.
        x[entering] += t_max if increase else -t_max
        x[basis] -= w * t_max
        if leaving_pos < 0:
            # Pure bound flip: entering variable moved to its other bound.
            at_upper[entering] = increase
            continue
        leaving = basis[leaving_pos]
        x[leaving] = high[leaving] if leaving_to_upper else low[leaving]
        at_upper[leaving] = leaving_to_upper
        at_upper[entering] = False
        nonbasic[leaving], nonbasic[entering] = True, False
        basis[leaving_pos] = entering
        pivots += 1
        if pivots % REFACTOR_EVERY:
            _replace_basic(Binv, col, leaving_pos)
        else:
            Binv[:] = np.linalg.inv(A[:, basis])
            x[basis] = 0.0
            x[basis] = Binv @ (b - A @ x)
    return LPStatus.ITERATION_LIMIT, max_iter


def simplex_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    *,
    max_iter: int = 50_000,
) -> tuple[LPStatus, np.ndarray, float, int]:
    """Solve ``min c'x  s.t.  Ax = b, low <= x <= high``.

    Returns ``(status, x, objective, iterations)``.  Uses two phases:
    artificial variables with a ``diag(+/-1)`` basis first, the true
    objective second.
    """
    m, n = A.shape
    # Start structural variables at a finite bound (0 if free).
    x0 = np.where(np.isfinite(low), low, np.where(np.isfinite(high), high, 0.0))
    if m == 0:
        # Only a profitable infinite direction makes this unbounded; a
        # zero-cost variable rests where it started.
        x = np.where(c > 0, low, np.where(c < 0, high, x0))
        if not np.all(np.isfinite(x)):
            return LPStatus.UNBOUNDED, np.zeros(n), -math.inf, 0
        return LPStatus.OPTIMAL, x, float(c @ x), 0
    residual = b - A @ x0
    # Artificial columns: +/-1 so artificial values start nonnegative.
    signs = np.where(residual >= 0, 1.0, -1.0)
    A1 = np.hstack([A, np.diag(signs)])
    x1 = np.concatenate([x0, np.abs(residual)])
    low1 = np.concatenate([low, np.zeros(m)])
    high1 = np.concatenate([high, np.full(m, math.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    Binv = np.diag(signs)  # diag(+/-1) is its own inverse
    status, it1 = _solve_phase(A1, b, c1, low1, high1, x1, basis, Binv, max_iter)
    if status is LPStatus.ITERATION_LIMIT:
        return status, x1[:n], float(c @ x1[:n]), it1
    if float(c1 @ x1) > 1e-6:
        return LPStatus.INFEASIBLE, x1[:n], math.inf, it1
    # Pivot any residual artificial out of the basis where possible:
    # row ``pos`` of ``Binv @ A`` says which structural columns can
    # take its place.  Rows that stay artificial are redundant, so
    # freezing the artificial at value 0 is safe.
    for pos in np.flatnonzero(basis >= n):
        row = Binv[pos] @ A
        row[basis[basis < n]] = 0.0  # already basic
        usable = np.flatnonzero(np.abs(row) > 1e-7)
        if usable.size:
            _replace_basic(Binv, Binv @ A[:, usable[0]], pos)
            basis[pos] = usable[0]
    # Phase 2: real objective; the remaining basic artificials are
    # pinned to zero, and a fixed variable cannot re-enter.
    high1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])
    status, it2 = _solve_phase(A1, b, c2, low1, high1, x1, basis, Binv, max_iter)
    x = x1[:n]
    obj = -math.inf if status is LPStatus.UNBOUNDED else float(c @ x)
    return status, x, obj, it1 + it2


def simplex_solve(lp: LinearProgram, *, max_iter: int = 50_000) -> LPResult:
    """Solve a :class:`~repro.flows.lp.LinearProgram` with primal simplex."""
    A, b, c, low, high = lp.to_standard_form()
    status, x, obj, iterations = simplex_standard_form(A, b, c, low, high, max_iter=max_iter)
    return lp.wrap_solution(x, obj, status, iterations)
