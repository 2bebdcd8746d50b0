"""Tests for the LP model and the bounded-variable simplex solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.flows.lp import LinearProgram, LPStatus, Sense
from repro.flows.simplex import REFACTOR_EVERY, simplex_solve, simplex_standard_form


class TestModel:
    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError, match="duplicate"):
            lp.add_variable("x")

    def test_empty_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError, match="empty bound"):
            lp.add_variable("x", low=2, high=1)

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(KeyError):
            lp.add_constraint({"y": 1.0}, Sense.LE, 1.0)

    def test_standard_form_shapes(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=2.0)
        lp.add_constraint({"x": 1.0}, Sense.LE, 4.0)
        lp.add_constraint({"y": 1.0}, Sense.GE, 1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, Sense.EQ, 3.0)
        A, b, c, low, high = lp.to_standard_form()
        assert A.shape == (3, 4)  # 2 structural + 2 slacks
        assert list(b) == [4.0, 1.0, 3.0]
        assert A[1, 3] == -1.0  # GE slack is negated


class TestSimplexBasics:
    def test_docstring_example(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", high=4.0, objective=1.0)
        lp.add_variable("y", high=3.0, objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, Sense.LE, 5.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(8.0)
        assert res["x"] == pytest.approx(2.0)
        assert res["y"] == pytest.approx(3.0)

    def test_minimization(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=3.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, Sense.GE, 2.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)
        assert res["y"] == pytest.approx(2.0)

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_variable("x", high=1.0)
        lp.add_constraint({"x": 1.0}, Sense.GE, 5.0)
        assert simplex_solve(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": -1.0}, Sense.LE, 0.0)
        assert simplex_solve(lp).status is LPStatus.UNBOUNDED

    def test_fixed_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", low=2.0, high=2.0, objective=1.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, Sense.EQ, 5.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res["x"] == pytest.approx(2.0)
        assert res["y"] == pytest.approx(3.0)

    def test_no_constraints(self):
        lp = LinearProgram()
        lp.add_variable("x", low=1.0, high=4.0, objective=2.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_no_constraints_zero_cost_rests_at_a_finite_bound(self):
        # Regression: a zero-cost variable unbounded below was reported
        # UNBOUNDED (objective -inf); only a *profitable* infinite
        # direction is.
        lp = LinearProgram()
        lp.add_variable("x", low=-math.inf, high=5.0, objective=0.0)
        lp.add_variable("free", low=-math.inf, objective=0.0)
        lp.add_variable("y", low=0.0, high=2.0, objective=1.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 0.0
        assert (res["x"], res["free"], res["y"]) == (5.0, 0.0, 0.0)
        lp.set_objective("x", 1.0)  # now pushing x down pays for ever
        assert simplex_solve(lp).status is LPStatus.UNBOUNDED

    def test_degenerate_does_not_cycle(self):
        # Classic Beale cycling example (cycles under Dantzig's rule).
        lp = LinearProgram()
        lp.add_variable("x1", objective=-0.75)
        lp.add_variable("x2", objective=150.0)
        lp.add_variable("x3", objective=-0.02)
        lp.add_variable("x4", objective=6.0)
        lp.add_constraint({"x1": 0.25, "x2": -60.0, "x3": -0.04, "x4": 9.0}, Sense.LE, 0.0)
        lp.add_constraint({"x1": 0.5, "x2": -90.0, "x3": -0.02, "x4": 3.0}, Sense.LE, 0.0)
        lp.add_constraint({"x3": 1.0}, Sense.LE, 1.0)
        res = simplex_solve(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-0.05)


def _random_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """Random bounded LP (always feasible is not guaranteed)."""
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(j, low=0.0, high=float(rng.integers(1, 10)),
                        objective=float(rng.integers(-5, 6)))
    for _ in range(m):
        coeffs = {j: float(rng.integers(-3, 4)) for j in range(n)}
        sense = [Sense.LE, Sense.GE, Sense.EQ][int(rng.integers(0, 3))]
        rhs = float(rng.integers(-5, 15))
        lp.add_constraint(coeffs, sense, rhs)
    return lp


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_lps_match_linprog(self, seed):
        rng = np.random.default_rng(700 + seed)
        lp = _random_lp(rng, n=int(rng.integers(2, 6)), m=int(rng.integers(1, 5)))
        A, b, c, low, high = lp.to_standard_form()
        bounds = [(lo, None if math.isinf(hi) else hi) for lo, hi in zip(low, high)]
        ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
        res = simplex_solve(lp)
        if ref.status == 2:  # infeasible
            assert res.status is LPStatus.INFEASIBLE
        elif ref.status == 0:
            assert res.status is LPStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_lp_outlives_the_refactor_interval(self, seed):
        # Real-valued coefficients (nothing cancels exactly) and a few
        # hundred pivots: the carried inverse is updated, refactored and
        # updated again several times before the optimum.
        rng = np.random.default_rng(seed)
        m, n = 40, 60
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.0, 3.0, n)  # feasible by construction
        c = rng.normal(size=n)
        low, high = np.zeros(n), np.full(n, 4.0)
        status, x, objective, pivots = simplex_standard_form(A, b, c, low, high)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(low, high)), method="highs")
        assert status is LPStatus.OPTIMAL and ref.status == 0
        assert pivots > 4 * REFACTOR_EVERY
        assert objective == pytest.approx(ref.fun, abs=1e-8)
        assert np.abs(A @ x - b).max() <= 1e-9
        assert (x >= low - 1e-9).all() and (x <= high + 1e-9).all()


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_property_simplex_matches_scipy(seed):
    """Property: on random bounded LPs, status and optimum match HiGHS."""
    rng = np.random.default_rng(seed)
    lp = _random_lp(rng, n=4, m=3)
    A, b, c, low, high = lp.to_standard_form()
    bounds = [(lo, None if math.isinf(hi) else hi) for lo, hi in zip(low, high)]
    ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
    res = simplex_solve(lp)
    if ref.status == 2:
        assert res.status is LPStatus.INFEASIBLE
    elif ref.status == 0:
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
