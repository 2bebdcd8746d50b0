"""Linear-programming model objects for the multicommodity formulations.

Section III-D of the paper formulates heterogeneous scheduling as
multicommodity (min-cost) flow linear programs and solves them with
the Simplex method.  :class:`LinearProgram` is the model container;
:func:`repro.flows.simplex.simplex_solve` is the solver.

The model is deliberately small: named variables with bounds and
objective coefficients, and equality/inequality constraints.
Inequalities are normalised to equalities with slack variables at
solve time, so solvers only see the standard form

    minimize    c' x
    subject to  A x = b,   l <= x <= u.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

__all__ = ["LinearProgram", "LPResult", "LPStatus", "Sense"]

VarKey = Hashable


class Sense(enum.Enum):
    """Constraint sense."""

    EQ = "=="
    LE = "<="
    GE = ">="


class LPStatus(enum.Enum):
    """Solver outcome classification."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    sense: Sense
    rhs: float


@dataclass
class LPResult:
    """Solution of a :class:`LinearProgram`.

    Attributes
    ----------
    status:
        Termination status; values are meaningful only for
        :attr:`LPStatus.OPTIMAL`.
    objective:
        Objective value (in the program's own min/max orientation).
    values:
        Variable key → optimal value.
    iterations:
        Simplex pivots performed (phase 1 + phase 2).
    """

    status: LPStatus
    objective: float
    values: dict[VarKey, float] = field(default_factory=dict)
    iterations: int = 0

    def __getitem__(self, key: VarKey) -> float:
        return self.values[key]


class LinearProgram:
    """A small LP builder keyed by arbitrary hashable variable names.

    Example
    -------
    >>> lp = LinearProgram(maximize=True)
    >>> x = lp.add_variable("x", high=4.0, objective=1.0)
    >>> y = lp.add_variable("y", high=3.0, objective=2.0)
    >>> lp.add_constraint({"x": 1.0, "y": 1.0}, Sense.LE, 5.0)
    >>> from repro.flows.simplex import simplex_solve
    >>> res = simplex_solve(lp)
    >>> res.status.value, res.objective
    ('optimal', 8.0)
    """

    def __init__(self, *, maximize: bool = False) -> None:
        self.maximize = maximize
        self._keys: list[VarKey] = []
        self._index: dict[VarKey, int] = {}
        self._low: list[float] = []
        self._high: list[float] = []
        self._cost: list[float] = []
        self._constraints: list[_Constraint] = []

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of structural variables."""
        return len(self._keys)

    @property
    def n_constraints(self) -> int:
        """Number of constraints."""
        return len(self._constraints)

    def add_variable(
        self,
        key: VarKey,
        *,
        low: float = 0.0,
        high: float = math.inf,
        objective: float = 0.0,
    ) -> VarKey:
        """Declare variable ``key`` with bounds ``[low, high]``.

        Returns the key for fluent use.  Duplicate keys are rejected.
        """
        if key in self._index:
            raise ValueError(f"duplicate variable {key!r}")
        if low > high:
            raise ValueError(f"empty bound interval [{low}, {high}] for {key!r}")
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self._low.append(float(low))
        self._high.append(float(high))
        self._cost.append(float(objective))
        return key

    def add_constraint(self, coeffs: Mapping[VarKey, float], sense: Sense, rhs: float) -> None:
        """Add ``sum coeffs[k] * x_k  <sense>  rhs``.

        Unknown variable keys are an error; zero coefficients are
        dropped.
        """
        packed: dict[int, float] = {}
        for key, coef in coeffs.items():
            if key not in self._index:
                raise KeyError(f"unknown variable {key!r}")
            if coef != 0.0:
                packed[self._index[key]] = packed.get(self._index[key], 0.0) + float(coef)
        self._constraints.append(_Constraint(packed, sense, float(rhs)))

    # ------------------------------------------------------------------
    def to_standard_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Normalise to ``min c'x, Ax = b, l <= x <= u``.

        Slack variables (with infinite one-sided bounds) are appended
        for LE/GE rows; a maximisation objective is negated.  Returns
        ``(A, b, c, l, u)`` as dense numpy arrays; slack columns come
        after the structural ones.
        """
        n = self.n_variables
        m = self.n_constraints
        n_slack = sum(1 for c in self._constraints if c.sense is not Sense.EQ)
        A = np.zeros((m, n + n_slack))
        b = np.zeros(m)
        c = np.array(self._cost + [0.0] * n_slack)
        low = np.array(self._low + [0.0] * n_slack)
        high = np.array(self._high + [math.inf] * n_slack)
        if self.maximize:
            c = -c
        slack_col = n
        for i, con in enumerate(self._constraints):
            for j, coef in con.coeffs.items():
                A[i, j] = coef
            b[i] = con.rhs
            if con.sense is Sense.LE:
                A[i, slack_col] = 1.0
                slack_col += 1
            elif con.sense is Sense.GE:
                A[i, slack_col] = -1.0
                slack_col += 1
        return A, b, c, low, high

    def wrap_solution(self, x: np.ndarray, objective_min: float, status: LPStatus, iterations: int) -> LPResult:
        """Package a standard-form solution back into keyed values."""
        values = {key: float(x[i]) for i, key in enumerate(self._keys)}
        objective = -objective_min if self.maximize else objective_min
        return LPResult(status=status, objective=objective, values=values, iterations=iterations)
