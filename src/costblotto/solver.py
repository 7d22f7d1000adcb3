"""HiGHS linear-programming backend behind a minimal model type.

Models are solved by scipy's HiGHS interface.  The default method is
HiGHS's interior-point solver with its default crossover, so solutions stay
basic (vertex solutions); the ``COSTBLOTTO_LP_BACKEND`` environment variable
selects another HiGHS method.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric-failure"

BACKEND_ENV_VAR = "COSTBLOTTO_LP_BACKEND"

#: The ``linprog`` methods a backend may use.
METHODS = ("highs", "highs-ds", "highs-ipm")

#: Interior point plus crossover: 2.5-18x faster than simplex on the flow LPs.
DEFAULT_BACKEND = "highs-ipm"


class SolverFailureError(RuntimeError):
    """A backend failed to return a usable optimum."""


@dataclass(frozen=True)
class LinearProgram:
    """A sparse LP: optimize ``objective @ x`` under row and bound constraints.

    The first ``num_eq`` rows of ``a`` are equalities ``a x = rhs``; the rest
    are ``a x <= rhs``.  Variable bounds may be infinite.
    """

    sense: str
    objective: np.ndarray
    a: sp.csr_matrix
    num_eq: int
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {self.sense!r}")
        n_rows, n_cols = self.a.shape
        if len(self.objective) != n_cols or len(self.lower) != n_cols or len(self.upper) != n_cols:
            raise ValueError("objective/bounds length does not match the column count")
        if len(self.rhs) != n_rows:
            raise ValueError("rhs length does not match the row count")
        if not 0 <= self.num_eq <= n_rows:
            raise ValueError(f"num_eq must lie in [0, {n_rows}], got {self.num_eq}")

    @property
    def num_vars(self) -> int:
        return self.a.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class BackendSolution:
    """A backend's answer.  ``row_duals`` holds, per ``<=`` row, the rate at
    which the optimum grows with that row's right-hand side (so >= 0 for a
    ``max`` LP); ``reduced_costs`` holds, per column, the rate at which it
    grows with the column's lower bound (so <= 0 for a ``max`` LP, and 0 for
    a column off its lower bound).  Both are set for optimal solutions only."""

    status: str
    x: np.ndarray | None
    objective: float | None
    message: str = ""
    iterations: int = 0
    crossover_iterations: int = 0
    row_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None


class ScipyHighsBackend:
    """scipy.optimize.linprog with one of the HiGHS methods.

    Feasibility tolerances are requested well below the package-wide flow
    tolerance so returned solutions survive the post-solve conservation
    checks.
    """

    def __init__(self, method: str = DEFAULT_BACKEND):
        if method not in METHODS:
            raise ValueError(f"unknown LP backend {method!r}; available: {list(METHODS)}")
        self.method = method
        self.options = {
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        }

    def solve(self, lp: LinearProgram) -> BackendSolution:
        sign = 1.0 if lp.sense == "min" else -1.0  # linprog minimizes
        k = lp.num_eq
        res = linprog(
            sign * lp.objective,
            A_ub=lp.a[k:],
            b_ub=lp.rhs[k:],
            A_eq=lp.a[:k],
            b_eq=lp.rhs[:k],
            bounds=np.column_stack([lp.lower, lp.upper]),
            method=self.method,
            options=self.options,
        )
        status = {
            0: OPTIMAL,
            1: NUMERIC_FAILURE,
            2: INFEASIBLE,
            3: UNBOUNDED,
            4: NUMERIC_FAILURE,
        }.get(res.status, NUMERIC_FAILURE)
        info = {"message": str(res.message), "iterations": int(res.nit),
                "crossover_iterations": int(res.crossover_nit)}
        if status == OPTIMAL:
            return BackendSolution(status=OPTIMAL, x=np.asarray(res.x, dtype=float),
                                   objective=float(sign * res.fun),
                                   row_duals=sign * np.asarray(res.ineqlin.marginals, dtype=float),
                                   reduced_costs=sign * np.asarray(res.lower.marginals, dtype=float),
                                   **info)
        return BackendSolution(status=status, x=None, objective=None, **info)


def get_backend(name: str | None = None) -> ScipyHighsBackend:
    """Resolve a backend by name, or by ``COSTBLOTTO_LP_BACKEND``, or default."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
    return ScipyHighsBackend(name)
