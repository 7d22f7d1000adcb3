"""HiGHS linear-programming backend behind a minimal model type.

A backend hands each LP to one HiGHS model, built through scipy's binding of
HiGHS's own ``Highs`` class the way ``scipy.optimize.linprog`` builds it:
the ``<=`` rows, then the equalities, under ``linprog``'s options.  The
default method is HiGHS's interior-point solver with its default crossover,
so solutions stay basic (vertex solutions); the ``COSTBLOTTO_LP_BACKEND``
environment variable selects another HiGHS method.  The backend keeps the
model of the last LP it built.  An LP over that same matrix object is solved
by changing the model's costs and bounds in place and re-running primal
simplex from the basis the model holds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

try:
    from scipy.optimize._highspy._core import (
        HighsBasisStatus, HighsLp, HighsModelStatus, MatrixFormat, _Highs)
except ImportError as exc:
    raise ImportError("costblotto needs scipy>=1.17.1, whose binding of HiGHS's own "
                      "Highs class (scipy.optimize._highspy._core._Highs) it uses") from exc

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric-failure"

BACKEND_ENV_VAR = "COSTBLOTTO_LP_BACKEND"

#: The HiGHS methods a backend may use, named as ``linprog`` names them, and
#: HiGHS's ``solver`` option for each.
METHODS = {"highs": "choose", "highs-ds": "simplex", "highs-ipm": "ipm"}

#: Interior point plus crossover: 2.5-18x faster than simplex on the flow LPs.
DEFAULT_BACKEND = "highs-ipm"


class SolverFailureError(RuntimeError):
    """A backend failed to return a usable optimum."""


@dataclass(frozen=True)
class LinearProgram:
    """A sparse LP: optimize ``objective @ x`` under row and bound constraints.

    The first ``num_eq`` rows of ``a`` are equalities ``a x = rhs``; the rest
    are ``a x <= rhs``, except that those ``tight`` marks (a mask over the
    ``<=`` rows) must hold with equality.  Variable bounds may be infinite.
    """

    sense: str
    objective: np.ndarray
    a: sp.csr_matrix
    num_eq: int
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    tight: np.ndarray | None = None

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
        if self.tight is not None and len(self.tight) != n_rows - self.num_eq:
            raise ValueError("tight length does not match the <= row count")

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


#: ``linprog``'s status codes of HiGHS model statuses; any other is 4.
_LINPROG_STATUS = {HighsModelStatus.kOptimal: 0, HighsModelStatus.kInfeasible: 2,
                   HighsModelStatus.kUnbounded: 3}


@dataclass(frozen=True)
class HighsRun:
    """One HiGHS run in ``linprog``'s terms: ``status`` is its code (0 is
    optimal), ``nit`` its iteration count and ``fun`` its objective."""

    status: int
    message: str
    nit: int
    crossover_nit: int
    fun: float


# Keeps the name perfbench/spans.py binds as ``solver.highs`` until that span is rebound.
def linprog(highs: _Highs) -> HighsRun:
    """Run HiGHS on the model ``highs`` holds.  Every solve goes through here."""
    highs.run()
    status, info = highs.getModelStatus(), highs.getInfo()
    return HighsRun(status=_LINPROG_STATUS.get(status, 4),
                    message=highs.modelStatusToString(status),
                    nit=info.simplex_iteration_count or info.ipm_iteration_count,
                    crossover_nit=info.crossover_iteration_count,
                    fun=info.objective_function_value)


class ScipyHighsBackend:
    """HiGHS, by one of its methods, on one held model at a time.

    A model is built as ``linprog`` builds it, so a cold solve gives
    ``linprog``'s answer bit for bit.  An LP whose matrix ``a`` is the held
    model's (the same object) only changes the model's costs and bounds and
    re-solves by primal simplex from the held basis.  Feasibility tolerances
    are requested well below the package-wide flow tolerance so returned
    solutions survive the post-solve conservation checks.
    """

    def __init__(self, method: str = DEFAULT_BACKEND):
        if method not in METHODS:
            raise ValueError(f"unknown LP backend {method!r}; available: {list(METHODS)}")
        self.method = method
        self._matrix = self._highs = self._rows = None  # the held model, its rows' bounds

    def _build(self, lp: LinearProgram, cost: np.ndarray, rows) -> None:
        k = lp.num_eq
        a = sp.vstack((lp.a[k:], lp.a[:k])).tocsc()
        model = HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
        model.num_row_ = model.a_matrix_.num_row_ = lp.num_constraints
        model.a_matrix_.format_ = MatrixFormat.kColwise
        model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
            a.indptr, a.indices, a.data)
        model.col_cost_, model.col_lower_, model.col_upper_ = cost, lp.lower, lp.upper
        model.row_lower_, model.row_upper_ = rows
        self._matrix, self._highs = lp.a, _Highs()
        for option, value in (("output_flag", False), ("log_to_console", False),
                              ("presolve", "on"), ("solver", METHODS[self.method]),
                              ("primal_feasibility_tolerance", 1e-9),
                              ("dual_feasibility_tolerance", 1e-9)):
            self._highs.setOptionValue(option, value)
        self._highs.passModel(model)

    def _change(self, lp: LinearProgram, cost: np.ndarray, rows) -> None:
        cols = np.arange(lp.num_vars)
        self._highs.changeColsCost(len(cols), cols, cost)
        self._highs.changeColsBounds(len(cols), cols, lp.lower, lp.upper)
        (lower, upper), (held_lower, held_upper) = rows, self._rows
        for row in np.flatnonzero((lower != held_lower) | (upper != held_upper)):
            self._highs.changeRowBounds(row, lower[row], upper[row])
        self._highs.setOptionValue("solver", "simplex")
        self._highs.setOptionValue("simplex_strategy", 4)  # primal

    def solve(self, lp: LinearProgram) -> BackendSolution:
        sign = 1.0 if lp.sense == "min" else -1.0  # the model minimizes, as linprog does
        k, cost = lp.num_eq, sign * lp.objective
        tight = np.zeros(lp.num_constraints - k, bool) if lp.tight is None else lp.tight
        rows = (np.concatenate((np.where(tight, lp.rhs[k:], -np.inf), lp.rhs[:k])),
                np.concatenate((lp.rhs[k:], lp.rhs[:k])))
        if lp.a is self._matrix:
            self._change(lp, cost, rows)
        else:
            self._build(lp, cost, rows)
        self._rows = rows
        run = linprog(self._highs)
        status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(run.status, NUMERIC_FAILURE)
        info = {"message": run.message, "iterations": run.nit,
                "crossover_iterations": run.crossover_nit}
        if status != OPTIMAL:
            return BackendSolution(status=status, x=None, objective=None, **info)
        solution = self._highs.getSolution()
        at_lower = np.fromiter((s == HighsBasisStatus.kLower
                                for s in self._highs.getBasis().col_status), bool, lp.num_vars)
        return BackendSolution(
            status=OPTIMAL, x=np.array(solution.col_value), objective=float(sign * run.fun),
            row_duals=sign * np.array(solution.row_dual)[:len(tight)],
            reduced_costs=sign * np.where(at_lower, solution.col_dual, 0.0), **info)


def get_backend(name: str | None = None) -> ScipyHighsBackend:
    """Resolve a backend by name, or by ``COSTBLOTTO_LP_BACKEND``, or default."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
    return ScipyHighsBackend(name)
