"""HiGHS linear-programming backend behind a minimal model type.

The package loads scipy's compiled binding of HiGHS's own ``Highs`` class
(``scipy.optimize._highspy._core``) straight from its file, without importing
``scipy.optimize`` or ``scipy.sparse``, whose package imports would take most
of the package's start-up.  A :class:`LinearProgram` is HiGHS's own model:
row bounds ``row_lower <= A x <= row_upper`` over a :class:`CsrMatrix` (or
any object with its fields, such as a scipy CSR matrix), and column bounds.
A backend owns one HiGHS object, set up once, and hands each new LP to it as
arrays, the CSR arrays row-wise as they are.  Each caller fixes its method.
The default, for the flow LPs, is HiGHS's interior-point solver with its
default crossover, so solutions stay basic (vertex solutions), except that
an LP with fewer than :data:`SIMPLEX_BELOW_COLUMNS` columns is solved by dual
simplex, which also ends at a basis.  ``"highs-ds"`` runs dual simplex at
every size.  :func:`get_backend` gives every caller in a process the same
backend for a method.  The backend keeps the model of the
last LP it solved.  An LP over that same matrix object, from whichever caller,
is solved by changing the model's costs and bounds in place and re-running
primal simplex from the basis the model holds.  An LP whose ``base`` is the
held LP appends its columns and rows to the held model, and is re-solved by
primal simplex from the held basis too; such an LP is never built cold.  An
LP over any other matrix is built cold.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache
from operator import attrgetter

import numpy as np

#: The module name of scipy's binding of HiGHS's own ``Highs`` class.
_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """scipy's HiGHS binding, loaded from its file in scipy's install.

    Importing it by name would import ``scipy.optimize`` first.  It is
    registered under its own name, so that an ``import scipy.optimize``
    before or after shares this one module: a second copy would register
    the binding's types twice, which fails."""
    if _BINDING in sys.modules:
        return sys.modules[_BINDING]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    folders = [os.path.join(path, "optimize", "_highspy")
               for path in scipy.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_core", folders)
    if found is None or found.origin is None:
        raise ImportError(f"no HiGHS binding file in {folders}")
    spec = importlib.util.spec_from_file_location(_BINDING, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_BINDING]
        raise
    return module


try:
    _core = _load_binding()
    HighsBasisStatus, HighsModelStatus, HighsStatus, _Highs = (
        _core.HighsBasisStatus, _core.HighsModelStatus, _core.HighsStatus, _core._Highs)
except (ImportError, AttributeError) as exc:
    raise ImportError("costblotto needs scipy>=1.17.1, whose binding of HiGHS's own "
                      "Highs class (scipy.optimize._highspy._core._Highs) it uses") from exc

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric-failure"

# Kept because perfbench/run.py and tests/test_perfbench_contract.py read it; the package does not.
BACKEND_ENV_VAR = "COSTBLOTTO_LP_BACKEND"

#: The HiGHS methods a backend may use, named as ``linprog`` names them, and
#: HiGHS's ``solver`` option for each.
METHODS = {"highs-ds": "simplex", "highs-ipm": "ipm"}

#: Interior point plus crossover: 2.5-18x faster than simplex on the flow LPs.
DEFAULT_BACKEND = "highs-ipm"

#: Under the default method, an LP with fewer columns is solved by simplex.
#: Cold flow-LP solves, median of 5 (2-core x86_64 VM): simplex took 1.3-2.1x
#: less time on table, linear, quadratic and sign games of 124-534 columns,
#: the two were mixed at 664-676 columns, and interior point won 6 of 8
#: linear, quadratic and sign games at 794-841 columns.
SIMPLEX_BELOW_COLUMNS = 600


class SolverFailureError(RuntimeError):
    """A backend failed to return a usable optimum."""


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in compressed sparse row form, as scipy stores one:
    row ``r`` holds ``data[indptr[r]:indptr[r + 1]]`` in the columns
    ``indices[indptr[r]:indptr[r + 1]]``."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_triplets(cls, shape: tuple[int, int], row: np.ndarray, col: np.ndarray,
                      value: np.ndarray) -> "CsrMatrix":
        """The matrix of entries ``value[k]`` at ``(row[k], col[k])``, with
        zero entries dropped and each row's columns in ascending order, as in
        scipy's canonical form.  Positions must not repeat."""
        keep = value != 0.0
        row, col, value = row[keep], col[keep], value[keep]
        order = np.argsort(row * shape[1] + col)  # positions are unique
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=shape[0]))))
        return cls(shape, indptr, col[order], value[order])

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass(frozen=True)
class LinearProgram:
    """A sparse LP in HiGHS's form: optimize ``objective @ x`` subject to
    ``row_lower <= a x <= row_upper`` and ``lower <= x <= upper``.

    A row whose two bounds are equal is an equality; any bound may be
    infinite.  ``a`` is a :class:`CsrMatrix` or any object with its fields.
    An LP with a ``base`` is that LP with columns and rows appended after
    its own: the vectors cover every column and row, but ``a`` holds only
    the entries in the appended columns and rows, so a backend solves it
    only on top of a held model of ``base``.
    """

    sense: str
    objective: np.ndarray
    a: CsrMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    base: LinearProgram | None = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {self.sense!r}")
        n_rows, n_cols = self.a.shape
        if len(self.objective) != n_cols or len(self.lower) != n_cols or len(self.upper) != n_cols:
            raise ValueError("objective/bounds length does not match the column count")
        if len(self.row_lower) != n_rows or len(self.row_upper) != n_rows:
            raise ValueError("row bounds length does not match the row count")
        # HiGHS answers a NaN cost as optimal with a NaN optimum
        if not (np.isfinite(self.objective).all() and np.isfinite(self.a.data).all()):
            raise ValueError("objective coefficients and matrix entries must be finite")

    @property
    def num_vars(self) -> int:
        return self.a.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class BackendSolution:
    """A backend's answer.  ``row_duals`` holds, per row, the rate at which
    the optimum grows as that row's bounds rise (so >= 0 on a row held at its
    ``row_upper`` in a ``max`` LP), and is set for optimal solutions only.
    ``reduced_costs`` is never set by :meth:`ScipyHighsBackend.solve`: a
    caller that needs the optimal face reads them with
    :meth:`ScipyHighsBackend.reduced_costs` and stores them here.
    ``lp_solver`` names the HiGHS solver, ``"ipm"`` or ``"simplex"``, as
    :class:`HighsRun` reads it."""

    status: str
    x: np.ndarray | None
    objective: float | None
    message: str = ""
    iterations: int = 0
    crossover_iterations: int = 0
    lp_solver: str = ""
    row_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None


#: ``linprog``'s status codes of HiGHS model statuses; any other is 4.
_LINPROG_STATUS = {HighsModelStatus.kOptimal: 0, HighsModelStatus.kInfeasible: 2,
                   HighsModelStatus.kUnbounded: 3}


@dataclass(frozen=True)
class HighsRun:
    """One HiGHS run in ``linprog``'s terms: ``status`` is its code (0 is
    optimal), ``nit`` its iteration count and ``fun`` its objective.
    ``lp_solver`` is the model's ``solver`` option, ``"simplex"`` or
    ``"ipm"``."""

    status: int
    message: str
    nit: int
    crossover_nit: int
    fun: float
    lp_solver: str


# Keeps the name perfbench/spans.py binds as ``solver.highs`` until that span is rebound.
def linprog(highs: _Highs) -> HighsRun:
    """Run HiGHS on the model ``highs`` holds.  Every solve goes through here."""
    highs.run()
    status, info = highs.getModelStatus(), highs.getInfo()
    return HighsRun(status=_LINPROG_STATUS.get(status, 4),
                    message=highs.modelStatusToString(status),
                    nit=info.simplex_iteration_count or info.ipm_iteration_count,
                    crossover_nit=info.crossover_iteration_count,
                    fun=info.objective_function_value,
                    lp_solver=highs.getOptionValue("solver")[1])


_REFUSED = "HiGHS refused the model: an entry is not finite or out of its range"
_UNHELD = "the backend does not hold the LP this one extends"


class ScipyHighsBackend:
    """HiGHS, by one of its methods, on one held model at a time.

    The backend creates one HiGHS object and sets its fixed options once;
    each new LP clears the model and passes the LP's arrays.  Under the
    default method, LPs with fewer than :data:`SIMPLEX_BELOW_COLUMNS`
    columns get simplex, not interior point.  An LP whose matrix ``a`` is
    the held LP's (the same object) only changes the model's costs and
    bounds and re-solves by primal simplex from the held basis, whoever
    built the held LP: a caller that needs a cold solve of such an LP uses
    a backend of its own.  Feasibility tolerances are requested well below
    the package-wide flow tolerance so returned solutions survive the
    post-solve conservation checks.
    """

    def __init__(self, method: str = DEFAULT_BACKEND):
        if method not in METHODS:
            raise ValueError(f"unknown LP backend {method!r}; available: {list(METHODS)}")
        self.method = method
        self._lp = None  # the LP whose model HiGHS holds
        self._highs = _Highs()
        for option, value in (("output_flag", False), ("log_to_console", False),
                              ("primal_feasibility_tolerance", 1e-9),
                              ("dual_feasibility_tolerance", 1e-9)):
            self._highs.setOptionValue(option, value)

    def _build(self, lp: LinearProgram, cost: np.ndarray) -> str:
        """Hand HiGHS a new model, with ``lp.a``'s CSR arrays as they are;
        the reason if HiGHS refuses it (an infinite or huge matrix entry, a
        NaN bound) or holds fewer matrix entries than ``lp.a`` stores (it
        drops those at or below its ``small_matrix_value``), else ``""``.
        Under the default method, an LP of fewer than
        :data:`SIMPLEX_BELOW_COLUMNS` columns is solved by simplex."""
        self._highs.clearModel()
        solver = METHODS[self.method]
        if self.method == DEFAULT_BACKEND and lp.num_vars < SIMPLEX_BELOW_COLUMNS:
            solver = "simplex"
        self._highs.setOptionValue("solver", solver)
        self._highs.setOptionValue("simplex_strategy", 1)  # HiGHS's default, dual
        self._highs.setOptionValue("presolve", "on")
        a = lp.a
        # row-wise matrix (2), minimize (1), no objective offset, all columns
        # continuous: an empty integrality array makes HiGHS refuse the model
        if self._highs.passModel(
                lp.num_vars, lp.num_constraints, a.nnz, 2, 1, 0.0, cost, lp.lower, lp.upper,
                lp.row_lower, lp.row_upper, a.indptr, a.indices, a.data,
                np.zeros(lp.num_vars, np.int32)) == HighsStatus.kError:
            return _REFUSED
        return self._held_entries(a.nnz)

    def _held_entries(self, nnz: int) -> str:
        """Why the model HiGHS holds is not the LP's of ``nnz`` matrix
        entries, if it holds fewer (it drops those at or below its
        ``small_matrix_value``), else ``""``."""
        held = self._highs.getNumNz()
        if held != nnz:
            _, small = self._highs.getOptionValue("small_matrix_value")
            return (f"HiGHS holds {held} of the LP's {nnz} matrix entries: it dropped "
                    f"those at or below its small_matrix_value ({small:g})")
        return ""

    def _change(self, lp: LinearProgram, cost: np.ndarray) -> str:
        """Change the held model's costs and bounds to ``lp``'s; the reason
        if HiGHS refuses a change (a NaN bound), else ``""``."""
        cols = np.arange(lp.num_vars)
        statuses = [self._highs.changeColsCost(len(cols), cols, cost),
                    self._highs.changeColsBounds(len(cols), cols, lp.lower, lp.upper)]
        held = self._lp
        moved = (lp.row_lower != held.row_lower) | (lp.row_upper != held.row_upper)
        statuses += [self._highs.changeRowBounds(row, lp.row_lower[row], lp.row_upper[row])
                     for row in np.flatnonzero(moved)]
        self._highs.setOptionValue("solver", "simplex")
        self._highs.setOptionValue("simplex_strategy", 4)  # primal
        return _REFUSED if HighsStatus.kError in statuses else ""

    def _grow(self, lp: LinearProgram, cost: np.ndarray) -> str:
        """Append ``lp``'s columns and rows beyond its base's to the held
        model: first the new columns with their entries in the held rows,
        then the new rows over all columns.  The reason if HiGHS refuses
        them or drops an entry, else ``""``."""
        (rows, cols), a = lp.base.a.shape, lp.a
        nnz = self._highs.getNumNz() + a.nnz
        split = a.indptr[rows]  # the entries in held rows, every one in a new column
        order = np.argsort(a.indices[:split], kind="stable")  # column-wise, rows ascending
        row = np.repeat(np.arange(rows), np.diff(a.indptr[:rows + 1]))[order]
        starts = np.searchsorted(a.indices[order], np.arange(cols, lp.num_vars))
        statuses = []
        if lp.num_vars > cols:
            statuses.append(self._highs.addCols(
                lp.num_vars - cols, cost[cols:], lp.lower[cols:], lp.upper[cols:], split,
                starts, row, a.data[order]))
        if lp.num_constraints > rows:
            statuses.append(self._highs.addRows(
                lp.num_constraints - rows, lp.row_lower[rows:], lp.row_upper[rows:],
                a.nnz - split, a.indptr[rows:-1] - split, a.indices[split:], a.data[split:]))
        self._highs.setOptionValue("solver", "simplex")
        # primal: it took 12-25% less CPU time than dual simplex over the
        # rounds of edge generation on n = 5-30, D = 20-50 games
        self._highs.setOptionValue("simplex_strategy", 4)
        self._highs.setOptionValue("presolve", "off")
        if HighsStatus.kError in statuses:
            return _REFUSED
        return self._held_entries(nnz)

    def solve(self, lp: LinearProgram) -> BackendSolution:
        """Solve ``lp``.  An ``lp`` with a ``base`` is solved only when the
        backend holds ``base``: only the added columns and rows go to HiGHS,
        which re-solves by primal simplex, presolve off, from the held
        basis.  Otherwise the answer is ``numeric-failure``."""
        sign = 1.0 if lp.sense == "min" else -1.0  # the model minimizes
        cost = sign * lp.objective
        if lp.base is not None:
            refused = self._grow(lp, cost) if lp.base is self._lp else _UNHELD
        elif self._lp is not None and lp.a is self._lp.a:
            refused = self._change(lp, cost)
        else:
            refused = self._build(lp, cost)
        if refused:
            self._lp = None  # the next LP is built cold
            return BackendSolution(status=NUMERIC_FAILURE, x=None, objective=None,
                                   message=refused)
        self._lp = lp
        run = linprog(self._highs)
        status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(run.status, NUMERIC_FAILURE)
        info = {"message": run.message, "iterations": run.nit,
                "crossover_iterations": run.crossover_nit, "lp_solver": run.lp_solver}
        if status != OPTIMAL:
            return BackendSolution(status=status, x=None, objective=None, **info)
        solution = self._highs.getSolution()
        return BackendSolution(
            status=OPTIMAL, x=np.array(solution.col_value), objective=float(sign * run.fun),
            row_duals=sign * np.array(solution.row_dual), **info)

    def reduced_costs(self) -> np.ndarray:
        """Per column of the LP last solved, the rate at which its optimum
        grows with the column's lower bound (so <= 0 for a ``max`` LP, and 0
        for a column off its lower bound).  They are read from the held
        model, so only after an optimal solve and before the next one."""
        if self._lp is None or self._highs.getModelStatus() != HighsModelStatus.kOptimal:
            raise SolverFailureError("no optimal solution is held to read reduced costs from")
        lp = self._lp
        at_lower = np.fromiter(map(attrgetter("value"), self._highs.getBasis().col_status),
                               np.int8, lp.num_vars) == HighsBasisStatus.kLower.value
        sign = 1.0 if lp.sense == "min" else -1.0
        return sign * np.where(at_lower, self._highs.getSolution().col_dual, 0.0)


def get_backend(name: str = DEFAULT_BACKEND) -> ScipyHighsBackend:
    """The backend of the method ``name``.  Every call with the same name in
    one process returns the same backend."""
    return _backend(name)


@cache
def _backend(name: str) -> ScipyHighsBackend:
    return ScipyHighsBackend(name)
