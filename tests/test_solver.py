import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import costblotto
from costblotto import (build_minimax_lp, build_sunk_cost, equilibrium_statistic_bounds,
                        resource_statistic, solve)
from costblotto.config import sweep_point_game
from costblotto.minimax import FLOW_DUST
from costblotto.solver import (
    BACKEND_ENV_VAR,
    INFEASIBLE,
    METHODS,
    NUMERIC_FAILURE,
    OPTIMAL,
    SIMPLEX_BELOW_COLUMNS,
    UNBOUNDED,
    CsrMatrix,
    LinearProgram,
    ScipyHighsBackend,
    SolverFailureError,
    _core,
    get_backend,
)
from conftest import full_lp_face, reduced_costs


def small_lp(sense="max"):
    # max x0 + x1  s.t.  x0 + x1 <= 3,  x0 <= 2
    return LinearProgram(
        sense=sense,
        objective=np.array([1.0, 1.0]),
        a=sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])),
        row_lower=np.full(2, -np.inf),
        row_upper=np.array([3.0, 2.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
    )


class TestCsrMatrix:
    def test_from_triplets_is_scipys_canonical_csr(self):
        # shuffled triplets with zeros, and empty rows at both ends
        rng = np.random.default_rng(0)
        dense = rng.integers(-2, 3, (8, 6)).astype(float)
        dense[[0, 4, 7]] = 0.0
        row, col = np.nonzero(np.ones_like(dense))
        order = rng.permutation(len(row))
        row, col = row[order], col[order]
        a = CsrMatrix.from_triplets(dense.shape, row, col, dense[row, col])
        ref = sp.csr_matrix(dense)
        assert a.shape == ref.shape and a.nnz == ref.nnz == np.count_nonzero(dense)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, field), getattr(ref, field))


class TestLinearProgram:
    def test_counts(self):
        lp = small_lp()
        assert lp.num_vars == 2
        assert lp.num_constraints == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                sense="max",
                objective=np.array([1.0]),
                a=sp.csr_matrix(np.eye(2)),
                row_lower=np.zeros(2),
                row_upper=np.zeros(2),
                lower=np.zeros(2),
                upper=np.full(2, np.inf),
            )

    def test_row_bounds_length_checked(self):
        for field in ("row_lower", "row_upper"):
            with pytest.raises(ValueError, match="row bounds length"):
                dataclasses.replace(small_lp(), **{field: np.zeros(3)})

    @pytest.mark.parametrize("field", ["objective", "a"])
    def test_nan_rejected(self, field):
        # HiGHS answered a NaN cost as optimal with a NaN optimum, and a NaN
        # matrix entry as unbounded
        value = {"objective": np.array([np.nan, 1.0]),
                 "a": sp.csr_matrix(np.array([[1.0, np.nan], [1.0, 0.0]]))}[field]
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(small_lp(), **{field: value})

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                sense="maximize",
                objective=np.array([1.0]),
                a=sp.csr_matrix(np.eye(1)),
                row_lower=np.zeros(1),
                row_upper=np.zeros(1),
                lower=np.zeros(1),
                upper=np.ones(1),
            )


class TestScipyHighsBackend:
    def test_max_solve(self):
        sol = ScipyHighsBackend().solve(small_lp())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_min_solve_with_equality_and_ge(self):
        # min x0 + 2 x1  s.t.  x0 + x1 = 1,  x1 >= 0.25
        lp = LinearProgram(
            sense="min",
            objective=np.array([1.0, 2.0]),
            a=sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]])),
            row_lower=np.array([1.0, 0.25]),
            row_upper=np.array([1.0, np.inf]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        sol = ScipyHighsBackend().solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.25, abs=1e-9)
        assert sol.x == pytest.approx([0.75, 0.25], abs=1e-9)
        # every row has its dual: raising the first row's bounds by one unit
        # adds a unit of x0, raising the second's moves a unit from x0 to x1,
        # and each costs 1
        assert sol.row_duals == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            sense="max",
            objective=np.array([1.0]),
            a=sp.csr_matrix(np.array([[1.0], [-1.0]])),
            row_lower=np.full(2, -np.inf),
            row_upper=np.array([1.0, -2.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        assert ScipyHighsBackend().solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(
            sense="max",
            objective=np.array([1.0]),
            a=sp.csr_matrix(np.zeros((1, 1))),
            row_lower=np.array([-np.inf]),
            row_upper=np.array([1.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        assert ScipyHighsBackend().solve(lp).status == UNBOUNDED

    def test_free_and_fixed_bounds(self):
        # x0 free, x1 fixed to 2: min x0 s.t. x0 >= x1 - 3 (as -x0 + x1 <= 3)
        lp = LinearProgram(
            sense="min",
            objective=np.array([1.0, 0.0]),
            a=sp.csr_matrix(np.array([[-1.0, 1.0]])),
            row_lower=np.array([-np.inf]),
            row_upper=np.array([3.0]),
            lower=np.array([-np.inf, 2.0]),
            upper=np.array([np.inf, 2.0]),
        )
        sol = ScipyHighsBackend().solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x == pytest.approx([-1.0, 2.0], abs=1e-9)


def flow_program(n, budget, sense="max"):
    """A sweep-family flow LP, with the sense given."""
    lp = build_minimax_lp(build_sunk_cost(sweep_point_game(n, budget, budget, 2.5)), "A").program
    return lp if sense == "max" else dataclasses.replace(lp, sense="min",
                                                         objective=-lp.objective)


def large_program(sense="max"):
    """A flow LP above the simplex size limit (676 columns)."""
    lp = flow_program(3, 14, sense)
    assert lp.num_vars >= SIMPLEX_BELOW_COLUMNS
    return lp


class TestSizeRule:
    def test_default_method_by_size(self):
        # 96 columns: large enough that interior point would iterate
        small = flow_program(2, 4)
        assert small.num_vars < SIMPLEX_BELOW_COLUMNS
        assert ScipyHighsBackend().solve(small).lp_solver == "simplex"
        assert ScipyHighsBackend().solve(large_program()).lp_solver == "ipm"

    def test_named_method_at_every_size(self):
        # the rule belongs to the default; a chosen method runs as chosen
        assert ScipyHighsBackend("highs-ds").solve(large_program()).lp_solver == "simplex"

    @pytest.mark.parametrize("method, label", [("highs-ipm", "ipm"), ("highs-ds", "simplex")])
    def test_label_of_an_lp_presolve_solves(self, method, label):
        # max sum(x) s.t. x <= 1 over 700 columns: presolve solves it outright,
        # so no solver iterates; the label is the solver the model was set to run
        n = 700
        lp = LinearProgram(sense="max", objective=np.ones(n),
                           a=CsrMatrix((n, n), np.arange(n + 1), np.arange(n), np.ones(n)),
                           row_lower=np.full(n, -np.inf), row_upper=np.ones(n), lower=np.zeros(n),
                           upper=np.full(n, np.inf))
        sol = ScipyHighsBackend(method).solve(lp)
        assert sol.objective == pytest.approx(n) and sol.iterations == 0
        assert sol.lp_solver == label


class TestRowDuals:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_sign_follows_sense(self, method):
        # x0 + x1 <= 3 binds (one more unit of row_upper moves the optimum by 1),
        # x0 <= 2 does not
        sol = ScipyHighsBackend(method).solve(small_lp("max"))
        assert sol.row_duals == pytest.approx([1.0, 0.0], abs=1e-9)
        lp = dataclasses.replace(small_lp("min"), objective=np.array([-1.0, -1.0]))
        sol = ScipyHighsBackend(method).solve(lp)
        assert sol.objective == pytest.approx(-3.0)
        assert sol.row_duals == pytest.approx([-1.0, 0.0], abs=1e-9)
        assert isinstance(sol.crossover_iterations, int)

    def test_interior_point_above_the_size_limit(self):
        # IPM plus crossover reads back as simplex does: >= 0 on a max LP's
        # <= rows, and a dual for every row
        for sense, sign in (("max", 1.0), ("min", -1.0)):
            lp = large_program(sense)
            sol = ScipyHighsBackend("highs-ipm").solve(lp)
            assert sol.status == OPTIMAL and sol.lp_solver == "ipm"
            assert sol.row_duals.shape == (lp.num_constraints,)
            duals = sign * sol.row_duals[lp.row_lower == -np.inf]
            assert np.all(duals >= -1e-9)
            assert np.any(duals > 1e-6)

    def test_not_optimal_has_no_duals(self):
        infeasible = dataclasses.replace(small_lp(), row_upper=np.array([-1.0, 2.0]))
        sol = ScipyHighsBackend().solve(infeasible)
        assert sol.status == INFEASIBLE and sol.row_duals is None


class TestReducedCosts:
    """The reader of HiGHS's reduced costs behind the full-LP face
    reference (``conftest.reduced_costs``), which the bounds tests trust as
    their oracle."""

    @pytest.mark.parametrize("method", list(METHODS))
    def test_sign_follows_sense(self, method):
        # max x0 + 2 x1 s.t. x0 + x1 <= 3, x0 <= 2: x = (0, 3); raising
        # x0's lower bound by one unit moves the optimum by -1, x1 is basic
        lp = dataclasses.replace(small_lp("max"), objective=np.array([1.0, 2.0]))
        backend = ScipyHighsBackend(method)
        sol = backend.solve(lp)
        assert sol.x == pytest.approx([0.0, 3.0], abs=1e-9)
        assert reduced_costs(backend) == pytest.approx([-1.0, 0.0], abs=1e-9)
        lp = dataclasses.replace(lp, sense="min", objective=np.array([-1.0, -2.0]))
        backend = ScipyHighsBackend(method)
        sol = backend.solve(lp)
        assert sol.objective == pytest.approx(-6.0)
        assert reduced_costs(backend) == pytest.approx([1.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("method", list(METHODS))
    def test_column_at_upper_bound_reads_zero(self, method):
        # max 2 x0 + x1 - x2 s.t. x0 + x1 + x2 <= 3, x0 <= 1: x0 sits at its
        # upper bound with a nonzero dual, x1 is basic, x2 is at its lower bound
        lp = LinearProgram(sense="max", objective=np.array([2.0, 1.0, -1.0]),
                           a=sp.csr_matrix(np.ones((1, 3))), row_lower=np.array([-np.inf]),
                           row_upper=np.array([3.0]), lower=np.zeros(3),
                           upper=np.array([1.0, np.inf, np.inf]))
        backend = ScipyHighsBackend(method)
        sol = backend.solve(lp)
        assert sol.x == pytest.approx([1.0, 2.0, 0.0], abs=1e-9)
        assert reduced_costs(backend) == pytest.approx([0.0, 0.0, -2.0], abs=1e-9)

    def test_interior_point_above_the_size_limit(self):
        # <= 0 for a max LP, and 0 off the lower bound
        for sense, sign in (("max", -1.0), ("min", 1.0)):
            lp = large_program(sense)
            backend = ScipyHighsBackend("highs-ipm")
            sol = backend.solve(lp)
            reduced = reduced_costs(backend)
            assert sol.status == OPTIMAL and sol.lp_solver == "ipm"
            assert np.all(sign * reduced >= -1e-9)
            assert np.any(sign * reduced > 1e-6)
            assert np.all(reduced[sol.x > lp.lower + 1e-9] == 0.0)

    def test_equal_to_a_scan_of_the_basis(self):
        # the reduced costs of a full-LP solve and of a face solve on the
        # held model, against a column-by-column scan of its basis statuses
        game = sweep_point_game(3, 6, 5, 2.5)
        backend = ScipyHighsBackend()
        model, face, fixed, _ = full_lp_face(game, backend)

        def check(sign):
            at_lower = [s == _core.HighsBasisStatus.kLower
                        for s in backend._highs.getBasis().col_status]
            col_dual = np.array(backend._highs.getSolution().col_dual)
            reduced = reduced_costs(backend)
            assert np.array_equal(reduced, sign * np.where(at_lower, col_dual, 0.0))
            assert 0 < sum(at_lower) < len(at_lower)
            return reduced

        assert np.array_equal(np.abs(check(-1.0)) > FLOW_DUST, fixed)
        backend.solve(dataclasses.replace(face, sense="min"))
        check(1.0)

    def test_not_optimal_has_no_reduced_costs(self):
        infeasible = dataclasses.replace(small_lp(), row_upper=np.array([-1.0, 2.0]))
        backend = ScipyHighsBackend()
        sol = backend.solve(infeasible)
        assert sol.status == INFEASIBLE and sol.row_duals is None
        with pytest.raises(SolverFailureError, match="no optimal solution"):
            reduced_costs(backend)


class TestBackendRegistry:
    @pytest.mark.parametrize("name", list(METHODS))
    def test_known_backends(self, name):
        backend = get_backend(name)
        assert backend.solve(small_lp()).status == OPTIMAL

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="glop"):
            get_backend("glop")

    def test_highs_choice_is_gone(self):
        # the oracle's matrix games run "highs-ds"; HiGHS's own choice ran the same
        with pytest.raises(ValueError, match="highs"):
            get_backend("highs")

    def test_default(self):
        assert get_backend().method == "highs-ipm"

    def test_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "highs-ds")
        backend = get_backend()
        assert backend.method == "highs-ipm"
        assert backend.solve(large_program()).lp_solver == "ipm"


class TestHeldModel:
    """An LP over the held model's matrix object is re-solved in place; each
    answer must match a cold solve on a fresh backend."""

    @pytest.mark.parametrize("method", list(METHODS))
    def test_changes_match_cold_solves(self, method):
        lp = small_lp("max")
        changed = [
            dataclasses.replace(lp, row_lower=np.array([-np.inf, 2.0])),  # x0 = 2
            dataclasses.replace(lp, sense="min", objective=np.array([1.0, -1.0]),
                                lower=np.array([0.5, 0.0]), upper=np.array([1.0, 2.0])),
            dataclasses.replace(lp, objective=np.array([1.0, 2.0]),
                                row_upper=np.array([2.0, 1.0])),
            lp,  # every change undone
        ]
        backend = ScipyHighsBackend(method)
        backend.solve(lp)
        for program in changed:
            warm = backend.solve(program)
            cold = ScipyHighsBackend(method).solve(program)
            assert warm.status == cold.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.x == pytest.approx(cold.x, abs=1e-9)



class TestRefusedModel:
    """A model or change HiGHS refuses ends in numeric failure, and the next
    LP is built cold."""

    @pytest.mark.parametrize("field, value", [("data", np.inf), ("data", 1e300),
                                              ("lower", np.nan)])
    def test_numeric_failure(self, field, value):
        lp = small_lp()
        if field == "data":
            data = lp.a.data.copy()
            data[1] = value
            a = CsrMatrix(lp.a.shape, lp.a.indptr, lp.a.indices, data)
            if not np.isfinite(value):  # refused before any backend sees it
                with pytest.raises(ValueError, match="finite"):
                    dataclasses.replace(lp, a=a)
                return
            bad = dataclasses.replace(lp, a=a)
        else:
            bad = dataclasses.replace(lp, lower=np.array([value, 0.0]))
        backend = ScipyHighsBackend()
        assert backend.solve(lp).status == OPTIMAL
        for _ in range(2):  # refused again: nothing of the refused LP is held
            sol = backend.solve(bad)
            assert sol.status == NUMERIC_FAILURE and sol.x is None
            assert sol.message.startswith("HiGHS refused the model")
        assert backend.solve(lp).objective == pytest.approx(3.0)

    @pytest.mark.parametrize("method", list(METHODS))
    def test_dropped_entry(self, method):
        # HiGHS takes the model but drops an entry at or below its
        # small_matrix_value (1e-9): it would solve another LP
        lp = small_lp()
        data = lp.a.data.copy()
        data[1] = 1e-10
        bad = dataclasses.replace(lp, a=CsrMatrix(lp.a.shape, lp.a.indptr, lp.a.indices, data))
        backend = ScipyHighsBackend(method)
        for _ in range(2):
            sol = backend.solve(bad)
            assert sol.status == NUMERIC_FAILURE and sol.x is None
            assert sol.message == ("HiGHS holds 2 of the LP's 3 matrix entries: it dropped "
                                   "those at or below its small_matrix_value (1e-09)")
        assert backend.solve(lp).objective == pytest.approx(3.0)


class TestBackendReuse:
    """One backend per method serves every caller in a process; what one
    caller leaves in it must not show in another's cold solve."""

    def test_one_backend_per_method(self):
        assert get_backend() is get_backend("highs-ipm")
        assert get_backend("highs-ds") is get_backend("highs-ds") is not get_backend()

    @pytest.mark.parametrize("program, lp_solver", [(lambda: flow_program(2, 4), "simplex"),
                                                    (large_program, "ipm")],
                             ids=["simplex", "ipm"])
    def test_cold_solve_after_bounds(self, program, lp_solver):
        game = sweep_point_game(3, 6, 5, 2.5)
        equilibrium_statistic_bounds(game, {"resources": resource_statistic(game)})
        shared = get_backend()
        # the face solves leave primal simplex set on the shared model
        assert shared._highs.getOptionValue("simplex_strategy")[1] == 4
        lp = program()
        reused, fresh = shared.solve(lp), ScipyHighsBackend().solve(lp)
        assert reused.status == fresh.status == OPTIMAL
        assert np.array_equal(reused.x, fresh.x)
        assert np.array_equal(reused.row_duals, fresh.row_duals)
        assert (reused.iterations, reused.crossover_iterations, reused.lp_solver) == \
            (fresh.iterations, fresh.crossover_iterations, fresh.lp_solver)
        assert reused.lp_solver == lp_solver

def test_missing_binding_fails_at_import():
    # scipy releases without HiGHS's own binding lack ``_Highs``
    code = ("import scipy.optimize._highspy._core as core\n"
            "del core._Highs\n"
            "import costblotto.solver\n")
    src = Path(costblotto.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=False)
    assert proc.returncode != 0
    assert "ImportError: costblotto needs scipy>=1.17.1" in proc.stderr


def run_python(code, *path):
    """Run ``code`` in a fresh interpreter that imports costblotto from this
    checkout, with the folders ``path`` ahead of it on the module path."""
    src = Path(costblotto.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join([*map(str, path), str(src)])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), check=False)


def test_import_leaves_scipy_optimize_and_sparse_unloaded():
    # the package loads scipy's HiGHS binding file and nothing else of scipy's
    proc = run_python("import sys\n"
                      "import costblotto.cli\n"
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                      "assert 'scipy.optimize' not in sys.modules\n"
                      "assert 'scipy.sparse' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert "'scipy.optimize._highspy._core'" in proc.stdout


@pytest.mark.parametrize("order", ["scipy-first", "costblotto-first"])
def test_scipy_optimize_shares_the_binding(order):
    # either import order leaves one binding module, which both linprog and
    # the backend use
    first, second = "from scipy.optimize import linprog", "from costblotto import solver"
    if order == "costblotto-first":
        first, second = second, first
    proc = run_python(f"{first}\n{second}\n"
                      "import sys\n"
                      "import numpy as np\n"
                      "import scipy.optimize._highspy._core as core\n"
                      "assert core is sys.modules['scipy.optimize._highspy._core']\n"
                      "assert solver._Highs is core._Highs\n"
                      "res = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs')\n"
                      "assert res.status == 0 and abs(res.fun - 1) < 1e-12, res\n"
                      "lp = solver.LinearProgram(sense='min', objective=np.array([1.0, 2.0]),\n"
                      "    a=solver.CsrMatrix((1, 2), np.array([0, 2]), np.array([0, 1]),\n"
                      "                       np.array([-1.0, -1.0])),\n"
                      "    row_lower=np.array([-np.inf]), row_upper=np.array([-1.0]),\n"
                      "    lower=np.zeros(2), upper=np.full(2, np.inf))\n"
                      "assert abs(solver.get_backend().solve(lp).objective - 1) < 1e-12\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", ["no-binding-file", "no-scipy"])
def test_missing_binding_file_fails_at_import(tmp_path, case):
    if case == "no-binding-file":
        # a scipy install without optimize/_highspy/_core*.so
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        proc = run_python("import costblotto.solver\n", tmp_path)
    else:
        proc = run_python("import sys\n"
                          "sys.modules['scipy'] = None\n"
                          "import costblotto.solver\n")
    assert proc.returncode != 0
    assert "ImportError: costblotto needs scipy>=1.17.1" in proc.stderr
