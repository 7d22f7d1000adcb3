import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import costblotto
from costblotto.solver import (
    BACKEND_ENV_VAR,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    ScipyHighsBackend,
    get_backend,
)


def small_lp(sense="max"):
    # max x0 + x1  s.t.  x0 + x1 <= 3,  x0 <= 2
    return LinearProgram(
        sense=sense,
        objective=np.array([1.0, 1.0]),
        a=sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])),
        num_eq=0,
        rhs=np.array([3.0, 2.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
    )


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
                num_eq=0,
                rhs=np.zeros(2),
                lower=np.zeros(2),
                upper=np.full(2, np.inf),
            )

    @pytest.mark.parametrize("num_eq", [-1, 3])
    def test_num_eq_out_of_range_rejected(self, num_eq):
        with pytest.raises(ValueError, match="num_eq"):
            LinearProgram(
                sense="max",
                objective=np.array([1.0, 1.0]),
                a=sp.csr_matrix(np.eye(2)),
                num_eq=num_eq,
                rhs=np.zeros(2),
                lower=np.zeros(2),
                upper=np.full(2, np.inf),
            )

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                sense="maximize",
                objective=np.array([1.0]),
                a=sp.csr_matrix(np.eye(1)),
                num_eq=0,
                rhs=np.zeros(1),
                lower=np.zeros(1),
                upper=np.ones(1),
            )


class TestScipyHighsBackend:
    def test_max_solve(self):
        sol = ScipyHighsBackend().solve(small_lp())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_min_solve_with_equality_and_ge(self):
        # min x0 + 2 x1  s.t.  x0 + x1 = 1,  x1 >= 0.25 (as -x1 <= -0.25)
        lp = LinearProgram(
            sense="min",
            objective=np.array([1.0, 2.0]),
            a=sp.csr_matrix(np.array([[1.0, 1.0], [0.0, -1.0]])),
            num_eq=1,
            rhs=np.array([1.0, -0.25]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        sol = ScipyHighsBackend().solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.25, abs=1e-9)
        assert sol.x == pytest.approx([0.75, 0.25], abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            sense="max",
            objective=np.array([1.0]),
            a=sp.csr_matrix(np.array([[1.0], [-1.0]])),
            num_eq=0,
            rhs=np.array([1.0, -2.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        assert ScipyHighsBackend().solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(
            sense="max",
            objective=np.array([1.0]),
            a=sp.csr_matrix(np.zeros((1, 1))),
            num_eq=0,
            rhs=np.array([1.0]),
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
            num_eq=0,
            rhs=np.array([3.0]),
            lower=np.array([-np.inf, 2.0]),
            upper=np.array([np.inf, 2.0]),
        )
        sol = ScipyHighsBackend().solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x == pytest.approx([-1.0, 2.0], abs=1e-9)


class TestRowDuals:
    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    def test_sign_follows_sense(self, method):
        # x0 + x1 <= 3 binds (one more unit of rhs moves the optimum by 1),
        # x0 <= 2 does not
        sol = ScipyHighsBackend(method).solve(small_lp("max"))
        assert sol.row_duals == pytest.approx([1.0, 0.0], abs=1e-9)
        lp = dataclasses.replace(small_lp("min"), objective=np.array([-1.0, -1.0]))
        sol = ScipyHighsBackend(method).solve(lp)
        assert sol.objective == pytest.approx(-3.0)
        assert sol.row_duals == pytest.approx([-1.0, 0.0], abs=1e-9)
        assert isinstance(sol.crossover_iterations, int)

    def test_not_optimal_has_no_duals(self):
        infeasible = dataclasses.replace(small_lp(), rhs=np.array([-1.0, 2.0]))
        sol = ScipyHighsBackend().solve(infeasible)
        assert sol.status == INFEASIBLE and sol.row_duals is None


class TestReducedCosts:
    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    def test_sign_follows_sense(self, method):
        # max x0 + 2 x1 s.t. x0 + x1 <= 3, x0 <= 2: x = (0, 3); raising
        # x0's lower bound by one unit moves the optimum by -1, x1 is basic
        lp = dataclasses.replace(small_lp("max"), objective=np.array([1.0, 2.0]))
        sol = ScipyHighsBackend(method).solve(lp)
        assert sol.x == pytest.approx([0.0, 3.0], abs=1e-9)
        assert sol.reduced_costs == pytest.approx([-1.0, 0.0], abs=1e-9)
        lp = dataclasses.replace(lp, sense="min", objective=np.array([-1.0, -2.0]))
        sol = ScipyHighsBackend(method).solve(lp)
        assert sol.objective == pytest.approx(-6.0)
        assert sol.reduced_costs == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_not_optimal_has_no_reduced_costs(self):
        infeasible = dataclasses.replace(small_lp(), rhs=np.array([-1.0, 2.0]))
        sol = ScipyHighsBackend().solve(infeasible)
        assert sol.status == INFEASIBLE and sol.reduced_costs is None


class TestBackendRegistry:
    @pytest.mark.parametrize("name", ["highs", "highs-ds", "highs-ipm"])
    def test_known_backends(self, name):
        backend = get_backend(name)
        assert backend.solve(small_lp()).status == OPTIMAL

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="glop"):
            get_backend("glop")

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "highs-ds")
        assert get_backend().method == "highs-ds"
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        with pytest.raises(ValueError):
            get_backend()

    def test_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().method == "highs-ipm"


class TestHeldModel:
    """An LP over the held model's matrix object is re-solved in place; each
    answer must match a cold solve on a fresh backend."""

    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    def test_changes_match_cold_solves(self, method):
        lp = small_lp("max")
        changed = [
            dataclasses.replace(lp, tight=np.array([False, True])),  # x0 = 2
            dataclasses.replace(lp, sense="min", objective=np.array([1.0, -1.0]),
                                lower=np.array([0.5, 0.0]), upper=np.array([1.0, 2.0])),
            dataclasses.replace(lp, objective=np.array([1.0, 2.0]), rhs=np.array([2.0, 1.0])),
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

    def test_tight_length_checked(self):
        with pytest.raises(ValueError, match="tight"):
            dataclasses.replace(small_lp(), tight=np.array([True]))


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
