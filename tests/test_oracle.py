import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from costblotto import (
    CostBlottoGame,
    CostFunction,
    EnumerationCapError,
    MatrixGame,
    OracleSolveError,
    Valuation,
    build_matrix,
    certify_equilibrium,
    matrix_game_solve,
    oracle,
    payoff_costs,
    payoff_zero,
)
from costblotto.config import sweep_point_game
from costblotto.solver import NUMERIC_FAILURE, SIMPLEX_BELOW_COLUMNS, BackendSolution, get_backend
from conftest import (DECIMAL_INCREMENTS, SIGN_WEIGHTS, decimal_step_game, point_mass,
                      random_game, strategies)

#: Slack on the float matrix-game strategies' guarantees.
MEMBERSHIP_EPS_FLOAT = 1e-7

LEX = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

# pi_$ pairs of the n=2, D=2, sign-valuation, unit-obtainment-cost game,
# rows/cols in lexicographic strategy order
PAYOFF_PAIRS = [
    [(0, 0), (-1, 0), (-1, -1), (-1, 0), (-2, 0), (-1, -1)],
    [(0, -1), (-1, -1), (-2, -1), (-1, -1), (-2, -1), (-1, -2)],
    [(-1, -1), (-1, -2), (-2, -2), (-2, -1), (-2, -2), (-2, -2)],
    [(0, -1), (-1, -1), (-1, -2), (-1, -1), (-2, -1), (-2, -1)],
    [(0, -2), (-1, -2), (-2, -2), (-1, -2), (-2, -2), (-2, -2)],
    [(-1, -1), (-2, -1), (-2, -2), (-1, -2), (-2, -2), (-2, -2)],
]

# zero-sum companion entries: pi_$ A-value plus B's obtainment cost
ZERO_SUM_MATRIX = [
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 1],
    [-1, 0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [-1, -1, 0, 0, 0, 0],
]

S_STAR = [(0, 0), (0, 1), (1, 0), (1, 1)]


def exact_example():
    return CostBlottoGame(
        n=2,
        budget_a=2,
        budget_b=2,
        valuations=(Valuation.sign_form(Fraction(1), 2, 2),) * 2,
        assign_costs_a=(CostFunction.zero(2), CostFunction.zero(2)),
        assign_costs_b=(CostFunction.zero(2), CostFunction.zero(2)),
        obtain_cost_a=CostFunction.linear(Fraction(1), 2),
        obtain_cost_b=CostFunction.linear(Fraction(1), 2),
    )


class TestBuildMatrix:
    def test_payoff_pairs_fixture(self):
        game = exact_example()
        for r, s_a in enumerate(LEX):
            for c, s_b in enumerate(LEX):
                assert payoff_costs(game, s_a, s_b) == PAYOFF_PAIRS[r][c], (s_a, s_b)

    def test_zero_sum_matrix(self):
        mg = build_matrix(exact_example())
        assert list(mg.row_strategies) == LEX
        assert list(mg.col_strategies) == LEX
        assert [list(row) for row in mg.payoffs] == ZERO_SUM_MATRIX

    def test_is_exact_detection(self):
        assert build_matrix(exact_example()).is_exact
        rng = random.Random(7)
        assert not build_matrix(random_game(rng, exact=False)).is_exact

    def test_scale_cap(self):
        rng = random.Random(8)
        game = random_game(rng, n_max=3, d_max=5, exact=True)
        with pytest.raises(EnumerationCapError, match="oracle scale exceeded"):
            build_matrix(game, max_strategies=2)


#: Number kinds of the payoff-cell games: (cost increments, valuation
#: weights).  Each increment list starts with a zero of its kind.
CELL_KINDS = {
    "int": ((0, 1, 2), (1, 2)),
    "fraction": ((Fraction(0), Fraction(1, 3), Fraction(1, 2)), (Fraction(1), Fraction(2, 3))),
    "dyadic": ((0.0, 0.25, 0.5, 1.0), (1.0, 0.5)),
    "decimal": (DECIMAL_INCREMENTS, (0.1, 0.3)),
}


def cell_game(rng: random.Random, kind: str, d_a: int, d_b: int) -> CostBlottoGame:
    """A game of the given budgets whose costs and valuations are ``kind``
    numbers: table costs in the kind's increments, and sign or table
    valuations scaled by the kind's weights."""
    increments, weights = CELL_KINDS[kind]
    n = rng.randint(2, 3)

    def cost(d):
        values = [increments[0]]
        for _ in range(d):
            values.append(values[-1] + rng.choice(increments))
        return CostFunction.from_table(values)

    def valuation():
        if rng.random() < 0.5:
            return Valuation.sign_form(rng.choice(weights), d_a, d_b)
        return Valuation.from_table([[rng.randint(-2, 2) * weights[-1] for _ in range(d_b + 1)]
                                     for _ in range(d_a + 1)])

    return CostBlottoGame(
        n=n, budget_a=d_a, budget_b=d_b,
        valuations=tuple(valuation() for _ in range(n)),
        assign_costs_a=tuple(cost(d_a) for _ in range(n)),
        assign_costs_b=tuple(cost(d_b) for _ in range(n)),
        obtain_cost_a=cost(d_a), obtain_cost_b=cost(d_b),
    )


class TestMatrixCells:
    @pytest.mark.parametrize("kind", sorted(CELL_KINDS))
    @pytest.mark.parametrize("budgets", [(3, 3), (4, 2), (1, 5), (0, 0), (0, 3), (3, 0)])
    def test_cells_are_payoff_zero(self, kind, budgets):
        # value, type and repr, so no cell may sum its terms in another order
        rng = random.Random(f"{kind}-{budgets}")
        for _ in range(3):
            game = cell_game(rng, kind, *budgets)
            mg = build_matrix(game)
            for s_a, row in zip(mg.row_strategies, mg.payoffs):
                for s_b, cell in zip(mg.col_strategies, row):
                    ref = payoff_zero(game, s_a, s_b)
                    assert (cell, type(cell), repr(cell)) == (ref, type(ref), repr(ref)), \
                        (s_a, s_b)


def _decimal_games():
    rng = random.Random(1300)
    games = [random_game(rng, increments=DECIMAL_INCREMENTS) for _ in range(8)]
    games += [decimal_step_game(rng, w, step) for w in SIGN_WEIGHTS for step in (0.1, 0.3)]
    return games


#: Float games with 0.1/0.3/0.7 cost steps, whose payoffs are not dyadic.
DECIMAL_GAMES = _decimal_games()


class TestFloatOracle:
    @pytest.mark.parametrize("game", DECIMAL_GAMES)
    def test_decimal_games_against_linprog(self, game):
        mg = build_matrix(game)
        assert not mg.is_exact
        m = np.asarray(mg.payoffs, dtype=float)
        shift = 1.0 - m.min()
        n_rows, n_cols = m.shape
        ref = linprog(-np.ones(n_cols), A_ub=m + shift, b_ub=np.ones(n_rows), method="highs")
        assert ref.status == 0
        value, xi_row, xi_col = matrix_game_solve(mg)
        assert abs(value - (1.0 / -ref.fun - shift)) <= 1e-9
        # both returned strategies guarantee the value against every pure reply
        p = np.array([dict(xi_row.support).get(s, 0.0) for s in mg.row_strategies])
        q = np.array([dict(xi_col.support).get(s, 0.0) for s in mg.col_strategies])
        assert (p @ m).min() >= value - 1e-9
        assert (m @ q).max() <= value + 1e-9

    def test_large_matrix_game_runs_dual_simplex(self, monkeypatch):
        # 680 strategies a side: past the flow LPs' simplex size limit, where
        # interior point took 2-3x as long as dual simplex on these dense games
        solutions = []

        class RecordingBackend:
            def __init__(self, method):
                self.backend = get_backend(method)

            def solve(self, lp):
                solutions.append(self.backend.solve(lp))
                return solutions[-1]

        monkeypatch.setattr(oracle, "get_backend", RecordingBackend)
        mg = build_matrix(sweep_point_game(3, 14, 14, 2.5))
        assert len(mg.col_strategies) == 680 > SIMPLEX_BELOW_COLUMNS
        matrix_game_solve(mg)
        assert [s.lp_solver for s in solutions] == ["simplex"]

    def test_not_optimal_raises(self, monkeypatch):
        class FailingBackend:
            def __init__(self, method):
                assert method == "highs-ds"

            def solve(self, lp):
                return BackendSolution(status=NUMERIC_FAILURE, x=None, objective=None,
                                       message="stub failure")

        monkeypatch.setattr(oracle, "get_backend", FailingBackend)
        mg = build_matrix(DECIMAL_GAMES[0])
        with pytest.raises(OracleSolveError, match="matrix game solve failed: stub failure"):
            matrix_game_solve(mg)


class TestMatrixGameSolve:
    def test_example_value_zero_exact(self):
        value, xi_row, xi_col = matrix_game_solve(build_matrix(exact_example()))
        assert value == 0
        assert set(strategies(xi_row)) <= set(S_STAR)
        assert set(strategies(xi_col)) <= set(S_STAR)

    def test_matching_pennies(self):
        mg = MatrixGame(
            row_strategies=((0,), (1,)),
            col_strategies=((0,), (1,)),
            payoffs=((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))),
        )
        value, xi_row, xi_col = matrix_game_solve(mg)
        assert value == 0
        assert dict(xi_row.support) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        assert dict(xi_col.support) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_one_by_one(self):
        mg = MatrixGame(
            row_strategies=((0,),), col_strategies=((0,),), payoffs=((Fraction(7),),))
        value, xi_row, xi_col = matrix_game_solve(mg)
        assert value == 7
        assert xi_row.support == (((0,), 1),)
        assert xi_col.support == (((0,), 1),)

    @pytest.mark.parametrize("seed", range(15))
    def test_exact_and_float_agree(self, seed):
        rng = random.Random(600 + seed)
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        entries = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)]
                   for _ in range(rows)]
        exact = MatrixGame(
            row_strategies=tuple((i,) for i in range(rows)),
            col_strategies=tuple((j,) for j in range(cols)),
            payoffs=tuple(tuple(row) for row in entries),
        )
        floaty = MatrixGame(
            row_strategies=exact.row_strategies,
            col_strategies=exact.col_strategies,
            payoffs=tuple(tuple(float(x) for x in row) for row in entries),
        )
        v_exact, _, _ = matrix_game_solve(exact)
        v_float, xi_row, xi_col = matrix_game_solve(floaty)
        assert abs(float(v_exact) - v_float) <= 1e-7
        # both float strategies guarantee the value against every pure reply
        p = dict(xi_row.support)
        q = dict(xi_col.support)
        worst = min(sum(p.get((r,), 0.0) * entries[r][c] for r in range(rows))
                    for c in range(cols))
        best = max(sum(q.get((c,), 0.0) * entries[r][c] for c in range(cols))
                   for r in range(rows))
        assert worst >= v_float - MEMBERSHIP_EPS_FLOAT
        assert best <= v_float + MEMBERSHIP_EPS_FLOAT

    @pytest.mark.parametrize("seed", range(10))
    def test_returned_strategies_are_optimal(self, seed):
        # maximin guarantee of the returned row strategy equals the value
        rng = random.Random(700 + seed)
        game = random_game(rng, exact=True)
        mg = build_matrix(game)
        value, xi_row, xi_col = matrix_game_solve(mg)
        row_index = {s: r for r, s in enumerate(mg.row_strategies)}
        worst = min(
            sum(p * mg.payoffs[row_index[s]][c] for s, p in xi_row.support)
            for c in range(len(mg.col_strategies))
        )
        assert worst == value
        col_index = {s: c for c, s in enumerate(mg.col_strategies)}
        best = max(
            sum(p * mg.payoffs[r][col_index[s]] for s, p in xi_col.support)
            for r in range(len(mg.row_strategies))
        )
        assert best == value


def pure_equilibrium_strategies(mg, value):
    """Pure strategies that guarantee ``value`` against every pure reply; in
    a zero-sum game these are exactly the pure equilibrium strategies."""
    rows = [s for r, s in enumerate(mg.row_strategies) if min(mg.payoffs[r]) >= value]
    cols = [s for c, s in enumerate(mg.col_strategies)
            if max(row[c] for row in mg.payoffs) <= value]
    return rows, cols


class TestExhaustiveEquilibria:
    def test_example_sets(self):
        mg = build_matrix(exact_example())
        value, _, _ = matrix_game_solve(mg)
        rows, cols = pure_equilibrium_strategies(mg, value)
        assert set(rows) == set(S_STAR)
        assert set(cols) == set(S_STAR)
        assert (0, 2) not in rows and (2, 0) not in rows

    def test_all_zero_game(self):
        game = CostBlottoGame(
            n=2,
            budget_a=1,
            budget_b=1,
            valuations=(Valuation.sign_form(0, 1, 1), Valuation.sign_form(0, 1, 1)),
            assign_costs_a=(CostFunction.zero(1), CostFunction.zero(1)),
            assign_costs_b=(CostFunction.zero(1), CostFunction.zero(1)),
            obtain_cost_a=CostFunction.zero(1),
            obtain_cost_b=CostFunction.zero(1),
        )
        mg = build_matrix(game)
        value, _, _ = matrix_game_solve(mg)
        rows, cols = pure_equilibrium_strategies(mg, value)
        assert set(rows) == {(0, 0), (0, 1), (1, 0)}
        assert set(cols) == {(0, 0), (0, 1), (1, 0)}

    @pytest.mark.parametrize("seed", range(8))
    def test_value_sandwich(self, seed):
        rng = random.Random(800 + seed)
        game = random_game(rng, exact=True)
        mg = build_matrix(game)
        value, _, _ = matrix_game_solve(mg)
        n_cols = len(mg.col_strategies)
        for row in mg.payoffs:
            assert min(row) <= value
        for c in range(n_cols):
            assert value <= max(mg.payoffs[r][c] for r in range(len(mg.payoffs)))

    @pytest.mark.parametrize("seed", range(8))
    def test_members_guarantee_value(self, seed):
        # the DP certificate, which shares nothing with the matrix, finds no
        # gain against a pure equilibrium strategy played with the other
        # side's optimal mix
        rng = random.Random(900 + seed)
        game = random_game(rng, exact=True)
        mg = build_matrix(game)
        value, xi_row, xi_col = matrix_game_solve(mg)
        rows, cols = pure_equilibrium_strategies(mg, value)
        for s in rows:
            assert certify_equilibrium(game, point_mass(s), xi_col,
                                       eps=0) == (True, 0, 0)
        for s in cols:
            assert certify_equilibrium(game, xi_row, point_mass(s),
                                       eps=0) == (True, 0, 0)
