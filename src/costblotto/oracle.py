"""Brute-force reference solver for small contests.

Enumerates both players' pure strategies, materializes the zero-sum payoff
matrix, and solves the matrix game directly.  Games whose numbers are all
ints or :class:`fractions.Fraction` are solved with an exact rational
simplex; everything else goes through one floating-point LP over the payoff
matrix.  That LP shares the package's HiGHS wrapper with the flow solver,
but not its formulation: the two meet only in pure payoffs, so agreement
between them is meaningful evidence of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import getitem

import numpy as np

from .game import (
    CostBlottoGame,
    MixedStrategy,
    Number,
    PureStrategy,
    enumerate_strategies,
    own_costs,
)
from .solver import OPTIMAL, CsrMatrix, LinearProgram, get_backend


class OracleSolveError(RuntimeError):
    """The reference linear-programming solve did not reach an optimum."""


@dataclass(frozen=True)
class MatrixGame:
    """A zero-sum matrix game; ``payoffs[r][c]`` goes to the row player."""

    row_strategies: tuple[PureStrategy, ...]
    col_strategies: tuple[PureStrategy, ...]
    payoffs: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.payoffs)
        object.__setattr__(self, "payoffs", rows)
        if len(rows) != len(self.row_strategies):
            raise ValueError("payoff matrix row count does not match strategies")
        if any(len(r) != len(self.col_strategies) for r in rows):
            raise ValueError("payoff matrix column count does not match strategies")

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(x, (int, Fraction)) and not isinstance(x, bool)
            for row in self.payoffs for x in row
        )


def build_matrix(game: CostBlottoGame, max_strategies: int = 10_000) -> MatrixGame:
    """Materialize the zero-sum companion payoff matrix of a contest.

    Rows are player A's partial assignments and columns player B's, both in
    lexicographic order.  Raises when either side would exceed
    ``max_strategies``.  Each strategy's own costs are summed once; a cell
    then adds up the battlefield valuations and combines the terms in
    :func:`~costblotto.game.payoff_zero`'s operand order, so it equals that
    function's value exactly.
    """
    rows = enumerate_strategies(game.budget_a, game.n, cap=max_strategies)
    cols = enumerate_strategies(game.budget_b, game.n, cap=max_strategies)
    col_terms = [(s_b, *own_costs(game.assign_costs_b, game.obtain_cost_b, s_b))
                 for s_b in cols]
    tables = [v.rows for v in game.valuations]
    payoffs = []
    for s_a in rows:
        cost_a, obtain_a = own_costs(game.assign_costs_a, game.obtain_cost_a, s_a)
        lines = list(map(getitem, tables, s_a))  # battlefield i's row at s_a[i]
        payoffs.append(tuple(
            sum(map(getitem, lines, s_b)) - cost_a - obtain_a + cost_b + obtain_b
            for s_b, cost_b, obtain_b in col_terms))
    return MatrixGame(row_strategies=tuple(rows), col_strategies=tuple(cols),
                      payoffs=payoffs)


def _simplex_max_unit(m: list[list[Fraction]]) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Maximize sum(y) subject to m @ y <= 1, y >= 0, all entries of m positive.

    Dense tableau simplex with Bland's rule, exact over Fractions.  Returns
    the optimum, the primal solution y, and the duals of the row constraints.
    """
    n_rows, n_cols = len(m), len(m[0])
    width = n_cols + n_rows + 1
    tableau = []
    for i in range(n_rows):
        row = [Fraction(x) for x in m[i]]
        row += [Fraction(int(k == i)) for k in range(n_rows)]
        row.append(Fraction(1))
        tableau.append(row)
    z = [Fraction(-1)] * n_cols + [Fraction(0)] * (n_rows + 1)
    basis = list(range(n_cols, n_cols + n_rows))

    while True:
        enter = next((j for j in range(width - 1) if z[j] < 0), None)
        if enter is None:
            break
        best_ratio = None
        leave = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise OracleSolveError("matrix game simplex found an unbounded direction")
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(n_rows):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[leave])]
        if z[enter] != 0:
            factor = z[enter]
            z = [x - factor * y for x, y in zip(z, tableau[leave])]
        basis[leave] = enter

    y = [Fraction(0)] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            y[var] = tableau[i][-1]
    duals = z[n_cols:n_cols + n_rows]
    return z[-1], y, duals


def _solve_exact(payoffs) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    entries = [x for row in payoffs for x in row]
    shift = 1 - min(entries)
    shifted = [[Fraction(x) + shift for x in row] for row in payoffs]
    opt, y, duals = _simplex_max_unit(shifted)
    scale = 1 / opt
    col = [p * scale for p in y]
    row = [d * scale for d in duals]
    value = scale - shift
    # exact sanity checks: both strategies must guarantee the value
    n_rows, n_cols = len(payoffs), len(payoffs[0])
    row_guarantee = min(
        sum(row[r] * payoffs[r][c] for r in range(n_rows)) for c in range(n_cols)
    )
    col_guarantee = max(
        sum(payoffs[r][c] * col[c] for c in range(n_cols)) for r in range(n_rows)
    )
    if row_guarantee != value or col_guarantee != value:
        raise OracleSolveError(
            f"exact simplex produced inconsistent strategies "
            f"({row_guarantee} / {value} / {col_guarantee})"
        )
    return value, row, col


def _solve_float(payoffs) -> tuple[float, np.ndarray, np.ndarray]:
    m = np.asarray(payoffs, dtype=float)
    shift = 1.0 - m.min()
    n_rows, n_cols = m.shape
    # every shifted entry is at least 1, so the CSR arrays hold them all, row by row
    a = CsrMatrix(m.shape, np.arange(0, n_rows * n_cols + 1, n_cols),
                  np.tile(np.arange(n_cols), n_rows), (m + shift).ravel())
    # dual simplex at every size: past 600 columns interior point took 2-3x as
    # long on these dense games, so the flow LPs' size rule does not fit them
    sol = get_backend("highs-ds").solve(LinearProgram(
        sense="max", objective=np.ones(n_cols), a=a, row_lower=np.full(n_rows, -np.inf),
        row_upper=np.ones(n_rows), lower=np.zeros(n_cols), upper=np.full(n_cols, np.inf)))
    if sol.status != OPTIMAL:
        raise OracleSolveError(f"matrix game solve failed: {sol.message}")
    value = 1.0 / sol.objective - shift
    # the row player's strategy is the normalized dual of the row constraints
    row = np.maximum(sol.row_duals, 0.0)
    col = np.maximum(sol.x, 0.0)
    return value, row / row.sum(), col / col.sum()


def _support(strategies, probs, drop_below) -> MixedStrategy:
    entries = [(s, p) for s, p in zip(strategies, probs) if p > drop_below]
    total = sum(p for _, p in entries)
    return MixedStrategy(support=tuple((s, p / total) for s, p in entries))


def matrix_game_solve(mg: MatrixGame) -> tuple[Number, MixedStrategy, MixedStrategy]:
    """Minimax value and one optimal mixed strategy per player.

    Solves ``max sum(y): M'y <= 1`` over the positively shifted matrix; the
    row player's strategy comes from the duals.  Exact matrices are solved in
    rational arithmetic, others through one floating-point LP.
    """
    if mg.is_exact:
        value, row, col = _solve_exact(mg.payoffs)
        drop = Fraction(0)
    else:
        value, row, col = _solve_float(mg.payoffs)
        drop = 1e-12
    xi_row = _support(mg.row_strategies, row, drop)
    xi_col = _support(mg.col_strategies, col, drop)
    return value, xi_row, xi_col
