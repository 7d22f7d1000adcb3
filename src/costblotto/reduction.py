"""Reduction of a contest with costs to an all-pay sunk-cost contest.

Both cost kinds can be folded into battlefield valuations once budgets are
treated as sunk: assignment costs move into each battlefield's valuation, and
an extra battlefield absorbs the obtainment costs.  Each player "assigns" its
unspent resources to the extra battlefield, so full assignments of the whole
budget over ``n + 1`` battlefields correspond one-to-one with partial
assignments over the original ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .game import (
    CostBlottoGame,
    InvalidStrategyError,
    Number,
    PureStrategy,
    check_full_assignment,
    check_partial_assignment,
    negated_transpose,
    _check_player,
    _is_count,
)

ValueTable = tuple[tuple[Number, ...], ...]


@dataclass(frozen=True)
class SunkCostGame:
    """A constant-budget contest: each player assigns its entire budget.

    ``valuations_hat[i]`` is the full payoff table of battlefield ``i`` to
    player A, indexed ``[a][b]`` over ``0..budget_a`` and ``0..budget_b``.
    The game is zero sum.
    """

    n_hat: int
    budget_a: int
    budget_b: int
    valuations_hat: tuple[ValueTable, ...]

    def __post_init__(self):
        if not isinstance(self.n_hat, int) or self.n_hat < 1:
            raise ValueError(f"need at least 1 battlefield, got n_hat={self.n_hat!r}")
        if not _is_count(self.budget_a) or not _is_count(self.budget_b):
            raise ValueError(
                f"budgets must be nonnegative ints, got {self.budget_a!r}, {self.budget_b!r}"
            )
        tables = tuple(tuple(tuple(row) for row in t) for t in self.valuations_hat)
        object.__setattr__(self, "valuations_hat", tables)
        if len(tables) != self.n_hat:
            raise ValueError(
                f"valuations_hat has {len(tables)} tables, expected n_hat={self.n_hat}"
            )
        for i, t in enumerate(tables):
            if len(t) != self.budget_a + 1 or any(len(row) != self.budget_b + 1 for row in t):
                raise ValueError(
                    f"valuations_hat[{i}] must be {self.budget_a + 1}x{self.budget_b + 1}"
                )


def build_sunk_cost(game: CostBlottoGame) -> SunkCostGame:
    """Fold both players' costs of ``game`` into an equivalent sunk-cost game.

    Battlefield ``i <= n`` pays ``v_i(a, b) - ca_i(a) + cb_i(b)`` and the
    extra battlefield pays ``-ga(budget_a - a) + gb(budget_b - b)``, where an
    assignment of ``t`` to the extra battlefield means ``budget - t``
    resources were actually obtained.  Every strategy of the original game
    keeps its zero-sum-companion payoff under :func:`map_strategy`.
    """
    da, db = game.budget_a, game.budget_b
    tables = []
    # the games' cost tables span exactly 0..budget, so they are read directly
    for i in range(game.n):
        rows = game.valuations[i].rows
        ca, cb = game.assign_costs_a[i].values, game.assign_costs_b[i].values
        tables.append(tuple(
            tuple(row_a[b] - ca_a + cb[b] for b in range(db + 1))
            for row_a, ca_a in zip(rows, ca)
        ))
    ga, gb = game.obtain_cost_a.values, game.obtain_cost_b.values
    tables.append(tuple(
        tuple(-ga[da - a] + gb[db - b] for b in range(db + 1))
        for a in range(da + 1)
    ))
    return SunkCostGame(n_hat=game.n + 1, budget_a=da, budget_b=db,
                        valuations_hat=tuple(tables))


def map_strategy(s: Iterable[int], budget: int) -> PureStrategy:
    """Extend a partial assignment with its unspent resources.

    The result is a full assignment over one more battlefield whose last
    coordinate holds ``budget - sum(s)``.
    """
    s = tuple(s)
    s = check_partial_assignment(s, budget, len(s))
    return s + (budget - sum(s),)


def unmap_strategy(s_hat: Iterable[int], budget: int) -> PureStrategy:
    """Drop the unspent-resources coordinate of a full assignment."""
    s_hat = tuple(s_hat)
    if len(s_hat) < 2:
        raise InvalidStrategyError(f"strategy {s_hat} too short to unmap")
    check_full_assignment(s_hat, budget, len(s_hat))
    return s_hat[:-1]


def oriented_valuations(sunk: SunkCostGame, player: str) -> tuple[int, int, tuple[ValueTable, ...]]:
    """Battlefield tables oriented so ``player`` is the maximizer.

    Returns ``(budget_self, budget_opp, tables)`` with each table indexed
    ``[own assignment][opponent assignment]``.  Player B's view is the
    negated transpose of player A's, so a single formulation serves both.
    """
    _check_player(player)
    if player == "A":
        return sunk.budget_a, sunk.budget_b, sunk.valuations_hat
    return sunk.budget_b, sunk.budget_a, tuple(negated_transpose(t) for t in sunk.valuations_hat)
