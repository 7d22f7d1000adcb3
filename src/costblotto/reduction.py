"""Reduction of a contest with costs to an all-pay sunk-cost contest.

Both cost kinds can be folded into battlefield valuations once budgets are
treated as sunk: assignment costs move into each battlefield's valuation, and
an extra battlefield absorbs the obtainment costs.  Each player "assigns" its
unspent resources to the extra battlefield, so full assignments of the whole
budget over ``n + 1`` battlefields correspond one-to-one with partial
assignments over the original ``n``.  A player's costs depend on its own
assignment only, so the sunk-cost game keeps them apart from the valuations,
which alone couple the two players, and folds them in once for the readers
of full payoff tables.
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
CostRow = tuple[Number, ...]


@dataclass(frozen=True)
class SunkCostGame:
    """A constant-budget contest: each player assigns its entire budget.

    Battlefield ``i`` pays player A ``valuations[i][a][b] - costs_a[i][a] +
    costs_b[i][b]`` when A assigns ``a`` and B assigns ``b``, over
    ``0..budget_a`` and ``0..budget_b``: a valuation, which couples the two
    players, and each player's own cost of its own assignment.  A battlefield
    whose valuation is ``None`` pays the costs alone.  ``valuations_hat[i]``
    is battlefield ``i``'s full payoff table to A, indexed ``[a][b]`` and
    folded once at construction.  A game built from ``valuations_hat`` alone
    has zero costs, and those tables are its valuations.  The game is zero
    sum.
    """

    n_hat: int
    budget_a: int
    budget_b: int
    valuations_hat: tuple[ValueTable, ...] | None = None
    valuations: tuple[ValueTable | None, ...] | None = None
    costs_a: tuple[CostRow, ...] | None = None
    costs_b: tuple[CostRow, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n_hat, int) or self.n_hat < 1:
            raise ValueError(f"need at least 1 battlefield, got n_hat={self.n_hat!r}")
        if not _is_count(self.budget_a) or not _is_count(self.budget_b):
            raise ValueError(
                f"budgets must be nonnegative ints, got {self.budget_a!r}, {self.budget_b!r}"
            )
        parts = (self.valuations, self.costs_a, self.costs_b)
        by_hand = self.valuations_hat is not None
        if any(p is not None for p in parts) if by_hand else None in parts:
            raise ValueError("give either valuations_hat alone or valuations, costs_a "
                             "and costs_b")
        da, db = self.budget_a, self.budget_b
        if by_hand:
            tables = self._tables("valuations_hat", self.valuations_hat)
            if None in tables:
                raise ValueError("valuations_hat must be full tables")
            costs_a, costs_b = ((0,) * (da + 1),) * self.n_hat, ((0,) * (db + 1),) * self.n_hat
            folded = tables
        else:
            tables = self._tables("valuations", self.valuations)
            costs_a = self._rows("costs_a", self.costs_a, da)
            costs_b = self._rows("costs_b", self.costs_b, db)
            folded = tuple(map(_fold, tables, costs_a, costs_b))
        for name, value in (("valuations_hat", folded), ("valuations", tables),
                            ("costs_a", costs_a), ("costs_b", costs_b)):
            object.__setattr__(self, name, value)

    def _tables(self, name, tables):
        tables = tuple(None if t is None else tuple(tuple(row) for row in t) for t in tables)
        if len(tables) != self.n_hat:
            raise ValueError(f"{name} has {len(tables)} tables, expected n_hat={self.n_hat}")
        for i, t in enumerate(tables):
            if t is not None and (len(t) != self.budget_a + 1
                                  or any(len(row) != self.budget_b + 1 for row in t)):
                raise ValueError(f"{name}[{i}] must be {self.budget_a + 1}x{self.budget_b + 1}")
        return tables

    def _rows(self, name, rows, budget):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != self.n_hat or any(len(row) != budget + 1 for row in rows):
            raise ValueError(f"{name} must be {self.n_hat} rows of length {budget + 1}")
        return rows


def _fold(table: ValueTable | None, ca: CostRow, cb: CostRow) -> ValueTable:
    """The full payoff table ``table[a][b] - ca[a] + cb[b]``; without a
    table, ``-ca[a] + cb[b]``."""
    if table is None:
        return tuple(tuple(-ca_a + cb_b for cb_b in cb) for ca_a in ca)
    return tuple(tuple(row_a[b] - ca_a + cb[b] for b in range(len(cb)))
                 for row_a, ca_a in zip(table, ca))


def build_sunk_cost(game: CostBlottoGame) -> SunkCostGame:
    """The sunk-cost game of ``game``, with both players' costs as their own.

    Battlefield ``i <= n`` keeps valuation ``v_i`` and the assignment costs
    ``ca_i`` and ``cb_i``, so it pays ``v_i(a, b) - ca_i(a) + cb_i(b)``.  The
    extra battlefield has no valuation and pays ``-ga(budget_a - a) +
    gb(budget_b - b)``, where an assignment of ``t`` to it means
    ``budget - t`` resources were actually obtained.  Every strategy of the
    original game keeps its zero-sum-companion payoff under
    :func:`map_strategy`.
    """
    # the games' cost tables span exactly 0..budget, so they are read directly
    return SunkCostGame(
        n_hat=game.n + 1, budget_a=game.budget_a, budget_b=game.budget_b,
        valuations=tuple(v.rows for v in game.valuations) + (None,),
        costs_a=tuple(c.values for c in game.assign_costs_a)
        + (game.obtain_cost_a.values[::-1],),
        costs_b=tuple(c.values for c in game.assign_costs_b)
        + (game.obtain_cost_b.values[::-1],))


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
