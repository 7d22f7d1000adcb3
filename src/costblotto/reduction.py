"""Reduction of a contest with costs to an all-pay sunk-cost contest.

Both cost kinds become parts of battlefield payoffs once budgets are treated
as sunk: assignment costs stay on their battlefields, and an extra
battlefield carries the obtainment costs.  Each player "assigns" its unspent
resources to the extra battlefield, so full assignments of the whole budget
over ``n + 1`` battlefields correspond one-to-one with partial assignments
over the original ``n``.  A player's costs depend on its own assignment only,
so the sunk-cost game keeps them apart from the valuations, which alone
couple the two players; :func:`oriented_valuations` is the one place that
says how player B sees those parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

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
    whose valuation is ``None`` pays the costs alone.  The game is zero sum.
    """

    n_hat: int
    budget_a: int
    budget_b: int
    valuations: tuple[ValueTable | None, ...]
    costs_a: tuple[CostRow, ...]
    costs_b: tuple[CostRow, ...]

    def __post_init__(self):
        if not isinstance(self.n_hat, int) or self.n_hat < 1:
            raise ValueError(f"need at least 1 battlefield, got n_hat={self.n_hat!r}")
        if not _is_count(self.budget_a) or not _is_count(self.budget_b):
            raise ValueError(
                f"budgets must be nonnegative ints, got {self.budget_a!r}, {self.budget_b!r}"
            )
        da, db = self.budget_a, self.budget_b
        tables = tuple(None if t is None else tuple(tuple(row) for row in t)
                       for t in self.valuations)
        if len(tables) != self.n_hat:
            raise ValueError(f"valuations has {len(tables)} tables, expected n_hat={self.n_hat}")
        for i, t in enumerate(tables):
            if t is not None and (len(t) != da + 1 or any(len(row) != db + 1 for row in t)):
                raise ValueError(f"valuations[{i}] must be {da + 1}x{db + 1}")
        object.__setattr__(self, "valuations", tables)
        for name, budget in (("costs_a", da), ("costs_b", db)):
            rows = tuple(tuple(row) for row in getattr(self, name))
            if len(rows) != self.n_hat or any(len(row) != budget + 1 for row in rows):
                raise ValueError(f"{name} must be {self.n_hat} rows of length {budget + 1}")
            object.__setattr__(self, name, rows)

    @cached_property
    def _arrays(self) -> dict:
        """The parts as :func:`oriented_arrays` gives them, by player and
        kind, filled in on first use."""
        return {}


def build_sunk_cost(game: CostBlottoGame) -> SunkCostGame:
    """The sunk-cost game of ``game``, with both players' costs as their own.

    Battlefield ``i <= n`` keeps valuation ``v_i`` and the assignment costs
    ``ca_i`` and ``cb_i``, so it pays ``v_i(a, b) - ca_i(a) + cb_i(b)``.  The
    extra battlefield has no valuation and pays ``-ga(budget_a - a) +
    gb(budget_b - b)``, where an assignment of ``t`` to it means
    ``budget - t`` resources were actually obtained.  The game holds these
    parts as the game's tables give them; no payoff table is summed.  Every
    strategy of the original game keeps its zero-sum-companion payoff under
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


def oriented_valuations(
    sunk: SunkCostGame, player: str
) -> tuple[int, int, tuple[ValueTable | None, ...], tuple[CostRow, ...], tuple[CostRow, ...]]:
    """The sunk-cost game's parts as ``player``, the maximizer, sees them.

    Returns ``(budget_self, budget_opp, tables, costs_self, costs_opp)``:
    battlefield ``i`` pays ``player`` ``tables[i][own][opp] -
    costs_self[i][own] + costs_opp[i][opp]``, or the costs alone where
    ``tables[i]`` is ``None``.  Player B's tables are the negated transposes
    of A's, and its own costs are ``costs_b``; this is the only place B's
    view is derived.
    """
    _check_player(player)
    if player == "A":
        return sunk.budget_a, sunk.budget_b, sunk.valuations, sunk.costs_a, sunk.costs_b
    tables = tuple(None if t is None else negated_transpose(t) for t in sunk.valuations)
    return sunk.budget_b, sunk.budget_a, tables, sunk.costs_b, sunk.costs_a


def oriented_arrays(
    sunk: SunkCostGame, player: str, exact: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`oriented_valuations` as arrays: ``(tables, costs_self,
    costs_opp)`` of shapes ``(n_hat, budget_self + 1, budget_opp + 1)``,
    ``(n_hat, budget_self + 1)`` and ``(n_hat, budget_opp + 1)``, with an
    all-zero table where the game has none.  They hold float64 entries, or
    with ``exact`` the game's own entries in object arrays.  Each player's
    and kind's arrays are built once per game."""
    key = (player, exact)
    if key not in sunk._arrays:
        d_self, d_opp, tables, costs_self, costs_opp = oriented_valuations(sunk, player)
        zero = ((0,) * (d_opp + 1),) * (d_self + 1)
        dtype = object if exact else float
        arrays = tuple(np.array(part, dtype=dtype)
                       for part in ([zero if t is None else t for t in tables], costs_self,
                                    costs_opp))
        for array in arrays:  # every caller shares them
            array.flags.writeable = False
        sunk._arrays[key] = arrays
    return sunk._arrays[key]
