"""Core types and exact payoff evaluation for resource contests with costs.

Two players simultaneously assign discrete resources to battlefields.  A
player may leave part of its budget unassigned.  Each battlefield i pays the
first player ``v_i(a_i, b_i)`` and the second player ``-v_i(a_i, b_i)``, each
player pays a per-battlefield assignment cost on what it places there, and
each player pays an obtainment cost on the total it assigns.  All arithmetic
stays in whatever number type the game was built with, so games built from
ints or :class:`fractions.Fraction` evaluate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, float, Fraction]

#: A pure strategy is a tuple of per-battlefield resource counts.
PureStrategy = tuple[int, ...]

#: Mixed-strategy probabilities must sum to one within this tolerance.
PROB_EPS = 1e-9

#: Default cap on the number of strategies an exhaustive enumeration may emit.
ENUMERATION_CAP = 10_000_000


class InvalidStrategyError(ValueError):
    """A pure strategy violates its player's budget or shape constraints."""


class EnumerationCapError(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_finite(what: str, entries: Iterable[Number]) -> None:
    """Refuse NaN and infinite float entries, which no order check catches
    (NaN compares false) and HiGHS would solve as given.  Only floats are
    checked: ints and fractions are finite, and may exceed a float's range."""
    for x in entries:
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{what} has a non-finite entry {x!r}")


@dataclass(frozen=True)
class CostFunction:
    """Non-decreasing cost of assigning or obtaining ``t`` resources.

    ``values[t]`` is the cost of ``t`` for ``t`` in ``0..domain_max``; the
    linear and quadratic constructors fill the table from a single
    nonnegative coefficient.  ``f(0)`` need not be zero.
    """

    values: tuple[Number, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("cost table must have at least one entry")
        _check_finite("cost table", values)
        for t in range(len(values) - 1):
            if values[t + 1] < values[t]:
                raise ValueError(
                    f"cost table decreases at t={t + 1}: "
                    f"{values[t + 1]!r} < {values[t]!r}"
                )

    @classmethod
    def _parametric(cls, kind: str, coefficient: Number, domain_max: int,
                    cost) -> "CostFunction":
        if not _is_count(domain_max):
            raise ValueError(f"domain_max must be a nonnegative int, got {domain_max!r}")
        if coefficient < 0:
            raise ValueError(
                f"{kind} cost with negative coefficient {coefficient!r} would be decreasing"
            )
        return cls(values=tuple(cost(t) for t in range(domain_max + 1)))

    @classmethod
    def zero(cls, domain_max: int) -> "CostFunction":
        return cls.linear(0, domain_max)

    @classmethod
    def linear(cls, coefficient: Number, domain_max: int) -> "CostFunction":
        return cls._parametric("linear", coefficient, domain_max, lambda t: coefficient * t)

    @classmethod
    def quadratic(cls, coefficient: Number, domain_max: int) -> "CostFunction":
        return cls._parametric("quadratic", coefficient, domain_max,
                               lambda t: coefficient * t * t)

    @classmethod
    def from_table(cls, values: Sequence[Number]) -> "CostFunction":
        return cls(values=tuple(values))

    @property
    def domain_max(self) -> int:
        return len(self.values) - 1

    def __call__(self, t: int) -> Number:
        if not _is_count(t) or t >= len(self.values):
            raise ValueError(f"cost argument {t!r} outside domain 0..{self.domain_max}")
        return self.values[t]


@dataclass(frozen=True)
class Valuation:
    """Battlefield payoff table to the first player, indexed ``rows[a][b]``.

    :meth:`sign_form` fills the table with ``weight * sign(a - b)``: the
    battlefield is won by whoever assigns strictly more.
    """

    rows: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("valuation table must be rectangular and non-empty")
        for r in rows:
            _check_finite("valuation table", r)

    @classmethod
    def sign_form(cls, weight: Number, budget_a: int, budget_b: int) -> "Valuation":
        return cls(rows=tuple(
            tuple(weight * ((a > b) - (a < b)) for b in range(budget_b + 1))
            for a in range(budget_a + 1)
        ))

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[Number]]) -> "Valuation":
        return cls(rows=rows)


def negated_transpose(rows: Sequence[Sequence[Number]]) -> tuple[tuple[Number, ...], ...]:
    """``out[b][a] == -rows[a][b]``: a payoff table seen by the other player."""
    return tuple(tuple(-row[b] for row in rows) for b in range(len(rows[0])))


@dataclass(frozen=True)
class CostBlottoGame:
    """A contest with obtainment and assignment costs for both players.

    Player A has budget ``budget_a`` and player B ``budget_b``; either player
    may assign any total up to its budget across the ``n`` battlefields.
    """

    n: int
    budget_a: int
    budget_b: int
    valuations: tuple[Valuation, ...]
    assign_costs_a: tuple[CostFunction, ...]
    assign_costs_b: tuple[CostFunction, ...]
    obtain_cost_a: CostFunction
    obtain_cost_b: CostFunction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need at least 2 battlefields, got n={self.n!r}")
        if not _is_count(self.budget_a) or not _is_count(self.budget_b):
            raise ValueError(
                f"budgets must be nonnegative ints, got {self.budget_a!r}, {self.budget_b!r}"
            )
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(self, "assign_costs_a", tuple(self.assign_costs_a))
        object.__setattr__(self, "assign_costs_b", tuple(self.assign_costs_b))
        for name, seq in (
            ("valuations", self.valuations),
            ("assign_costs_a", self.assign_costs_a),
            ("assign_costs_b", self.assign_costs_b),
        ):
            if len(seq) != self.n:
                raise ValueError(f"{name} has {len(seq)} entries, expected n={self.n}")
        for i, v in enumerate(self.valuations):
            if len(v.rows) != self.budget_a + 1 or len(v.rows[0]) != self.budget_b + 1:
                raise ValueError(
                    f"valuations[{i}] table is {len(v.rows)}x{len(v.rows[0])}, "
                    f"expected {self.budget_a + 1}x{self.budget_b + 1}"
                )
        for name, cost, budget in (
            *((f"assign_costs_a[{i}]", c, self.budget_a) for i, c in enumerate(self.assign_costs_a)),
            *((f"assign_costs_b[{i}]", c, self.budget_b) for i, c in enumerate(self.assign_costs_b)),
            ("obtain_cost_a", self.obtain_cost_a, self.budget_a),
            ("obtain_cost_b", self.obtain_cost_b, self.budget_b),
        ):
            if cost.domain_max != budget:
                raise ValueError(
                    f"{name} has domain_max {cost.domain_max}, expected budget {budget}"
                )


def _check_player(player: str) -> None:
    if player not in ("A", "B"):
        raise ValueError(f"player must be 'A' or 'B', got {player!r}")


def check_partial_assignment(s: Iterable[int], budget: int, n: int) -> PureStrategy:
    """Validate and normalize a partial assignment (total at most ``budget``)."""
    s = tuple(s)
    if len(s) != n:
        raise InvalidStrategyError(f"strategy {s} has length {len(s)}, expected {n}")
    if not all(_is_count(x) for x in s):
        raise InvalidStrategyError(f"strategy {s} has non-integer or negative entries")
    if sum(s) > budget:
        raise InvalidStrategyError(f"strategy {s} assigns {sum(s)}, over budget {budget}")
    return s


def check_full_assignment(s: Iterable[int], budget: int, n: int) -> PureStrategy:
    """Validate a full assignment (total exactly ``budget``)."""
    s = check_partial_assignment(s, budget, n)
    if sum(s) != budget:
        raise InvalidStrategyError(
            f"strategy {s} assigns {sum(s)}, expected the full budget {budget}"
        )
    return s


def own_costs(assign_costs: Sequence[CostFunction], obtain_cost: CostFunction,
              s: PureStrategy) -> tuple[Number, Number]:
    """One player's own costs of its checked strategy ``s``: the sum of its
    assignment costs over the battlefields, and its obtainment cost."""
    return (sum(c.values[t] for c, t in zip(assign_costs, s)),
            obtain_cost.values[sum(s)])


def _profile_terms(game: CostBlottoGame, s_a: Iterable[int], s_b: Iterable[int]):
    """The battlefield valuation sum of a profile and each player's own costs."""
    s_a = check_partial_assignment(s_a, game.budget_a, game.n)
    s_b = check_partial_assignment(s_b, game.budget_b, game.n)
    value = sum(game.valuations[i].rows[s_a[i]][s_b[i]] for i in range(game.n))
    return (value, own_costs(game.assign_costs_a, game.obtain_cost_a, s_a),
            own_costs(game.assign_costs_b, game.obtain_cost_b, s_b))


def payoff_costs(game: CostBlottoGame, s_a: Iterable[int], s_b: Iterable[int]) -> tuple[Number, Number]:
    """Both players' payoffs in the game with costs.

    Player A receives the battlefield valuations minus its own assignment and
    obtainment costs; player B receives the negated valuations minus its own
    costs.  The pair generally does not sum to zero.
    """
    value, (cost_a, obtain_a), (cost_b, obtain_b) = _profile_terms(game, s_a, s_b)
    return value - cost_a - obtain_a, -value - cost_b - obtain_b


def payoff_zero(game: CostBlottoGame, s_a: Iterable[int], s_b: Iterable[int]) -> Number:
    """Player A's payoff in the zero-sum companion game.

    Each player's payoff is shifted by the opponent's total costs, which the
    opponent's strategy alone determines; the shift leaves every player's
    preference between its own strategies unchanged, so equilibria coincide
    with those of the game with costs, and the shifted game is zero-sum.
    Player B's companion payoff is the negation of the returned value.
    """
    value, (cost_a, obtain_a), (cost_b, obtain_b) = _profile_terms(game, s_a, s_b)
    return value - cost_a - obtain_a + cost_b + obtain_b


def enumerate_strategies(budget: int, n: int, full: bool = False,
                         cap: int = ENUMERATION_CAP) -> list[PureStrategy]:
    """All partial (or full) assignments of ``budget`` over ``n`` battlefields.

    Strategies are emitted in lexicographic order.  Raises
    :class:`EnumerationCapError` when the count exceeds ``cap``.
    """
    if n < 1 or not _is_count(budget):
        raise ValueError(f"invalid enumeration domain budget={budget!r}, n={n!r}")
    count = math.comb(budget + n - 1, n - 1) if full else math.comb(budget + n, n)
    if count > cap:
        raise EnumerationCapError(
            f"oracle scale exceeded: {count} strategies for budget={budget}, "
            f"n={n}, cap={cap}"
        )
    out: list[PureStrategy] = []
    prefix = [0] * n

    def rec(pos: int, remaining: int) -> None:
        if pos == n - 1:
            if full:
                prefix[pos] = remaining
                out.append(tuple(prefix))
            else:
                for t in range(remaining + 1):
                    prefix[pos] = t
                    out.append(tuple(prefix))
            return
        for t in range(remaining + 1):
            prefix[pos] = t
            rec(pos + 1, remaining - t)

    rec(0, budget)
    return out


@dataclass(frozen=True)
class MixedStrategy:
    """A finite-support probability distribution over pure strategies."""

    support: tuple[tuple[PureStrategy, Number], ...]

    def __post_init__(self):
        entries = tuple((tuple(s), p) for s, p in self.support)
        object.__setattr__(self, "support", entries)
        if not entries:
            raise ValueError("mixed strategy must have non-empty support")
        seen = set()
        for s, p in entries:
            if s in seen:
                raise ValueError(f"duplicate support entry {s}")
            seen.add(s)
            if p < 0:
                raise ValueError(f"negative probability {p!r} on {s}")
        total = sum(p for _, p in entries)
        if abs(total - 1) > PROB_EPS:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")


def mix_strategies(xi_1: MixedStrategy, xi_2: MixedStrategy,
                   weight: Number = Fraction(1, 2)) -> MixedStrategy:
    """Convex combination ``weight * xi_1 + (1 - weight) * xi_2``."""
    if not 0 <= weight <= 1:
        raise ValueError(f"mixture weight {weight!r} outside [0, 1]")
    probs: dict[PureStrategy, Number] = {}
    for s, p in xi_1.support:
        probs[s] = probs.get(s, 0) + weight * p
    for s, p in xi_2.support:
        probs[s] = probs.get(s, 0) + (1 - weight) * p
    entries = tuple(sorted((s, p) for s, p in probs.items() if p > 0))
    return MixedStrategy(support=entries)


def swap_players(game: CostBlottoGame) -> CostBlottoGame:
    """The same contest with the player roles exchanged.

    The new player A is the old player B; battlefield payoffs are negated and
    transposed so pure payoffs satisfy
    ``payoff_costs(swapped, s_b, s_a) == (pay_b, pay_a)``.
    """
    return CostBlottoGame(
        n=game.n,
        budget_a=game.budget_b,
        budget_b=game.budget_a,
        valuations=tuple(Valuation(negated_transpose(v.rows)) for v in game.valuations),
        assign_costs_a=game.assign_costs_b,
        assign_costs_b=game.assign_costs_a,
        obtain_cost_a=game.obtain_cost_b,
        obtain_cost_b=game.obtain_cost_a,
    )
