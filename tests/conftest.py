import random
from fractions import Fraction

import pytest

from costblotto import CostBlottoGame, CostFunction, Valuation


def example_one() -> CostBlottoGame:
    """n=2, budgets 2/2, sign valuations, no assignment costs, g(t)=t."""
    return CostBlottoGame(
        n=2,
        budget_a=2,
        budget_b=2,
        valuations=(Valuation.sign_form(1, 2, 2), Valuation.sign_form(1, 2, 2)),
        assign_costs_a=(CostFunction.zero(2), CostFunction.zero(2)),
        assign_costs_b=(CostFunction.zero(2), CostFunction.zero(2)),
        obtain_cost_a=CostFunction.linear(1, 2),
        obtain_cost_b=CostFunction.linear(1, 2),
    )


@pytest.fixture
def example_game() -> CostBlottoGame:
    return example_one()


#: Cost increments whose float sums are not dyadic, so that a change in the
#: order of floating-point operations shows up in results.
DECIMAL_INCREMENTS = (0.0, 0.1, 0.3, 0.7)


def random_cost(rng: random.Random, domain_max: int, exact: bool = False,
                increments=None) -> CostFunction:
    """Non-decreasing table cost with increments drawn from {0, 1/4, 1/2, 1},
    or from ``increments`` (such as :data:`DECIMAL_INCREMENTS`) when given."""
    if increments is None:
        increments = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    values = [Fraction(0)]
    for _ in range(domain_max):
        values.append(values[-1] + rng.choice(increments))
    if not exact:
        values = [float(v) for v in values]
    return CostFunction.from_table(tuple(values))


def random_game(rng: random.Random, n_max: int = 3, d_max: int = 5,
                exact: bool = False, increments=None) -> CostBlottoGame:
    """Random instance: integer valuations in [-2, 2], random monotone costs
    (see :func:`random_cost` for ``increments``)."""
    n = rng.randint(2, n_max)
    d_a = rng.randint(0, d_max)
    d_b = rng.randint(0, d_max)
    vals = []
    for _ in range(n):
        if rng.random() < 0.5:
            vals.append(Valuation.sign_form(rng.randint(1, 2), d_a, d_b))
        else:
            rows = tuple(
                tuple(rng.randint(-2, 2) for _ in range(d_b + 1))
                for _ in range(d_a + 1)
            )
            vals.append(Valuation.from_table(rows))
    return CostBlottoGame(
        n=n,
        budget_a=d_a,
        budget_b=d_b,
        valuations=tuple(vals),
        assign_costs_a=tuple(random_cost(rng, d_a, exact, increments) for _ in range(n)),
        assign_costs_b=tuple(random_cost(rng, d_b, exact, increments) for _ in range(n)),
        obtain_cost_a=random_cost(rng, d_a, exact, increments),
        obtain_cost_b=random_cost(rng, d_b, exact, increments),
    )


#: Sign weights whose tables must keep ``w * sign(a - b)`` in value and type.
SIGN_WEIGHTS = [1, Fraction(1, 3), 0.1, 0.3, 0.7]


def decimal_step_game(rng: random.Random, weight, step: float) -> CostBlottoGame:
    """Random game with sign valuations of ``weight`` and float table costs
    summed in steps of ``step``.

    With a step such as 0.1 or 0.3 the cost tables are not dyadic, so a
    change in the order of floating-point operations shows up in results.
    """
    n = rng.randint(2, 3)
    d_a = rng.randint(0, 5)
    d_b = rng.randint(0, 5)

    def cost(d):
        values = [0.0]
        for _ in range(d):
            values.append(values[-1] + step * rng.randint(0, 3))
        return CostFunction.from_table(values)

    return CostBlottoGame(
        n=n,
        budget_a=d_a,
        budget_b=d_b,
        valuations=(Valuation.sign_form(weight, d_a, d_b),) * n,
        assign_costs_a=tuple(cost(d_a) for _ in range(n)),
        assign_costs_b=tuple(cost(d_b) for _ in range(n)),
        obtain_cost_a=cost(d_a),
        obtain_cost_b=cost(d_b),
    )
