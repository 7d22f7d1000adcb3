import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costblotto import (
    CostBlottoGame,
    CostFunction,
    EnumerationCapError,
    InvalidStrategyError,
    MixedStrategy,
    Valuation,
    enumerate_strategies,
    mix_strategies,
    payoff_costs,
    payoff_zero,
    swap_players,
)
from conftest import SIGN_WEIGHTS, decimal_step_game, example_one, point_mass, random_game


class TestCostFunction:
    def test_zero(self):
        f = CostFunction.zero(3)
        assert [f(t) for t in range(4)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("t", range(5))
    def test_linear(self, t):
        assert CostFunction.linear(Fraction(1, 2), 4)(t) == Fraction(t, 2)

    @pytest.mark.parametrize("t", range(5))
    def test_quadratic(self, t):
        assert CostFunction.quadratic(3, 4)(t) == 3 * t * t

    def test_table(self):
        f = CostFunction.from_table((0, 0, 1.5, 1.5, 2))
        assert f(2) == 1.5
        assert f.domain_max == 4

    def test_decreasing_table_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_table((0, 2, 1))

    def test_float_tables_match_expressions(self):
        # filled left to right: 0.01 * (t * t) rounds differently for some t
        lin, quad = CostFunction.linear(0.05, 50), CostFunction.quadratic(0.01, 50)
        assert all(lin(t) == 0.05 * t for t in range(51))
        assert all(quad(t) == 0.01 * t * t for t in range(51))

    def test_single_field(self):
        assert [f.name for f in dataclasses.fields(CostFunction)] == ["values"]
        assert CostFunction.linear(1, 2) == CostFunction.from_table((0, 1, 2))

    @pytest.mark.parametrize("ctor", [CostFunction.linear, CostFunction.quadratic])
    def test_negative_coefficient_rejected(self, ctor):
        # a one-entry table is monotone, so domain_max 0 needs its own check
        for domain_max in (3, 0):
            with pytest.raises(ValueError):
                ctor(-0.5, domain_max)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_table(())

    def test_out_of_domain(self):
        f = CostFunction.linear(1, 2)
        with pytest.raises(ValueError):
            f(3)
        with pytest.raises(ValueError):
            f(-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN passes the order check; HiGHS would solve the game it makes
        with pytest.raises(ValueError, match="non-finite"):
            CostFunction.from_table([0, bad, 2])
        with pytest.raises(ValueError, match="non-finite"):
            CostFunction.linear(abs(bad), 2)

    def test_entries_beyond_float_range_allowed(self):
        f = CostFunction.from_table((0, 10**400, Fraction(10**400, 3) * 4))
        assert f(1) == 10**400

    def test_constant_nonzero_offset_allowed(self):
        # only monotonicity is required, f(0) may be positive
        f = CostFunction.from_table((2, 2, 3))
        assert f(0) == 2


class TestValuation:
    @pytest.mark.parametrize("a,b,expected", [(2, 0, 3), (0, 2, -3), (1, 1, 0)])
    def test_sign_form(self, a, b, expected):
        assert Valuation.sign_form(3, 2, 2).rows[a][b] == expected

    @pytest.mark.parametrize("weight", SIGN_WEIGHTS)
    def test_sign_form_table_matches_formula(self, weight):
        v = Valuation.sign_form(weight, 4, 3)
        assert len(v.rows) == 5 and all(len(row) == 4 for row in v.rows)
        for a in range(5):
            for b in range(4):
                expected = weight * ((a > b) - (a < b))
                assert type(v.rows[a][b]) is type(expected)
                assert repr(v.rows[a][b]) == repr(expected)

    def test_table(self):
        v = Valuation.from_table(((0, -1), (2, 0)))
        assert v.rows[1][0] == 2
        assert v.rows[0][1] == -1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Valuation.from_table(((0, 1), (bad, 0)))
        with pytest.raises(ValueError, match="non-finite"):
            Valuation.sign_form(bad, 1, 1)

    def test_entries_beyond_float_range_allowed(self):
        assert Valuation.sign_form(10**400, 1, 1).rows[1][0] == 10**400

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(1, 5))
    def test_sign_antisymmetry(self, a, b, w):
        v = Valuation.sign_form(w, 10, 10)
        assert v.rows[a][b] == -v.rows[b][a]


class TestCostBlottoGame:
    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            CostBlottoGame(
                n=1,
                budget_a=1,
                budget_b=1,
                valuations=(Valuation.sign_form(1, 1, 1),),
                assign_costs_a=(CostFunction.zero(1),),
                assign_costs_b=(CostFunction.zero(1),),
                obtain_cost_a=CostFunction.zero(1),
                obtain_cost_b=CostFunction.zero(1),
            )

    def test_cost_domain_mismatch_rejected(self, example_game):
        with pytest.raises(ValueError):
            CostBlottoGame(
                n=2,
                budget_a=2,
                budget_b=2,
                valuations=example_game.valuations,
                assign_costs_a=(CostFunction.zero(3), CostFunction.zero(2)),
                assign_costs_b=example_game.assign_costs_b,
                obtain_cost_a=example_game.obtain_cost_a,
                obtain_cost_b=example_game.obtain_cost_b,
            )

    def test_wrong_valuation_count_rejected(self, example_game):
        with pytest.raises(ValueError):
            CostBlottoGame(
                n=2,
                budget_a=2,
                budget_b=2,
                valuations=(Valuation.sign_form(1, 2, 2),),
                assign_costs_a=example_game.assign_costs_a,
                assign_costs_b=example_game.assign_costs_b,
                obtain_cost_a=example_game.obtain_cost_a,
                obtain_cost_b=example_game.obtain_cost_b,
            )

    def test_sign_table_for_other_budgets_rejected(self, example_game):
        with pytest.raises(ValueError, match=r"valuations\[1\] table is 4x3, expected 3x3"):
            dataclasses.replace(example_game, valuations=(
                Valuation.sign_form(1, 2, 2), Valuation.sign_form(1, 3, 2)))


class TestPayoffs:
    @pytest.mark.parametrize(
        "s_a,s_b,expected",
        [
            ((0, 0), (0, 0), (0, 0)),
            ((1, 1), (0, 0), (0, -2)),
            ((0, 2), (1, 0), (-2, -1)),
            ((0, 1), (0, 2), (-2, -1)),
            ((1, 0), (2, 0), (-2, -1)),
        ],
    )
    def test_example_entries(self, example_game, s_a, s_b, expected):
        assert payoff_costs(example_game, s_a, s_b) == expected

    @pytest.mark.parametrize(
        "s_a,s_b,expected",
        [((0, 0), (0, 0), 0), ((1, 1), (0, 1), 0), ((0, 2), (1, 0), -1)],
    )
    def test_payoff_zero_examples(self, example_game, s_a, s_b, expected):
        assert payoff_zero(example_game, s_a, s_b) == expected

    def test_budget_violation_names_strategy(self, example_game):
        with pytest.raises(InvalidStrategyError, match=r"\(2, 1\)"):
            payoff_costs(example_game, (2, 1), (0, 0))

    def test_wrong_length_rejected(self, example_game):
        with pytest.raises(InvalidStrategyError):
            payoff_costs(example_game, (1,), (0, 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_sum_identity(self, seed):
        # payoff_zero against an independent evaluation of both formulas
        rng = random.Random(seed)
        game = random_game(rng, exact=True)
        for _ in range(10):
            s_a = _random_partial(rng, game.budget_a, game.n)
            s_b = _random_partial(rng, game.budget_b, game.n)
            pay_a, pay_b = payoff_costs(game, s_a, s_b)
            costs_a = sum(game.assign_costs_a[i](s_a[i]) for i in range(game.n))
            costs_a += game.obtain_cost_a(sum(s_a))
            costs_b = sum(game.assign_costs_b[i](s_b[i]) for i in range(game.n))
            costs_b += game.obtain_cost_b(sum(s_b))
            value_a = payoff_zero(game, s_a, s_b)
            value_b = pay_b + costs_a
            assert value_a == pay_a + costs_b
            assert value_a + value_b == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_float_payoff_zero_is_shifted_payoff_costs(self, seed):
        # float rounding follows A's payoff with costs plus B's costs, in
        # order; non-dyadic costs make a reordered sum round differently
        rng = random.Random(400 + seed)
        game = random_game(rng)

        def cost(d):
            return CostFunction.from_table(sorted(rng.uniform(0, 3) for _ in range(d + 1)))

        game = dataclasses.replace(
            game,
            assign_costs_a=tuple(cost(game.budget_a) for _ in range(game.n)),
            assign_costs_b=tuple(cost(game.budget_b) for _ in range(game.n)),
            obtain_cost_a=cost(game.budget_a), obtain_cost_b=cost(game.budget_b))
        for s_a in enumerate_strategies(game.budget_a, game.n):
            for s_b in enumerate_strategies(game.budget_b, game.n):
                shifted = (payoff_costs(game, s_a, s_b)[0]
                           + sum(game.assign_costs_b[i](s_b[i]) for i in range(game.n))
                           + game.obtain_cost_b(sum(s_b)))
                value = payoff_zero(game, s_a, s_b)
                assert value == shifted and type(value) is type(shifted)

    @pytest.mark.parametrize("seed", range(10))
    def test_strategic_equivalence_differences(self, seed):
        # pi_0 and pi_$ differ by an opponent-only term, so their differences
        # across own strategies coincide
        rng = random.Random(100 + seed)
        game = random_game(rng, exact=True)
        s_b = _random_partial(rng, game.budget_b, game.n)
        strategies = enumerate_strategies(game.budget_a, game.n)
        for s, t in zip(strategies, strategies[1:]):
            diff_zero = payoff_zero(game, s, s_b) - payoff_zero(game, t, s_b)
            diff_costs = (payoff_costs(game, s, s_b)[0]
                          - payoff_costs(game, t, s_b)[0])
            assert diff_zero == diff_costs

    @pytest.mark.parametrize("seed", range(10))
    def test_swap_players_mirrors_payoffs(self, seed):
        rng = random.Random(200 + seed)
        game = random_game(rng, exact=True)
        swapped = swap_players(game)
        assert swapped.budget_a == game.budget_b
        for _ in range(10):
            s_a = _random_partial(rng, game.budget_a, game.n)
            s_b = _random_partial(rng, game.budget_b, game.n)
            pay_a, pay_b = payoff_costs(game, s_a, s_b)
            assert payoff_costs(swapped, s_b, s_a) == (pay_b, pay_a)
            assert payoff_zero(swapped, s_b, s_a) == -payoff_zero(game, s_a, s_b)

    @pytest.mark.parametrize("step", [0.1, 0.3])
    @pytest.mark.parametrize("weight", SIGN_WEIGHTS)
    def test_swap_players_mirrors_payoffs_decimal_steps(self, weight, step):
        rng = random.Random(300)
        for _ in range(5):
            game = decimal_step_game(rng, weight, step)
            swapped = swap_players(game)
            for _ in range(10):
                s_a = _random_partial(rng, game.budget_a, game.n)
                s_b = _random_partial(rng, game.budget_b, game.n)
                pay_a, pay_b = payoff_costs(game, s_a, s_b)
                assert payoff_costs(swapped, s_b, s_a) == (pay_b, pay_a)


class TestEnumerate:
    @pytest.mark.parametrize("d", range(9))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_partial_count(self, d, n):
        strategies = enumerate_strategies(d, n)
        assert len(strategies) == math.comb(d + n, n)
        assert len(set(strategies)) == len(strategies)

    @pytest.mark.parametrize("d", range(9))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_count(self, d, n):
        strategies = enumerate_strategies(d, n, full=True)
        assert len(strategies) == math.comb(d + n - 1, n - 1)
        assert all(sum(s) == d for s in strategies)

    def test_example_sets(self):
        assert set(enumerate_strategies(2, 2)) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)}
        assert set(enumerate_strategies(2, 2, full=True)) == {(0, 2), (1, 1), (2, 0)}
        assert enumerate_strategies(0, 3) == [(0, 0, 0)]

    def test_lexicographic_order(self):
        for d in range(7):
            for n in range(1, 5):
                for full in (False, True):
                    strategies = enumerate_strategies(d, n, full=full)
                    assert strategies == sorted(strategies)

    def test_cap(self):
        with pytest.raises(EnumerationCapError, match="oracle scale exceeded"):
            enumerate_strategies(100, 10, cap=1000)


class TestMixedStrategy:
    def test_point_mass(self):
        # the support holds strategies as tuples, whatever sequence came in
        xi = MixedStrategy(support=(([1, 1], 1),))
        assert xi.support == (((1, 1), 1),)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategy(support=(((0, 0), 0.5), ((1, 0), 0.4)))

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategy(support=(((0, 0), -0.5), ((1, 0), 1.5)))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategy(support=(((0, 0), 0.5), ((0, 0), 0.5)))

    def test_mix(self):
        xi = mix_strategies(point_mass((0, 0)), point_mass((1, 1)))
        assert dict(xi.support) == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}


def _random_partial(rng, budget, n):
    s = [0] * n
    for _ in range(rng.randint(0, budget)):
        s[rng.randrange(n)] += 1
    return tuple(s)
