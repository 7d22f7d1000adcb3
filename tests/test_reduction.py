import random
from fractions import Fraction

import numpy as np
import pytest

from costblotto import (
    InvalidStrategyError,
    Marginals,
    SunkCostGame,
    best_response_value,
    build_minimax_lp,
    build_sunk_cost,
    enumerate_strategies,
    map_strategy,
    payoff_zero,
    swap_players,
    unmap_strategy,
)
from costblotto.reduction import oriented_valuations
from conftest import (DECIMAL_INCREMENTS, SIGN_WEIGHTS, decimal_step_game, own_cost_rows,
                      random_game, sunk_payoff)


def field_payoff(sunk, i, a, b):
    """What battlefield ``i`` pays A, from the game's parts: the valuation,
    none where the table is ``None``, less A's own cost plus B's."""
    table = sunk.valuations[i]
    return (0 if table is None else table[a][b]) - sunk.costs_a[i][a] + sunk.costs_b[i][b]


def kind_game(rng, kind):
    """A random game with ``Fraction``, dyadic or decimal-step costs."""
    return random_game(rng, exact=kind == "fraction",
                       increments=DECIMAL_INCREMENTS if kind == "decimal" else None)


class TestBuildSunkCost:
    def test_extra_battlefield_table(self, example_game):
        sunk = build_sunk_cost(example_game)
        assert sunk.n_hat == 3
        # no valuation on the extra battlefield; it pays
        # -g_A(D_A - a) + g_B(D_B - b) with g(t) = t
        assert sunk.valuations[2] is None
        assert sunk.costs_a[2] == sunk.costs_b[2] == (2, 1, 0)
        for a in range(3):
            for b in range(3):
                assert -sunk.costs_a[2][a] + sunk.costs_b[2][b] == -(2 - a) + (2 - b)

    def test_original_battlefields_keep_sign_valuation(self, example_game):
        sunk = build_sunk_cost(example_game)
        for i in range(2):
            for a in range(3):
                for b in range(3):
                    assert sunk.valuations[i][a][b] == (a > b) - (a < b)

    @pytest.mark.parametrize("seed", range(10))
    def test_pointwise_formula(self, seed):
        # every battlefield pays its valuation less A's own cost plus B's
        rng = random.Random(seed)
        game = random_game(rng, exact=True)
        sunk = build_sunk_cost(game)
        for i in range(game.n):
            for a in range(game.budget_a + 1):
                for b in range(game.budget_b + 1):
                    expected = (game.valuations[i].rows[a][b]
                                - game.assign_costs_a[i](a)
                                + game.assign_costs_b[i](b))
                    assert field_payoff(sunk, i, a, b) == expected
        for a in range(game.budget_a + 1):
            for b in range(game.budget_b + 1):
                expected = (-game.obtain_cost_a(game.budget_a - a)
                            + game.obtain_cost_b(game.budget_b - b))
                assert field_payoff(sunk, game.n, a, b) == expected

    @pytest.mark.parametrize("kind", ["fraction", "dyadic", "decimal"])
    @pytest.mark.parametrize("seed", range(5))
    def test_cells_equal_cost_calls(self, seed, kind):
        # the parts are the game's own tables: valuations and cost rows equal
        # the valuation rows and the cost functions' values in type and in
        # every bit
        game = kind_game(random.Random(900 + seed), kind)
        sunk = build_sunk_cost(game)
        assert repr(sunk.valuations) == repr(
            tuple(v.rows for v in game.valuations) + (None,))
        assert repr(sunk.costs_a) == repr(own_cost_rows(game, "A"))
        assert repr(sunk.costs_b) == repr(own_cost_rows(game, "B"))

    @pytest.mark.parametrize("step", [0.1, 0.3])
    @pytest.mark.parametrize("weight", SIGN_WEIGHTS)
    def test_pointwise_formula_decimal_steps(self, weight, step):
        rng = random.Random(400)
        for _ in range(5):
            game = decimal_step_game(rng, weight, step)
            sunk = build_sunk_cost(game)
            sign = tuple(tuple(weight * ((a > b) - (a < b)) for b in range(game.budget_b + 1))
                         for a in range(game.budget_a + 1))
            assert repr(sunk.valuations) == repr((sign,) * game.n + (None,))
            assert repr(sunk.costs_a) == repr(own_cost_rows(game, "A"))
            assert repr(sunk.costs_b) == repr(own_cost_rows(game, "B"))

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_cost_game_degenerates(self, seed):
        rng = random.Random(50 + seed)
        game = random_game(rng, exact=True)
        zero_cost = type(game)(
            n=game.n,
            budget_a=game.budget_a,
            budget_b=game.budget_b,
            valuations=game.valuations,
            assign_costs_a=tuple(
                c.zero(game.budget_a) for c in game.assign_costs_a),
            assign_costs_b=tuple(
                c.zero(game.budget_b) for c in game.assign_costs_b),
            obtain_cost_a=game.obtain_cost_a.zero(game.budget_a),
            obtain_cost_b=game.obtain_cost_b.zero(game.budget_b),
        )
        sunk = build_sunk_cost(zero_cost)
        assert sunk.valuations == tuple(v.rows for v in game.valuations) + (None,)
        assert all(c == 0 for rows in (sunk.costs_a, sunk.costs_b) for row in rows for c in row)
        for s_a in enumerate_strategies(game.budget_a, sunk.n_hat, full=True)[:20]:
            for s_b in enumerate_strategies(game.budget_b, sunk.n_hat, full=True)[:20]:
                assert sunk_payoff(sunk, s_a, s_b) == sum(
                    v.rows[a][b] for v, a, b in zip(game.valuations, s_a, s_b))


class TestSunkCostGameParts:
    def test_parts_of_a_game(self, example_game):
        sunk = build_sunk_cost(example_game)
        assert sunk.valuations == tuple(v.rows for v in example_game.valuations) + (None,)
        # own costs: none for assigning, g(t) = t on the 2 - a obtained
        assert sunk.costs_a == sunk.costs_b == ((0, 0, 0), (0, 0, 0), (2, 1, 0))

    @pytest.mark.parametrize("fields, error", [
        ({"valuations": ((((0,),),)), "costs_a": ((0,),)}, TypeError),
        ({}, TypeError),
        ({"valuations": (None,), "costs_a": ((0, 0),), "costs_b": ((0,),)}, ValueError),
        ({"valuations": ((((0, 0),),)), "costs_a": ((0,),), "costs_b": ((0,),)}, ValueError),
        ({"valuations": (None, None), "costs_a": ((0,),), "costs_b": ((0,),)}, ValueError),
        ({"valuations": (None,), "costs_a": ((0,),), "costs_b": ((0,), (0,))}, ValueError),
    ], ids=["no-costs-b", "nothing", "row-too-long", "table-too-wide", "too-many-tables",
            "too-many-rows"])
    def test_malformed_rejected(self, fields, error):
        with pytest.raises(error):
            SunkCostGame(n_hat=1, budget_a=0, budget_b=0, **fields)


class TestStrategyMapping:
    @pytest.mark.parametrize(
        "s,expected", [((0, 1), (0, 1, 1)), ((0, 0), (0, 0, 2)), ((2, 0), (2, 0, 0))])
    def test_map_examples(self, s, expected):
        assert map_strategy(s, 2) == expected

    @pytest.mark.parametrize(
        "s_hat,expected", [((0, 1, 1), (0, 1)), ((0, 0, 2), (0, 0)), ((1, 1, 0), (1, 1))])
    def test_unmap_examples(self, s_hat, expected):
        assert unmap_strategy(s_hat, 2) == expected

    def test_map_rejects_overspend(self):
        with pytest.raises(InvalidStrategyError):
            map_strategy((2, 1), 2)

    def test_unmap_rejects_partial(self):
        with pytest.raises(InvalidStrategyError):
            unmap_strategy((0, 1, 0), budget=2)

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_bijection(self, d, n):
        partial = enumerate_strategies(d, n)
        mapped = [map_strategy(s, d) for s in partial]
        assert len(set(mapped)) == len(partial)
        assert set(mapped) == set(enumerate_strategies(d, n + 1, full=True))
        for s, s_hat in zip(partial, mapped):
            assert unmap_strategy(s_hat, budget=d) == s
            assert map_strategy(unmap_strategy(s_hat, budget=d), d) == s_hat


class TestPayoffPreservation:
    """Summed over the battlefields of a mapped profile, the parts pay A its
    zero-sum-companion payoff."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_small(self, seed):
        rng = random.Random(400 + seed)
        game = random_game(rng, n_max=3, d_max=4, exact=True)
        sunk = build_sunk_cost(game)
        for s_a in enumerate_strategies(game.budget_a, game.n):
            for s_b in enumerate_strategies(game.budget_b, game.n):
                m_a = map_strategy(s_a, game.budget_a)
                m_b = map_strategy(s_b, game.budget_b)
                assert sunk_payoff(sunk, m_a, m_b) == payoff_zero(game, s_a, s_b)

    def test_random_large_profiles(self):
        self._check_large_profiles(random.Random(977), increments=None)

    def test_random_large_profiles_decimal(self):
        self._check_large_profiles(random.Random(978), increments=DECIMAL_INCREMENTS)

    @staticmethod
    def _check_large_profiles(rng, increments):
        game = random_game(rng, n_max=5, d_max=12, increments=increments)
        sunk = build_sunk_cost(game)
        pool_a = enumerate_strategies(game.budget_a, game.n)
        pool_b = enumerate_strategies(game.budget_b, game.n)
        for _ in range(1000):
            s_a, s_b = rng.choice(pool_a), rng.choice(pool_b)
            m_a = map_strategy(s_a, game.budget_a)
            m_b = map_strategy(s_b, game.budget_b)
            assert abs(sunk_payoff(sunk, m_a, m_b) - payoff_zero(game, s_a, s_b)) <= 1e-12


class TestOrientedValuations:
    @pytest.mark.parametrize("seed", range(5))
    def test_b_side_negated_transpose(self, seed):
        rng = random.Random(500 + seed)
        sunk = build_sunk_cost(random_game(rng, exact=True))
        d_self, d_opp, tables, costs_self, costs_opp = oriented_valuations(sunk, "B")
        assert (d_self, d_opp) == (sunk.budget_b, sunk.budget_a)
        assert (costs_self, costs_opp) == (sunk.costs_b, sunk.costs_a)
        for table, mine in zip(tables, sunk.valuations):
            if mine is None:
                assert table is None
                continue
            for b in range(sunk.budget_b + 1):
                for a in range(sunk.budget_a + 1):
                    assert table[b][a] == -mine[a][b]

    def test_a_side_identity(self, example_game):
        sunk = build_sunk_cost(example_game)
        assert oriented_valuations(sunk, "A") == (
            2, 2, sunk.valuations, sunk.costs_a, sunk.costs_b)


class TestOrientationRule:
    """B's view of a game is A's view of the game with the players swapped,
    in the LP and in the best-response DP alike."""

    @pytest.mark.parametrize("kind", ["fraction", "dyadic", "decimal"])
    def test_b_lp_is_swapped_games_a_lp(self, kind):
        rng = random.Random(600)
        for _ in range(60):
            game = kind_game(rng, kind)
            mine = build_minimax_lp(build_sunk_cost(game), "B").program
            theirs = build_minimax_lp(build_sunk_cost(swap_players(game)), "A").program
            assert mine.sense == theirs.sense
            for field in ("objective", "row_lower", "row_upper", "lower", "upper"):
                assert np.array_equal(getattr(mine, field), getattr(theirs, field))
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mine.a, field), getattr(theirs.a, field))

    @pytest.mark.parametrize("kind", ["fraction", "dyadic", "decimal"])
    def test_b_best_response_is_swapped_games(self, kind):
        rng = random.Random(700)
        for _ in range(60):
            game = kind_game(rng, kind)
            draw = (lambda: Fraction(rng.randint(0, 4), 4)) if kind == "fraction" else rng.random
            rows = []
            for _ in range(game.n + 1):
                row = [draw() for _ in range(game.budget_a + 1)]
                row[rng.randrange(len(row))] += 1  # no empty row
                rows.append(tuple(p / sum(row) for p in row))
            m_a = Marginals(tables=tuple(rows))
            mine = best_response_value(build_sunk_cost(game), m_a, "B")
            theirs = best_response_value(build_sunk_cost(swap_players(game)), m_a, "A")
            assert repr(mine) == repr(theirs)
