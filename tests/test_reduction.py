import random

import pytest

from costblotto import (
    InvalidStrategyError,
    SunkCostGame,
    build_sunk_cost,
    enumerate_strategies,
    map_strategy,
    payoff_zero,
    unmap_strategy,
)
from costblotto.reduction import oriented_valuations
from conftest import DECIMAL_INCREMENTS, SIGN_WEIGHTS, decimal_step_game, random_game


class TestBuildSunkCost:
    def test_extra_battlefield_table(self, example_game):
        sunk = build_sunk_cost(example_game)
        assert sunk.n_hat == 3
        # v_hat_{n+1}(a, b) = -g_A(D_A - a) + g_B(D_B - b) with g(t) = t
        assert sunk.valuations_hat[2][1][2] == -1
        for a in range(3):
            for b in range(3):
                assert sunk.valuations_hat[2][a][b] == -(2 - a) + (2 - b)

    def test_original_battlefields_keep_sign_valuation(self, example_game):
        sunk = build_sunk_cost(example_game)
        for i in range(2):
            for a in range(3):
                for b in range(3):
                    assert sunk.valuations_hat[i][a][b] == (a > b) - (a < b)

    @pytest.mark.parametrize("seed", range(10))
    def test_pointwise_formula(self, seed):
        rng = random.Random(seed)
        game = random_game(rng, exact=True)
        sunk = build_sunk_cost(game)
        for i in range(game.n):
            for a in range(game.budget_a + 1):
                for b in range(game.budget_b + 1):
                    expected = (game.valuations[i].rows[a][b]
                                - game.assign_costs_a[i](a)
                                + game.assign_costs_b[i](b))
                    assert sunk.valuations_hat[i][a][b] == expected
        for a in range(game.budget_a + 1):
            for b in range(game.budget_b + 1):
                expected = (-game.obtain_cost_a(game.budget_a - a)
                            + game.obtain_cost_b(game.budget_b - b))
                assert sunk.valuations_hat[game.n][a][b] == expected

    @pytest.mark.parametrize("kind", ["fraction", "dyadic", "decimal"])
    @pytest.mark.parametrize("seed", range(5))
    def test_cells_equal_cost_calls(self, seed, kind):
        # the fold reads the cost tables directly: every cell must equal the
        # formula through the cost functions in type and in every bit
        game = random_game(random.Random(900 + seed), exact=kind == "fraction",
                           increments=DECIMAL_INCREMENTS if kind == "decimal" else None)
        da, db = game.budget_a, game.budget_b
        tables = build_sunk_cost(game).valuations_hat
        for i in range(game.n):
            rows, ca, cb = game.valuations[i].rows, game.assign_costs_a[i], game.assign_costs_b[i]
            expected = [[rows[a][b] - ca(a) + cb(b) for b in range(db + 1)]
                        for a in range(da + 1)]
            assert repr(tables[i]) == repr(tuple(map(tuple, expected)))
        ga, gb = game.obtain_cost_a, game.obtain_cost_b
        expected = [[-ga(da - a) + gb(db - b) for b in range(db + 1)] for a in range(da + 1)]
        assert repr(tables[game.n]) == repr(tuple(map(tuple, expected)))

    @pytest.mark.parametrize("step", [0.1, 0.3])
    @pytest.mark.parametrize("weight", SIGN_WEIGHTS)
    def test_pointwise_formula_decimal_steps(self, weight, step):
        rng = random.Random(400)
        for _ in range(5):
            game = decimal_step_game(rng, weight, step)
            sunk = build_sunk_cost(game)
            for i in range(game.n):
                ca, cb = game.assign_costs_a[i], game.assign_costs_b[i]
                for a in range(game.budget_a + 1):
                    for b in range(game.budget_b + 1):
                        expected = weight * ((a > b) - (a < b)) - ca(a) + cb(b)
                        assert repr(sunk.valuations_hat[i][a][b]) == repr(expected)
            ga, gb = game.obtain_cost_a, game.obtain_cost_b
            for a in range(game.budget_a + 1):
                for b in range(game.budget_b + 1):
                    expected = -ga(game.budget_a - a) + gb(game.budget_b - b)
                    assert repr(sunk.valuations_hat[game.n][a][b]) == repr(expected)

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
        for i in range(game.n):
            for a in range(game.budget_a + 1):
                for b in range(game.budget_b + 1):
                    assert sunk.valuations_hat[i][a][b] == game.valuations[i].rows[a][b]
        assert all(
            x == 0 for row in sunk.valuations_hat[game.n] for x in row)


class TestSunkCostGameParts:
    def test_parts_of_a_game(self, example_game):
        sunk = build_sunk_cost(example_game)
        assert sunk.valuations == tuple(v.rows for v in example_game.valuations) + (None,)
        # own costs: none for assigning, g(t) = t on the 2 - a obtained
        assert sunk.costs_a == sunk.costs_b == ((0, 0, 0), (0, 0, 0), (2, 1, 0))

    def test_full_tables_alone_have_zero_costs(self):
        tables = (((0, -1), (1, 0)), ((2, 0), (0, 2)))
        sunk = SunkCostGame(n_hat=2, budget_a=1, budget_b=1, valuations_hat=tables)
        assert sunk.valuations == sunk.valuations_hat == tables
        assert sunk.costs_a == sunk.costs_b == ((0, 0), (0, 0))

    @pytest.mark.parametrize("fields", [
        {"valuations_hat": ((((0,),),)), "costs_a": ((0,),)},
        {"valuations": ((((0,),),)), "costs_a": ((0,),)},
        {"valuations_hat": (None,)},
        {},
        {"valuations": (None,), "costs_a": ((0, 0),), "costs_b": ((0,),)},
    ], ids=["both-forms", "no-costs-b", "hat-without-table", "nothing", "row-too-long"])
    def test_malformed_rejected(self, fields):
        with pytest.raises(ValueError):
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
    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_small(self, seed):
        rng = random.Random(400 + seed)
        game = random_game(rng, n_max=3, d_max=4, exact=True)
        sunk = build_sunk_cost(game)
        for s_a in enumerate_strategies(game.budget_a, game.n):
            for s_b in enumerate_strategies(game.budget_b, game.n):
                m_a = map_strategy(s_a, game.budget_a)
                m_b = map_strategy(s_b, game.budget_b)
                total = sum(
                    sunk.valuations_hat[i][m_a[i]][m_b[i]]
                    for i in range(sunk.n_hat))
                assert total == payoff_zero(game, s_a, s_b)

    def test_random_large_profiles(self):
        rng = random.Random(977)
        game = random_game(rng, n_max=5, d_max=12)
        sunk = build_sunk_cost(game)
        pool_a = enumerate_strategies(game.budget_a, game.n)
        pool_b = enumerate_strategies(game.budget_b, game.n)
        for _ in range(1000):
            s_a, s_b = rng.choice(pool_a), rng.choice(pool_b)
            m_a = map_strategy(s_a, game.budget_a)
            m_b = map_strategy(s_b, game.budget_b)
            total = sum(
                sunk.valuations_hat[i][m_a[i]][m_b[i]]
                for i in range(sunk.n_hat))
            assert abs(total - payoff_zero(game, s_a, s_b)) <= 1e-12


class TestOrientedValuations:
    @pytest.mark.parametrize("seed", range(5))
    def test_b_side_negated_transpose(self, seed):
        rng = random.Random(500 + seed)
        sunk = build_sunk_cost(random_game(rng, exact=True))
        d_self, d_opp, tables = oriented_valuations(sunk, "B")
        assert (d_self, d_opp) == (sunk.budget_b, sunk.budget_a)
        for i in range(sunk.n_hat):
            for b in range(sunk.budget_b + 1):
                for a in range(sunk.budget_a + 1):
                    assert tables[i][b][a] == -sunk.valuations_hat[i][a][b]

    def test_a_side_identity(self, example_game):
        sunk = build_sunk_cost(example_game)
        d_self, d_opp, tables = oriented_valuations(sunk, "A")
        assert (d_self, d_opp) == (2, 2)
        assert tables == sunk.valuations_hat
