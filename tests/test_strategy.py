import random
from fractions import Fraction

import numpy as np
import pytest

from costblotto import (
    InvalidFlowError,
    LayeredGraph,
    Marginals,
    MixedStrategy,
    StrategyFlow,
    SunkCostGame,
    best_response_value,
    build_minimax_lp,
    build_sunk_cost,
    certify_equilibrium,
    decompose_flow,
    enumerate_strategies,
    map_strategy,
    marginals_from_flow,
    marginals_from_mixed,
    mix_strategies,
    solve,
)
from conftest import flow_from_mixed, point_mass, random_game

S_STAR = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestMarginals:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            Marginals(tables=((0.5, 0.4),))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Marginals(tables=((-0.5, 1.5),))

    def test_dust_clamped_and_renormalized(self):
        m = Marginals(tables=((1.0 + 5e-8, -5e-9),))
        assert m.tables[0][1] == 0
        assert sum(m.tables[0]) == 1

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Marginals(tables=((1.0,), (0.5, 0.5)))

    def test_shape_properties(self):
        m = Marginals(tables=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        assert m.n_hat == 2
        assert m.budget == 2


class TestMarginalsFromFlow:
    def test_point_mass_path(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
        m = marginals_from_flow(flow)
        assert m.tables == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))

    def test_two_path_mixture(self):
        graph = LayeredGraph(3, 2)
        xi = MixedStrategy(support=(((0, 0, 2), 0.5), ((1, 1, 0), 0.5)))
        m = marginals_from_flow(flow_from_mixed(graph, xi))
        assert m.tables[0] == (0.5, 0.5, 0.0)
        assert m.tables[1] == (0.5, 0.5, 0.0)
        assert m.tables[2] == (0.5, 0.0, 0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_sum_to_one(self, seed):
        rng = random.Random(seed)
        game = random_game(rng)
        result = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        m = marginals_from_flow(result.flow)
        for row in m.tables:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_mixed_marginals(self):
        graph = LayeredGraph(3, 4)
        xi = MixedStrategy(
            support=(((0, 0, 4), 0.25), ((1, 2, 1), 0.25), ((4, 0, 0), 0.5)))
        from_flow = marginals_from_flow(flow_from_mixed(graph, xi))
        from_mixed = marginals_from_mixed(xi, 4)
        assert np.allclose(from_flow.tables, from_mixed.tables)


class TestDecomposeFlow:
    def test_point_mass(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
        xi = decompose_flow(flow)
        assert xi.support == (((0, 1, 1), 1.0),)

    def test_half_half(self):
        graph = LayeredGraph(3, 2)
        original = MixedStrategy(support=(((0, 0, 2), 0.5), ((1, 1, 0), 0.5)))
        xi = decompose_flow(flow_from_mixed(graph, original))
        assert dict(xi.support) == {(0, 0, 2): 0.5, (1, 1, 0): 0.5}

    @pytest.mark.parametrize("seed", range(10))
    def test_marginals_preserved(self, seed):
        rng = random.Random(1100 + seed)
        game = random_game(rng)
        result = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        xi = decompose_flow(result.flow)
        direct = marginals_from_flow(result.flow)
        via_mixed = marginals_from_mixed(xi, game.budget_a)
        assert np.max(np.abs(np.array(direct.tables)
                             - np.array(via_mixed.tables, dtype=float))) <= 1e-7
        assert len(xi.support) <= result.flow.graph.num_edges

    def test_invalid_flow_rejected(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
        broken = flow.edge_flow.copy()
        broken[graph.edge_index(2, 1, 1)] += 0.5
        with pytest.raises(InvalidFlowError):
            decompose_flow(StrategyFlow(graph=graph, edge_flow=broken))


def point_mass_marginals(s_hat, budget):
    return marginals_from_mixed(point_mass(s_hat), budget)


class TestBestResponse:
    def test_zero_game_tie_break(self):
        sunk = SunkCostGame(
            n_hat=3, budget_a=4, budget_b=2,
            valuations_hat=tuple(((0,) * 3,) * 5 for _ in range(3)))
        value, br = best_response_value(
            sunk, point_mass_marginals((0, 0, 2), 2), "A")
        assert value == 0
        assert br == (0, 0, 4)

    def test_example_vs_idle_opponent(self, example_game):
        sunk = build_sunk_cost(example_game)
        value, br = best_response_value(
            sunk, point_mass_marginals((0, 0, 2), 2), "A")
        assert value == 0

    def test_example_vs_uniform_equilibrium_mix(self, example_game):
        sunk = build_sunk_cost(example_game)
        mapped = MixedStrategy(support=tuple(
            (map_strategy(s, 2), Fraction(1, 4)) for s in S_STAR))
        value, _ = best_response_value(
            sunk, marginals_from_mixed(mapped, 2), "A")
        assert value == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_search(self, seed):
        rng = random.Random(1200 + seed)
        n_hat = rng.randint(2, 4)
        d_self = rng.randint(0, 6)
        d_opp = rng.randint(0, 4)
        tables = tuple(
            tuple(
                tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                      for _ in range(d_opp + 1))
                for _ in range(d_self + 1))
            for _ in range(n_hat))
        sunk = SunkCostGame(
            n_hat=n_hat, budget_a=d_self, budget_b=d_opp, valuations_hat=tables)
        pool = enumerate_strategies(d_opp, n_hat, full=True)
        support = rng.sample(pool, min(3, len(pool)))
        weights = [Fraction(rng.randint(1, 3)) for _ in support]
        total = sum(weights)
        opp = MixedStrategy(support=tuple(
            (s, w / total) for s, w in zip(support, weights)))
        opp_marginals = marginals_from_mixed(opp, d_opp)
        value, br = best_response_value(sunk, opp_marginals, "A")
        def reply_value(s):
            return sum(
                p * tables[i][s[i]][b]
                for i in range(n_hat)
                for b, p in enumerate(opp_marginals.tables[i]))
        best = max(
            reply_value(s) for s in enumerate_strategies(d_self, n_hat, full=True))
        assert value == best
        assert reply_value(br) == best

    @pytest.mark.parametrize("player", ["A", "B"])
    @pytest.mark.parametrize("seed", range(12))
    def test_lexicographically_smallest_maximizer(self, seed, player):
        # small integer payoffs and point-mass-heavy marginals make ties common
        rng = random.Random(1300 + seed)
        n_hat = 1 if seed < 2 else rng.randint(2, 4)
        d_a, d_b = rng.randint(0, 4), rng.randint(0, 4)
        tables = tuple(
            tuple(tuple(Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(d_b + 1))
                  for _ in range(d_a + 1))
            for _ in range(n_hat))
        sunk = SunkCostGame(n_hat=n_hat, budget_a=d_a, budget_b=d_b,
                            valuations_hat=tables)
        d_self, d_opp = (d_a, d_b) if player == "A" else (d_b, d_a)
        pool = enumerate_strategies(d_opp, n_hat, full=True)
        support = rng.sample(pool, min(rng.randint(1, 2), len(pool)))
        opp = MixedStrategy(support=tuple(
            (s, Fraction(1, len(support))) for s in support))
        opp_marginals = marginals_from_mixed(opp, d_opp)

        def reply_value(s):
            return sum(
                p * (tables[i][s[i]][b] if player == "A" else -tables[i][b][s[i]])
                for i in range(n_hat)
                for b, p in enumerate(opp_marginals.tables[i]))
        replies = enumerate_strategies(d_self, n_hat, full=True)
        best = max(reply_value(s) for s in replies)
        first = next(s for s in replies if reply_value(s) == best)
        assert best_response_value(sunk, opp_marginals, player) == (best, first)


class TestCertifyEquilibrium:
    @pytest.mark.parametrize("s_a", S_STAR)
    @pytest.mark.parametrize("s_b", S_STAR)
    def test_equilibrium_profiles(self, example_game, s_a, s_b):
        is_eq, gap_a, gap_b = certify_equilibrium(
            example_game,
            point_mass(s_a),
            point_mass(s_b))
        assert is_eq
        assert abs(gap_a) <= 1e-12 and abs(gap_b) <= 1e-12

    @pytest.mark.parametrize("s_a", [(0, 2), (2, 0)])
    def test_refuted_against_idle(self, example_game, s_a):
        is_eq, gap_a, _ = certify_equilibrium(
            example_game,
            point_mass(s_a),
            point_mass((0, 0)))
        assert not is_eq
        assert gap_a >= 1

    @pytest.mark.parametrize("s_a", [(0, 2), (2, 0)])
    @pytest.mark.parametrize("s_b", S_STAR)
    def test_refuted_against_every_equilibrium_reply(self, example_game, s_a, s_b):
        is_eq, gap_a, gap_b = certify_equilibrium(
            example_game,
            point_mass(s_a),
            point_mass(s_b))
        assert not is_eq
        assert max(gap_a, gap_b) >= 1

    def test_gap_side_can_flip(self, example_game):
        # (0,2) happens to be a best reply to (0,1); the profile still fails
        # on the opponent's side
        _, gap_a, gap_b = certify_equilibrium(
            example_game,
            point_mass((0, 2)),
            point_mass((0, 1)))
        assert abs(gap_a) <= 1e-12
        assert gap_b >= 1

    def test_mixture_of_equilibria_certifies(self, example_game):
        xi_a = mix_strategies(
            point_mass((0, 0)), point_mass((1, 1)))
        xi_b = mix_strategies(
            point_mass((0, 1)), point_mass((1, 0)))
        is_eq, _, _ = certify_equilibrium(example_game, xi_a, xi_b)
        assert is_eq

    def test_invalid_support_rejected(self, example_game):
        with pytest.raises(ValueError):
            certify_equilibrium(
                example_game,
                point_mass((2, 1)),
                point_mass((0, 0)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gaps_nonnegative(self, seed):
        rng = random.Random(1300 + seed)
        game = random_game(rng)
        pool_a = enumerate_strategies(game.budget_a, game.n)
        pool_b = enumerate_strategies(game.budget_b, game.n)
        _, gap_a, gap_b = certify_equilibrium(
            game,
            point_mass(rng.choice(pool_a)),
            point_mass(rng.choice(pool_b)))
        assert gap_a >= -1e-9
        assert gap_b >= -1e-9
