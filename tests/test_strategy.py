import random
from fractions import Fraction
from operator import add

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
    payoff_zero,
    solve,
)
from costblotto.reduction import oriented_valuations
from conftest import (DECIMAL_INCREMENTS, example_one, flow_from_mixed, point_mass, random_game,
                      sunk_payoff)

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

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_mass_rejected(self, entry):
        # a NaN row sum is neither off by more than the tolerance nor below 0
        with pytest.raises(ValueError, match="sums to"):
            Marginals(tables=((entry, 1.0),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="non-empty rows of equal length"):
            Marginals(tables=((1.0,), (0.5, 0.5)))

    @pytest.mark.parametrize("tables", [(0.5, 0.5), (), ((0.5, 0.5), 0.5)],
                             ids=["1-D", "empty", "row-and-number"])
    def test_rows_must_be_two_dimensional(self, tables):
        with pytest.raises(ValueError, match="non-empty rows of equal length"):
            Marginals(tables=tables)

    def test_shape_properties(self):
        m = Marginals(tables=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        assert m.n_hat == 2
        assert m.budget == 2

    def test_exact_rows_keep_their_types(self):
        m = marginals_from_mixed(point_mass((0, 0, 2)), 2)
        assert m.tables.dtype == object
        assert m.tables.tolist() == [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
        assert all(type(p) is int for p in m.tables.flat)
        third = Fraction(1, 3)
        assert Marginals(tables=((third, 0, 2 * third),)).tables.tolist() == [[third, 0, 2 * third]]

    def test_int64_rows_become_python_ints(self):
        m = Marginals(tables=np.eye(2, dtype=np.int64))
        assert m.tables.dtype == object
        assert all(type(p) is int for p in m.tables.flat)

    def test_any_float_makes_float64(self):
        m = Marginals(tables=((Fraction(1, 2), 0.5), (1, 0)))
        assert m.tables.dtype == np.float64
        assert m.tables.tolist() == [[0.5, 0.5], [1.0, 0.0]]

    def test_tables_read_only(self):
        given = np.array([[0.25, 0.75]])
        m = Marginals(tables=given)
        with pytest.raises(ValueError, match="read-only"):
            m.tables[0, 0] = 0.5
        given[0, 0] = 0.5  # the caller's array is copied, not frozen
        assert m.tables.tolist() == [[0.25, 0.75]]

    def test_inexact_rows_still_normalized(self):
        m = Marginals(tables=((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**9)),))
        assert sum(m.tables[0]) == 1 and all(type(p) is Fraction for p in m.tables[0])


class TestMarginalsFromFlow:
    def test_point_mass_path(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
        m = marginals_from_flow(flow)
        assert m.tables.dtype == np.float64
        assert m.tables.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]

    def test_two_path_mixture(self):
        graph = LayeredGraph(3, 2)
        xi = MixedStrategy(support=(((0, 0, 2), 0.5), ((1, 1, 0), 0.5)))
        m = marginals_from_flow(flow_from_mixed(graph, xi))
        assert m.tables.tolist() == [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]

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


def random_parts(rng, n_hat, d_a, d_b, value, cost):
    """A sunk-cost game of ``value()`` valuation cells and ``cost()`` own-cost
    entries for both players; with two or more battlefields, one has no
    valuation."""
    bare = rng.randrange(n_hat) if n_hat > 1 else None
    return SunkCostGame(
        n_hat=n_hat, budget_a=d_a, budget_b=d_b,
        valuations=tuple(
            None if i == bare
            else tuple(tuple(value() for _ in range(d_b + 1)) for _ in range(d_a + 1))
            for i in range(n_hat)),
        costs_a=tuple(tuple(cost() for _ in range(d_a + 1)) for _ in range(n_hat)),
        costs_b=tuple(tuple(cost() for _ in range(d_b + 1)) for _ in range(n_hat)))


def brute_force_reply(sunk, opp, player):
    """The best value and the first maximizing full assignment of ``player``
    against the mixed strategy ``opp``, over every reply in lexicographic
    order, each priced from the game's parts profile by profile."""
    def value(s):
        return sum(p * (sunk_payoff(sunk, s, s_o) if player == "A" else -sunk_payoff(sunk, s_o, s))
                   for s_o, p in opp.support)
    d_self = sunk.budget_a if player == "A" else sunk.budget_b
    replies = enumerate_strategies(d_self, sunk.n_hat, full=True)
    best = max(value(s) for s in replies)
    return best, next(s for s in replies if value(s) == best)


class TestBestResponse:
    def test_zero_game_tie_break(self):
        # no valuation moves A's payoff, and A's own cost is the same for
        # every assignment: all replies tie, and the smallest wins; B's own
        # costs of its point mass (0, 0, 2) shift the value only
        sunk = SunkCostGame(
            n_hat=3, budget_a=4, budget_b=2,
            valuations=(((0,) * 3,) * 5, ((0,) * 3,) * 5, None),
            costs_a=((Fraction(1, 2),) * 5, (0,) * 5, (Fraction(1, 4),) * 5),
            costs_b=((Fraction(1, 4), 0, 0), (Fraction(1, 8), 0, 0), (0, 1, 2)))
        value, br = best_response_value(
            sunk, point_mass_marginals((0, 0, 2), 2), "A")
        assert value == Fraction(1, 4) + Fraction(1, 8) + 2 - Fraction(1, 2) - Fraction(1, 4)
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
        d_a, d_b = rng.randint(0, 5), rng.randint(0, 5)
        sunk = random_parts(rng, n_hat, d_a, d_b,
                            lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                            lambda: Fraction(rng.randint(0, 6), rng.randint(1, 3)))
        for player, d_opp in (("A", d_b), ("B", d_a)):
            pool = enumerate_strategies(d_opp, n_hat, full=True)
            support = rng.sample(pool, min(3, len(pool)))
            weights = [Fraction(rng.randint(1, 3)) for _ in support]
            opp = MixedStrategy(support=tuple(
                (s, w / sum(weights)) for s, w in zip(support, weights)))
            assert (best_response_value(sunk, marginals_from_mixed(opp, d_opp), player)
                    == brute_force_reply(sunk, opp, player))

    @pytest.mark.parametrize("player", ["A", "B"])
    @pytest.mark.parametrize("seed", range(12))
    def test_lexicographically_smallest_maximizer(self, seed, player):
        # small payoffs and costs and point-mass-heavy opponents make ties
        # common
        rng = random.Random(1300 + seed)
        n_hat = 1 if seed < 2 else rng.randint(2, 4)
        d_a, d_b = rng.randint(0, 4), rng.randint(0, 4)
        sunk = random_parts(rng, n_hat, d_a, d_b,
                            lambda: Fraction(rng.choice((-1, 0, 0, 1))),
                            lambda: Fraction(rng.choice((0, 0, 1, 2)), 2))
        d_opp = d_b if player == "A" else d_a
        pool = enumerate_strategies(d_opp, n_hat, full=True)
        support = rng.sample(pool, min(rng.randint(1, 2), len(pool)))
        opp = MixedStrategy(support=tuple(
            (s, Fraction(1, len(support))) for s in support))
        assert (best_response_value(sunk, marginals_from_mixed(opp, d_opp), player)
                == brute_force_reply(sunk, opp, player))


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

    def test_exact_gaps_on_a_fraction_game(self):
        # int probabilities on a Fraction game keep every sum exact
        rng = random.Random(21)
        for _ in range(10):
            game = random_game(rng, exact=True)
            pool_a = enumerate_strategies(game.budget_a, game.n)
            pool_b = enumerate_strategies(game.budget_b, game.n)
            _, gap_a, gap_b = certify_equilibrium(
                game, point_mass(rng.choice(pool_a)), point_mass(rng.choice(pool_b)))
            assert type(gap_a) is Fraction and type(gap_b) is Fraction

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

    def test_realized_payoff_is_expected_payoff(self):
        # the payoff the gaps are measured from is A's expected companion
        # payoff over both supports, exactly on a Fraction game
        rng = random.Random(1400)
        game = random_game(rng, n_max=3, d_max=4, exact=True)
        xi_a, xi_b = (MixedStrategy(support=tuple(
            (s, Fraction(1, 3)) for s in rng.sample(enumerate_strategies(d, game.n), 3)))
            for d in (game.budget_a, game.budget_b))
        _, gap_a, gap_b = certify_equilibrium(game, xi_a, xi_b)
        expected = sum(p_a * p_b * payoff_zero(game, s_a, s_b)
                       for s_a, p_a in xi_a.support for s_b, p_b in xi_b.support)
        sunk = build_sunk_cost(game)
        marg_a, marg_b = mapped_marginals(game, xi_a, xi_b)
        br_a, _ = best_response_value(sunk, marg_b, "A")
        br_b, _ = best_response_value(sunk, marg_a, "B")
        assert br_a - gap_a == expected
        assert gap_b - br_b == expected

    @pytest.mark.parametrize("kind", ["dyadic", "decimal", "exact"])
    def test_gaps_from_the_shared_payoff(self, kind):
        # the realized payoff, read from the DP's rewards, is the term-by-term
        # expected payoff: exactly on exact games with Fraction
        # probabilities, and within 1e-12 in floats, which it sums in
        # another order
        rng = random.Random(1450)
        exact = kind == "exact"
        for _ in range(30):
            game = random_game(rng, exact=exact,
                               increments=DECIMAL_INCREMENTS if kind == "decimal" else None)
            xi_a, xi_b = (drawn_mixed(rng, game, d, exact) for d in (game.budget_a, game.budget_b))
            _, gap_a, gap_b = certify_equilibrium(game, xi_a, xi_b)
            sunk = build_sunk_cost(game)
            marg_a, marg_b = mapped_marginals(game, xi_a, xi_b)
            realized = reference_realized(sunk, marg_a, marg_b)
            want_a = best_response_value(sunk, marg_b, "A")[0] - realized
            want_b = best_response_value(sunk, marg_a, "B")[0] + realized
            if exact:
                assert (gap_a, gap_b) == (want_a, want_b)
                assert type(gap_a) is type(want_a) is Fraction
                assert type(gap_b) is type(want_b) is Fraction
            else:
                assert type(gap_a) is float and type(gap_b) is float
                assert abs(gap_a - want_a) <= 1e-12 and abs(gap_b - want_b) <= 1e-12


def mapped_marginals(game, xi_a, xi_b):
    """Both players' marginals over full assignments, as the certificate
    reads a profile of the original game."""
    return tuple(marginals_from_mixed(MixedStrategy(support=tuple(
        (map_strategy(s, d), p) for s, p in xi.support)), d)
        for xi, d in ((xi_a, game.budget_a), (xi_b, game.budget_b)))


def drawn_mixed(rng, game, budget, exact):
    """A mixed strategy over up to three assignments of ``budget``, with
    Fraction or float probabilities."""
    pool = enumerate_strategies(budget, game.n)
    support = rng.sample(pool, min(3, len(pool)))
    weights = [Fraction(rng.randint(1, 4)) if exact else rng.random() + 0.1 for _ in support]
    return MixedStrategy(support=tuple((s, w / sum(weights)) for s, w in zip(support, weights)))


def reference_best_response(sunk, opp_marginals, player):
    """The best-response dynamic program in plain Python over the parts as
    :func:`oriented_valuations` gives them, sum by sum: the form the
    package's numpy version is pinned to."""
    d_self, _, tables, costs_self, costs_opp = oriented_valuations(sunk, player)
    rows = opp_marginals.tables.tolist()
    rewards = [
        [-own[a] if table is None
         else sum(m_b * table[a][b] for b, m_b in enumerate(m)) - own[a]
         for a in range(d_self + 1)]
        for table, own, m in zip(tables, costs_self, rows)
    ]
    after = [[rewards[-1][d_self - j] for j in range(d_self + 1)]]
    for row in reversed(rewards[:-1]):
        after.append([max(map(add, row, after[-1][j:])) for j in range(d_self + 1)])
    after.reverse()
    assignment, j = [], 0
    for i in range(sunk.n_hat - 1):
        a = next(a for a in range(d_self - j + 1)
                 if rewards[i][a] + after[i + 1][j + a] == after[i][j])
        assignment.append(a)
        j += a
    assignment.append(d_self - j)
    return after[0][0] + expected_cost(costs_opp, rows), tuple(assignment)


def expected_cost(costs, rows):
    """A player's expected own cost over its per-battlefield marginal rows."""
    return sum(p * c for row, m in zip(costs, rows) for c, p in zip(row, m))


def reference_realized(sunk, marg_a, marg_b):
    """A's expected companion payoff of a profile given by both players'
    marginals, term by term: the expected valuation, bilinear in the
    marginals, less A's expected own cost, plus B's."""
    rows_a, rows_b = marg_a.tables.tolist(), marg_b.tables.tolist()
    return sum(
        p_a * p_b * table[a][b]
        for table, row_a, row_b in zip(sunk.valuations, rows_a, rows_b)
        if table is not None
        for a, p_a in enumerate(row_a) if p_a
        for b, p_b in enumerate(row_b) if p_b
    ) - expected_cost(sunk.costs_a, rows_a) + expected_cost(sunk.costs_b, rows_b)


def drawn_marginals(rng, n_hat, budget, draw):
    """Per battlefield: a point mass, a uniform row, or ``draw()`` weights."""
    rows = []
    for _ in range(n_hat):
        shape = rng.randrange(3)
        if shape == 0:
            row = [0] * (budget + 1)
            row[rng.randrange(budget + 1)] = 1
        elif shape == 1:
            row = [Fraction(1, budget + 1)] * (budget + 1)
        else:
            row = [draw() for _ in range(budget + 1)]
            row[rng.randrange(budget + 1)] += 1  # no empty row
            row = [p / sum(row) for p in row]
        rows.append(tuple(row))
    return Marginals(tables=tuple(rows))


class TestVectorizedDP:
    """The numpy dynamic program gives the plain-Python one's answers: the
    same values, types and assignments on exact games, ties included, the
    same floats on float games, and values within 1e-12 where Fractions and
    floats mix."""

    @pytest.mark.parametrize("player", ["A", "B"])
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_games(self, seed, player):
        rng = random.Random(1400 + seed)
        for _ in range(8):
            sunk = build_sunk_cost(random_game(rng, n_max=5, d_max=6, exact=True))
            d_opp = sunk.budget_b if player == "A" else sunk.budget_a
            m = drawn_marginals(rng, sunk.n_hat, d_opp,
                                lambda: Fraction(rng.randint(0, 3), rng.randint(1, 3)))
            mine = best_response_value(sunk, m, player)
            theirs = reference_best_response(sunk, m, player)
            assert mine == theirs and type(mine[0]) is type(theirs[0])

    @pytest.mark.parametrize("player", ["A", "B"])
    @pytest.mark.parametrize("increments", [None, DECIMAL_INCREMENTS], ids=["dyadic", "decimal"])
    def test_float_games(self, increments, player):
        # float marginals give the same floats, summed in the same order;
        # exact marginals, which the plain-Python DP multiplies partly
        # exactly on a float game, agree within 1e-12
        rng = random.Random(1500)
        for _ in range(40):
            sunk = build_sunk_cost(random_game(rng, n_max=6, d_max=10, increments=increments))
            d_opp = sunk.budget_b if player == "A" else sunk.budget_a
            mixed = drawn_marginals(rng, sunk.n_hat, d_opp, rng.random)
            floats = Marginals(tables=mixed.tables.astype(float))
            mine = best_response_value(sunk, floats, player)
            assert repr(mine) == repr(reference_best_response(sunk, floats, player))
            exact = Marginals(tables=[list(map(Fraction, row)) for row in floats.tables.tolist()])
            assert exact.tables.dtype == object
            (mine, _), (theirs, _) = (best_response_value(sunk, exact, player),
                                      reference_best_response(sunk, exact, player))
            assert type(mine) is float and abs(mine - theirs) <= 1e-12

    def test_point_mass_is_exact(self):
        # int probabilities keep an int game's value an int and a Fraction
        # game's a Fraction
        sunk = build_sunk_cost(example_one())
        value, _ = best_response_value(sunk, point_mass_marginals((1, 0, 1), 2), "B")
        assert type(value) is int
        game = random_game(random.Random(4), exact=True)
        value, _ = best_response_value(
            build_sunk_cost(game),
            point_mass_marginals((0,) * game.n + (game.budget_b,), game.budget_b), "A")
        assert type(value) is Fraction
