import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from costblotto import (
    CostBlottoGame,
    CostFunction,
    InvalidFlowError,
    LayeredGraph,
    MixedStrategy,
    StrategyFlow,
    SunkCostGame,
    Valuation,
    build_minimax_lp,
    build_sunk_cost,
    certify_equilibrium,
    decompose_flow,
    equilibrium_statistic_bounds,
    expenditure_statistic,
    map_strategy,
    marginals_from_flow,
    matrix_game_solve,
    build_matrix,
    resource_statistic,
    solve,
    unmap_strategy,
)
from costblotto.cli import classify_hypothesis_case
from costblotto.config import sweep_point_game
from costblotto.minimax import _optimal_face, _statistic_objective
from costblotto.solver import get_backend
from costblotto.strategy import best_response_value
from conftest import DECIMAL_INCREMENTS, example_one, random_game
from scipy.optimize import linprog

S_STAR = {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestLayeredGraph:
    @pytest.mark.parametrize("n_hat", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [0, 1, 2, 4, 7])
    def test_edge_count_formula(self, n_hat, d):
        graph = LayeredGraph(n_hat, d)
        assert graph.num_edges == n_hat * (d + 1) * (d + 2) // 2
        assert graph.num_nodes == (n_hat + 1) * (d + 1)

    def test_source_sink(self):
        graph = LayeredGraph(3, 2)
        assert graph.source == graph.tail_nodes()[graph.edge_index(1, 0, 0)] == 0
        assert graph.sink == graph.head_nodes()[graph.edge_index(3, 0, 2)] == 11

    def test_edges_advance_one_layer(self):
        graph = LayeredGraph(3, 4)
        heads, tails = graph.head_nodes(), graph.tail_nodes()
        # one layer is d+1 node indices; the rest of the jump is the assignment
        assert np.all(heads - tails == (4 + 1) + graph.edge_assign)

    def test_edge_index_roundtrip(self):
        graph = LayeredGraph(3, 4)
        for e in range(graph.num_edges):
            field = int(graph.edge_field[e])
            cum = int(graph.edge_tail[e]) % 5
            assert graph.edge_index(field, cum, int(graph.edge_assign[e])) == e

    def test_path_edges(self):
        graph = LayeredGraph(3, 2)
        path = graph.path_edges((0, 1, 1))
        assert len(path) == 3
        assert [int(graph.edge_assign[e]) for e in path] == [0, 1, 1]

    def test_equality_by_shape(self):
        assert LayeredGraph(3, 2) == LayeredGraph(3, 2)
        assert LayeredGraph(3, 2) != LayeredGraph(2, 3)


class TestStrategyFlow:
    def test_point_mass_path(self):
        graph = LayeredGraph(3, 2)
        flow = StrategyFlow.from_mixed(graph, MixedStrategy.point_mass((0, 1, 1)))
        assert np.isclose(flow.edge_flow.sum(), 3.0)
        assert np.count_nonzero(flow.edge_flow) == 3

    def test_mixture_conserves(self):
        graph = LayeredGraph(3, 2)
        xi = MixedStrategy(support=(((0, 0, 2), 0.5), ((1, 1, 0), 0.5)))
        flow = StrategyFlow.from_mixed(graph, xi)
        assert np.allclose(flow.node_imbalance(), 0.0)

    def test_conservation_violation_detected(self):
        graph = LayeredGraph(3, 2)
        flow = StrategyFlow.from_mixed(graph, MixedStrategy.point_mass((0, 1, 1)))
        broken = flow.edge_flow.copy()
        broken[graph.edge_index(2, 0, 0)] += 0.25
        with pytest.raises(InvalidFlowError):
            StrategyFlow(graph=graph, edge_flow=broken)

    def test_negative_flow_detected(self):
        graph = LayeredGraph(2, 1)
        bad = np.zeros(graph.num_edges)
        bad[0] = -0.5
        with pytest.raises(InvalidFlowError):
            StrategyFlow(graph=graph, edge_flow=bad)

    def test_dust_zeroed_at_construction(self):
        graph = LayeredGraph(3, 2)
        path = StrategyFlow.from_mixed(graph, MixedStrategy.point_mass((0, 1, 1)))
        off_path = [graph.edge_index(1, 0, 2), graph.edge_index(2, 0, 0)]
        raw = path.edge_flow.copy()
        raw[off_path] = [-5e-8, 5e-10]
        flow = StrategyFlow(graph=graph, edge_flow=raw)
        assert flow.edge_flow[off_path].tolist() == [0.0, 0.0]
        raw[off_path[0]] = -5e-7
        with pytest.raises(InvalidFlowError):
            StrategyFlow(graph=graph, edge_flow=raw)


def expected_counts(n_hat, d_self, d_opp):
    edges = lambda d: n_hat * (d + 1) * (d + 2) // 2
    nodes = lambda d: (n_hat + 1) * (d + 1)
    num_vars = (edges(d_self) + n_hat * (d_self + 1) + n_hat * (d_opp + 1)
                + nodes(d_opp) + 1)
    num_constraints = (nodes(d_self) + n_hat * (d_self + 1)
                       + n_hat * (d_opp + 1) + edges(d_opp) + 1)
    return num_vars, num_constraints


class TestBuildMinimaxLp:
    def test_example_counts(self, example_game):
        model = build_minimax_lp(build_sunk_cost(example_game), "A")
        assert (model.num_vars, model.num_constraints) == (49, 49)

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_closed_form(self, seed):
        rng = random.Random(seed)
        game = random_game(rng)
        sunk = build_sunk_cost(game)
        for perspective, d_self, d_opp in (
            ("A", game.budget_a, game.budget_b),
            ("B", game.budget_b, game.budget_a),
        ):
            model = build_minimax_lp(sunk, perspective)
            assert ((model.num_vars, model.num_constraints)
                    == expected_counts(sunk.n_hat, d_self, d_opp))
            assert model.graph_self.budget == d_self
            assert model.graph_opp.budget == d_opp

    def test_objective_targets_value_variable(self, example_game):
        model = build_minimax_lp(build_sunk_cost(example_game), "A")
        obj = model.program.objective
        assert model.program.sense == "max"
        assert obj[model.value_index] == 1.0
        assert np.count_nonzero(obj) == 1

    def test_assembly_deterministic(self, example_game):
        sunk = build_sunk_cost(example_game)
        first = build_minimax_lp(sunk, "A").program
        second = build_minimax_lp(sunk, "A").program
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(first.a, field), getattr(second.a, field))
        assert np.array_equal(first.rhs, second.rhs)
        assert first.num_eq == second.num_eq


class TestSolve:
    def test_example_value(self, example_game):
        result = solve(build_minimax_lp(build_sunk_cost(example_game), "A"))
        assert result.status == "optimal"
        assert abs(result.value) <= 1e-8
        StrategyFlow(result.flow.graph, result.flow.edge_flow)

    def test_zero_game(self):
        sunk = SunkCostGame(
            n_hat=3,
            budget_a=2,
            budget_b=2,
            valuations_hat=tuple(((0,) * 3,) * 3 for _ in range(3)),
        )
        result = solve(build_minimax_lp(sunk, "A"))
        assert result.status == "optimal"
        assert abs(result.value) <= 1e-12

    def test_two_field_sign_game(self):
        sign_table = ((0, -1), (1, 0))
        zero_table = ((0, 0), (0, 0))
        sunk = SunkCostGame(
            n_hat=2, budget_a=1, budget_b=1,
            valuations_hat=(sign_table, zero_table))
        result = solve(build_minimax_lp(sunk, "A"))
        assert result.status == "optimal"
        assert abs(result.value) <= 1e-9

    def test_degenerate_zero_budget(self):
        rng = random.Random(42)
        while True:
            game = random_game(rng, d_max=0)
            if game.budget_a == 0 and game.budget_b == 0:
                break
        result = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        oracle_value, _, _ = matrix_game_solve(build_matrix(game))
        assert abs(result.value - float(oracle_value)) <= 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_oracle_equivalence(self, seed):
        rng = random.Random(1000 + seed)
        game = random_game(rng)
        result = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        assert result.status == "optimal"
        oracle_value, _, _ = matrix_game_solve(build_matrix(game))
        assert abs(result.value - float(oracle_value)) <= 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_perspective_symmetry(self, seed):
        rng = random.Random(2000 + seed)
        sunk = build_sunk_cost(random_game(rng))
        value_a = solve(build_minimax_lp(sunk, "A")).value
        value_b = solve(build_minimax_lp(sunk, "B")).value
        assert abs(value_a + value_b) <= 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_duality_certificate(self, seed):
        # opponent's exact best reply to the optimal marginals recovers -value
        rng = random.Random(3000 + seed)
        sunk = build_sunk_cost(random_game(rng))
        result = solve(build_minimax_lp(sunk, "A"))
        marginals = marginals_from_flow(result.flow)
        br_value, _ = best_response_value(sunk, marginals, "B")
        assert abs(br_value + result.value) <= 1e-6


def _strategy(flow, budget):
    """The unmapped mixed strategy a flow decomposes into."""
    return MixedStrategy(support=tuple(
        (unmap_strategy(s, budget), p) for s, p in decompose_flow(flow).support))


class TestOpponentFlow:
    """B's equilibrium read from the A-perspective LP's row duals, on games
    drawn as acceptance criterion 3 draws them (every fourth with D = 0)."""

    @pytest.mark.parametrize("seed", range(24))
    def test_dual_flow_is_b_equilibrium(self, seed):
        rng = random.Random(5000 + seed)
        game = random_game(rng, n_max=3, d_max=0 if seed % 4 == 0 else 5)
        sunk = build_sunk_cost(game)
        result = solve(build_minimax_lp(sunk, "A"))
        assert result.status == "optimal"
        StrategyFlow(result.opponent_flow.graph, result.opponent_flow.edge_flow)
        assert result.opponent_flow.graph == LayeredGraph(sunk.n_hat, game.budget_b)
        xi_a = _strategy(result.flow, game.budget_a)
        xi_b = _strategy(result.opponent_flow, game.budget_b)
        is_eq, gap_a, gap_b = certify_equilibrium(game, xi_a, xi_b)
        assert is_eq, (gap_a, gap_b)
        value_b = solve(build_minimax_lp(sunk, "B")).value
        assert abs(-result.value - value_b) <= 1e-7


class TestStatisticBounds:
    def test_example_resource_bounds(self, example_game):
        base, bounds = equilibrium_statistic_bounds(
            example_game, {"res": resource_statistic(example_game)})
        lo, w_min = bounds["res"]["min"]
        hi, w_max = bounds["res"]["max"]
        assert abs(base.value) <= 1e-8
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)
        for witness in (w_min, w_max):
            xi_hat = decompose_flow(witness.flow)
            xi = MixedStrategy(support=tuple(
                (unmap_strategy(s, 2), p) for s, p in xi_hat.support))
            assert set(xi.strategies()) <= S_STAR

    def test_witnesses_certify(self, example_game):
        base, bounds = equilibrium_statistic_bounds(
            example_game, {"res": resource_statistic(example_game)})
        xi_b = MixedStrategy.point_mass((1, 1))
        for direction in ("min", "max"):
            _, witness = bounds["res"][direction]
            xi_hat = decompose_flow(witness.flow)
            xi_a = MixedStrategy(support=tuple(
                (unmap_strategy(s, 2), p) for s, p in xi_hat.support))
            is_eq, gap_a, gap_b = certify_equilibrium(example_game, xi_a, xi_b)
            assert is_eq, (direction, gap_a, gap_b)

    @pytest.mark.parametrize("seed", range(6))
    def test_min_below_max(self, seed):
        rng = random.Random(4000 + seed)
        game = random_game(rng)
        _, bounds = equilibrium_statistic_bounds(
            game,
            {"res": resource_statistic(game), "exp": expenditure_statistic(game)},
        )
        for name in ("res", "exp"):
            assert bounds[name]["min"][0] <= bounds[name]["max"][0] + 1e-6

    def test_expenditure_scales_with_resources(self):
        # linear obtainment at c0 = 0.4 and no assignment costs
        game = CostBlottoGame(
            n=2,
            budget_a=6,
            budget_b=6,
            valuations=(Valuation.sign_form(1, 6, 6), Valuation.sign_form(1, 6, 6)),
            assign_costs_a=(CostFunction.zero(6), CostFunction.zero(6)),
            assign_costs_b=(CostFunction.zero(6), CostFunction.zero(6)),
            obtain_cost_a=CostFunction.linear(0.4, 6),
            obtain_cost_b=CostFunction.linear(0.4, 6),
        )
        _, bounds = equilibrium_statistic_bounds(
            game,
            {"res": resource_statistic(game), "exp": expenditure_statistic(game)},
        )
        for direction in ("min", "max"):
            res = bounds["res"][direction][0]
            exp = bounds["exp"][direction][0]
            assert abs(exp - 0.4 * res) <= 1e-9

    def test_only_stage_one_has_opponent_flow(self, example_game):
        # a face witness's duals price the statistic, so it carries no B flow
        base, bounds = equilibrium_statistic_bounds(
            example_game, {"res": resource_statistic(example_game)})
        StrategyFlow(base.opponent_flow.graph, base.opponent_flow.edge_flow)
        for direction in ("min", "max"):
            assert bounds["res"][direction][1].opponent_flow is None

    def test_pinning_preserves_value(self, example_game):
        base, bounds = equilibrium_statistic_bounds(
            example_game, {"res": resource_statistic(example_game)})
        for direction in ("min", "max"):
            _, witness = bounds["res"][direction]
            sunk = build_sunk_cost(example_game)
            marginals = marginals_from_flow(witness.flow)
            br_value, _ = best_response_value(sunk, marginals, "B")
            # every witness still guarantees the game value
            assert -br_value >= base.value - 2e-7

    def test_bad_statistic_shape_rejected(self, example_game):
        with pytest.raises(ValueError):
            equilibrium_statistic_bounds(example_game, {"bad": ((0.0, 0.0),)})

    @pytest.mark.parametrize("n,budget,c0_inv", [(2, 6, 2.5), (3, 10, 3.5)])
    def test_case_two_point_exact(self, n, budget, c0_inv):
        # the equilibrium resources are unique: min(D, n * floor(c0_inv))
        assert classify_hypothesis_case(n, budget, c0_inv) == 2
        game = sweep_point_game(n, budget, budget, c0_inv)
        _, bounds = equilibrium_statistic_bounds(
            game, {"res": resource_statistic(game)})
        expected = min(budget, n * int(c0_inv))
        for direction in ("min", "max"):
            assert abs(bounds["res"][direction][0] - expected) <= 1e-9


#: Largest gap allowed between a flow-LP bound and the matrix-game bound.
BOUNDS_ORACLE_TOL = 1e-6


def _matrix_game_bounds(game, statistic):
    """Min and max of ``statistic`` (per pure strategy of A) over A's
    equilibrium set {p in simplex : p'M >= v} of the explicit payoff matrix,
    by HiGHS simplex; shares no LP with the flow solver."""
    mg = build_matrix(game)
    value, _, _ = matrix_game_solve(mg)
    m = np.asarray(mg.payoffs, dtype=float)
    weights = np.array([float(statistic(s)) for s in mg.row_strategies])
    bounds = []
    for sign in (1.0, -1.0):
        res = linprog(sign * weights, A_ub=-m.T, b_ub=np.full(m.shape[1], -float(value)),
                      A_eq=np.ones((1, m.shape[0])), b_eq=[1.0], method="highs-ds")
        assert res.status == 0, res.message
        bounds.append(sign * res.fun)
    return tuple(bounds)


class TestBoundsOracle:
    """Equilibrium-statistic bounds against the matrix-game equilibrium set,
    on games drawn as acceptance criterion 3 draws them; every fourth has a
    zero budget on at least one side."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_matrix_game(self, seed):
        rng = random.Random(6000 + seed)
        game = random_game(rng)
        while seed % 4 == 0 and 0 not in (game.budget_a, game.budget_b):
            game = random_game(rng)
        _, bounds = equilibrium_statistic_bounds(
            game,
            {"res": resource_statistic(game), "exp": expenditure_statistic(game)},
        )

        def expenditure(s):
            return game.obtain_cost_a(sum(s)) + sum(
                cost(a) for cost, a in zip(game.assign_costs_a, s))

        oracle = {"res": _matrix_game_bounds(game, sum),
                  "exp": _matrix_game_bounds(game, expenditure)}
        for name, (lo, hi) in oracle.items():
            assert abs(bounds[name]["min"][0] - lo) <= BOUNDS_ORACLE_TOL, (name, lo)
            assert abs(bounds[name]["max"][0] - hi) <= BOUNDS_ORACLE_TOL, (name, hi)


def _cold_face_bounds(game, statistics):
    """Each bound that :func:`equilibrium_statistic_bounds` returns, from a
    cold solve of its face LP on a fresh backend."""
    model = build_minimax_lp(build_sunk_cost(game), "A")
    face = _optimal_face(model, solve(model).solution)
    bounds = {}
    for name, statistic in statistics.items():
        objective = _statistic_objective(model, statistic)
        bounds[name] = {
            direction: get_backend().solve(
                replace(face, sense=direction, objective=objective)).objective
            for direction in ("min", "max")}
    return bounds


class TestWarmFaceSolves:
    """Stage two re-solves the stage-one model the backend holds, from its
    basis; every bound must equal a cold solve of the same face LP."""

    @pytest.mark.parametrize("increments", [None, DECIMAL_INCREMENTS],
                             ids=["dyadic", "decimal"])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_solve(self, seed, increments):
        # drawn as acceptance criterion 3 draws its games
        game = random_game(random.Random(7000 + seed), n_max=3, d_max=5,
                           increments=increments)
        statistics = {"res": resource_statistic(game), "exp": expenditure_statistic(game)}
        _, warm = equilibrium_statistic_bounds(game, statistics)
        cold = _cold_face_bounds(game, statistics)
        for name in statistics:
            for direction in ("min", "max"):
                assert abs(warm[name][direction][0] - cold[name][direction]) \
                    <= BOUNDS_ORACLE_TOL, (name, direction)

    def test_expenditure_solves_start_optimal(self):
        # expenditure is c0 times resources here, so the resource solve of the
        # same direction leaves the held model at an optimal basis
        game = sweep_point_game(4, 12, 12, 2.5)
        _, bounds = equilibrium_statistic_bounds(
            game, {"resources": resource_statistic(game),
                   "expenditure": expenditure_statistic(game)})
        for direction in ("min", "max"):
            solution = bounds["expenditure"][direction][1].solution
            assert (solution.iterations, solution.crossover_iterations) == (0, 0)
