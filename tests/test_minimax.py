import random
from pathlib import Path
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

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
    enumerate_strategies,
    equilibrium_statistic_bounds,
    expenditure_statistic,
    map_strategy,
    marginals_from_flow,
    matrix_game_solve,
    build_matrix,
    resource_statistic,
    solve,
    strategy,
    unmap_strategy,
)
from costblotto.cli import classify_hypothesis_case
from costblotto.config import load_game, load_sweep_spec, parse_game_config, sweep_point_game
from costblotto.minimax import MinimaxLP, _statistic_objective
from costblotto.solver import CsrMatrix, get_backend
from costblotto.strategy import (GENERATION_GAP, best_response_edges, best_response_value,
                                 generation_start, stall_tolerance)
from conftest import (DECIMAL_INCREMENTS, example_one, flow_from_mixed, full_lp_face_bounds,
                      own_cost_rows, path_edges, point_mass, random_game, strategies)
from scipy.optimize import linprog

S_STAR = {(0, 0), (0, 1), (1, 0), (1, 1)}

REPO = Path(__file__).resolve().parent.parent


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
        path = path_edges(graph, (0, 1, 1))
        assert len(path) == 3
        assert [int(graph.edge_assign[e]) for e in path] == [0, 1, 1]

    def test_path_edges_method(self):
        # the package's path_edges is the edge_index walk, and its edges
        # chain from the source to the sink
        rng = random.Random(3)
        for _ in range(200):
            graph = LayeredGraph(rng.randint(1, 6), rng.randint(0, 8))
            cuts = sorted(rng.randint(0, graph.budget) for _ in range(graph.n_hat - 1))
            assignment = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [graph.budget]))
            path = graph.path_edges(assignment).tolist()
            assert path == path_edges(graph, assignment)
            tails, heads = graph.tail_nodes()[path], graph.head_nodes()[path]
            assert tails[0] == graph.source and heads[-1] == graph.sink
            assert np.array_equal(tails[1:], heads[:-1])

    def test_equality_by_shape(self):
        assert LayeredGraph(3, 2) == LayeredGraph(3, 2)
        assert LayeredGraph(3, 2) != LayeredGraph(2, 3)


class TestStrategyFlow:
    def test_point_mass_path(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
        assert np.isclose(flow.edge_flow.sum(), 3.0)
        assert np.count_nonzero(flow.edge_flow) == 3

    def test_mixture_conserves(self):
        graph = LayeredGraph(3, 2)
        xi = MixedStrategy(support=(((0, 0, 2), 0.5), ((1, 1, 0), 0.5)))
        flow = flow_from_mixed(graph, xi)
        assert np.allclose(flow.node_imbalance(), 0.0)

    def test_conservation_violation_detected(self):
        graph = LayeredGraph(3, 2)
        flow = flow_from_mixed(graph, point_mass((0, 1, 1)))
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
        path = flow_from_mixed(graph, point_mass((0, 1, 1)))
        off_path = [graph.edge_index(1, 0, 2), graph.edge_index(2, 0, 0)]
        raw = path.edge_flow.copy()
        raw[off_path] = [-5e-8, 5e-10]
        flow = StrategyFlow(graph=graph, edge_flow=raw)
        assert flow.edge_flow[off_path].tolist() == [0.0, 0.0]
        raw[off_path[0]] = -5e-7
        with pytest.raises(InvalidFlowError):
            StrategyFlow(graph=graph, edge_flow=raw)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_flow_rejected(self, entry):
        # a NaN passes every comparison the other checks make
        graph = LayeredGraph(2, 1)
        raw = flow_from_mixed(graph, point_mass((0, 1))).edge_flow.copy()
        raw[graph.edge_index(1, 0, 1)] = entry
        with pytest.raises(InvalidFlowError, match="not finite"):
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
        # A's only cost is obtainment g(t) = t, on the 2 - a it obtains when
        # it leaves a unspent: the LP maximizes t - E[g]
        model = build_minimax_lp(build_sunk_cost(example_game), "A")
        obj = model.program.objective
        assert model.program.sense == "max"
        assert obj[model.layout.value_col] == 1.0
        assert obj[model.layout.marginal_col].tolist() == [0, 0, 0, 0, 0, 0, -2, -1, 0]
        assert np.count_nonzero(obj) == 3

    @pytest.mark.parametrize("family", ["sweep", "solve-pair-ladder-small", "criterion-3",
                                        "criterion-3-decimal"])
    def test_objective_is_value_less_own_costs(self, family):
        for game in _games(family):
            for perspective in "AB":
                model = build_minimax_lp(build_sunk_cost(game), perspective)
                own = own_cost_rows(game, perspective)
                expected = np.zeros(model.num_vars)
                expected[model.layout.marginal_col] = [-float(c) for row in own for c in row]
                expected[model.layout.value_col] = 1.0
                assert np.array_equal(model.program.objective, expected)

    @pytest.mark.parametrize("perspective", "AB")
    def test_costs_leave_the_matrix_alone(self, perspective):
        # a player's costs move the objective when it is the perspective
        # player, the opponent-potential rows' bounds when it is the opponent
        base = sweep_point_game(3, 8, 7, 1.5)
        programs = {"none": base}
        for who, d in (("a", 8), ("b", 7)):
            programs[who.upper()] = replace(base, **{
                f"assign_costs_{who}": tuple(CostFunction.quadratic(0.25, d) for _ in range(3)),
                f"obtain_cost_{who}": CostFunction.linear(0.5, d)})
        programs = {who: build_minimax_lp(build_sunk_cost(game), perspective).program
                    for who, game in programs.items()}
        plain = programs.pop("none")
        for who, program in programs.items():
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(program.a, field), getattr(plain.a, field))
            assert np.array_equal(program.row_lower, plain.row_lower)
            own = who == perspective
            assert np.array_equal(program.objective, plain.objective) != own
            assert np.array_equal(program.row_upper, plain.row_upper) == own

    def test_assembly_deterministic(self, example_game):
        sunk = build_sunk_cost(example_game)
        first = build_minimax_lp(sunk, "A").program
        second = build_minimax_lp(sunk, "A").program
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(first.a, field), getattr(second.a, field))
        assert np.array_equal(first.row_lower, second.row_lower)
        assert np.array_equal(first.row_upper, second.row_upper)

    @pytest.mark.parametrize("perspective", "AB")
    @pytest.mark.parametrize("budgets", [(8, 5), (3, 7), (0, 4)])
    def test_numbering_other_code_reads(self, perspective, budgets):
        # the face reference and the opponent-flow readback take the flow
        # columns and then the potential rows and the value row as leading,
        # and the value column as last
        model = build_minimax_lp(build_sunk_cost(sweep_point_game(3, *budgets, 2.5)),
                                 perspective)
        lay, program = model.layout, model.program
        own, opp = model.graph_self.num_edges, model.graph_opp.num_edges
        assert model.graph_self.budget != model.graph_opp.budget
        assert np.array_equal(lay.flow_col, np.arange(own))
        assert np.array_equal(lay.potential_row, np.arange(opp))
        assert lay.value_row == opp
        assert lay.value_col == model.num_vars - 1
        assert program.objective[-1] == 1.0 and program.row_lower[opp] == -np.inf
        assert program.base is None


def _ladder_game(rng, setting, n, d_a, d_b):
    """A solve-pair benchmark game: sign valuations of weight 1 or 2, with
    linear obtainment costs or quadratic assignment costs."""
    spec = {"n": n, "budget_A": d_a, "budget_B": d_b,
            "valuations": [{"kind": "sign", "weight": rng.randint(1, 2)} for _ in range(n)]}
    none = {"kind": "none"}
    if setting == "linear":
        spec.update(assign_costs_A=none, assign_costs_B=none,
                    obtain_cost_A={"kind": "linear", "coeff": 0.05},
                    obtain_cost_B={"kind": "linear", "coeff": 0.05})
    else:
        spec.update(assign_costs_A={"kind": "quadratic", "coeff": 0.01},
                    assign_costs_B={"kind": "quadratic", "coeff": 0.01},
                    obtain_cost_A=none, obtain_cost_B=none)
    return parse_game_config(spec)


#: (setting, n, D_A, D_B) of the solve-pair benchmark's ops.
SOLVE_PAIR_LADDER = (("linear", 3, 40, 38), ("linear", 4, 30, 30), ("linear", 6, 20, 22),
                     ("quadratic", 6, 30, 30), ("quadratic", 8, 20, 22),
                     ("quadratic", 10, 20, 20))


def _games(family):
    """The games of one family, drawn alike on every call."""
    if family == "sweep":
        return [sweep_point_game(*point) for point in
                ((2, 4, 4, 1), (3, 6, 5, 2.5), (4, 12, 10, 9.75), (4, 10, 12, 6))]
    if family.startswith("solve-pair-ladder"):
        rng = random.Random(7)
        ops = SOLVE_PAIR_LADDER if family == "solve-pair-ladder" else (
            ("linear", 2, 4, 3), ("quadratic", 3, 3, 3), ("linear", 3, 12, 10),
            ("quadratic", 4, 9, 8))
        return [_ladder_game(rng, *op) for op in ops]
    # acceptance criterion 3's draws, with dyadic or decimal cost steps
    rng = random.Random(3)
    increments = DECIMAL_INCREMENTS if family == "criterion-3-decimal" else None
    return [random_game(rng, n_max=3, d_max=5, increments=increments) for _ in range(20)]


class TestAssembledMatrix:
    """The constraint matrix is the CSR matrix scipy builds from the same
    triplets with its zeros eliminated, and HiGHS holds it column-wise with
    the LP's row bounds."""

    @staticmethod
    def _assemble(monkeypatch, game, perspective):
        """The minimax LP and scipy's CSR matrix of the triplets it compressed."""
        seen = []
        compress = CsrMatrix.from_triplets

        def spy(shape, row, col, value):
            seen.append(sp.coo_matrix((value, (row, col)), shape=shape).tocsr())
            return compress(shape, row, col, value)

        monkeypatch.setattr(CsrMatrix, "from_triplets", spy)
        model = build_minimax_lp(build_sunk_cost(game), perspective)
        monkeypatch.undo()
        (ref,) = seen
        ref.eliminate_zeros()
        return model.program, ref

    @pytest.mark.parametrize("family", ["sweep", "solve-pair-ladder", "criterion-3",
                                        "criterion-3-decimal"])
    def test_csr_arrays_are_scipys(self, monkeypatch, family):
        for game in _games(family):
            for perspective in "AB":
                program, ref = self._assemble(monkeypatch, game, perspective)
                assert program.a.shape == ref.shape and program.a.nnz == ref.nnz
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(program.a, field), getattr(ref, field))

    @pytest.mark.parametrize("family", ["sweep", "solve-pair-ladder-small", "criterion-3",
                                        "criterion-3-decimal"])
    def test_held_model_is_the_lps(self, family):
        for game in _games(family):
            for perspective in "AB":
                model = build_minimax_lp(build_sunk_cost(game), perspective)
                program = model.program
                # the <= rows lead: one per opponent edge, then the value row
                assert np.array_equal(np.flatnonzero(program.row_lower == -np.inf),
                                      np.arange(model.graph_opp.num_edges + 1))
                backend = get_backend()
                assert backend.solve(program).status == "optimal"
                held = backend._highs.getLp()
                a = program.a
                expected = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape).tocsc()
                matrix = held.a_matrix_
                assert (matrix.num_row_, matrix.num_col_) == expected.shape
                for got, want in ((matrix.start_, expected.indptr),
                                  (matrix.index_, expected.indices),
                                  (matrix.value_, expected.data),
                                  (held.row_lower_, program.row_lower),
                                  (held.row_upper_, program.row_upper)):
                    assert np.array_equal(np.asarray(got), want)

    @pytest.mark.parametrize("family", ["sweep", "solve-pair-ladder", "criterion-3",
                                        "criterion-3-decimal"])
    def test_no_stored_coefficient_is_zero(self, family):
        for game in _games(family):
            for perspective in "AB":
                a = build_minimax_lp(build_sunk_cost(game), perspective).program.a
                assert a.nnz == len(a.data) and np.all(a.data != 0.0)

    def test_sweep_lp_nonzeros(self):
        # 32,966 triplets; the 164 zeros are the 41 cells a == b of each of
        # the four battlefields' sign valuations: the unspent-resources
        # battlefield has no valuation, so its payoff rows store no table
        a = build_minimax_lp(build_sunk_cost(sweep_point_game(4, 40, 40, 9.75)), "A").program.a
        assert a.shape == (4962, 4962) and a.nnz == 32802


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
            valuations=(((0,) * 3,) * 3, ((0,) * 3,) * 3, None),
            costs_a=((0,) * 3,) * 3,
            costs_b=((0,) * 3,) * 3,
        )
        result = solve(build_minimax_lp(sunk, "A"))
        assert result.status == "optimal"
        assert abs(result.value) <= 1e-12

    def test_two_field_sign_game(self):
        sign_table = ((0, -1), (1, 0))
        zero_table = ((0, 0), (0, 0))
        sunk = SunkCostGame(
            n_hat=2, budget_a=1, budget_b=1,
            valuations=(sign_table, zero_table), costs_a=((0, 0),) * 2, costs_b=((0, 0),) * 2)
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

    # dyadic costs keep their plain seed ids; decimal costs sum inexactly
    @pytest.mark.parametrize(
        "seed, increments",
        [(seed, None) for seed in range(12)]
        + [(seed, DECIMAL_INCREMENTS) for seed in range(12)],
        ids=[str(seed) for seed in range(12)] + [f"decimal-{seed}" for seed in range(12)])
    def test_oracle_equivalence(self, seed, increments):
        rng = random.Random(1000 + seed)
        game = random_game(rng, increments=increments)
        result = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        assert result.status == "optimal"
        oracle_value, _, _ = matrix_game_solve(build_matrix(game))
        assert abs(result.value - float(oracle_value)) <= 1e-6
        is_eq, _, _ = certify_equilibrium(game, _strategy(result.flow, game.budget_a),
                                          _strategy(result.opponent_flow, game.budget_b))
        assert is_eq

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
            assert set(strategies(xi)) <= S_STAR

    def test_witnesses_certify(self, example_game):
        base, bounds = equilibrium_statistic_bounds(
            example_game, {"res": resource_statistic(example_game)})
        xi_b = point_mass((1, 1))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_statistic_rejected(self, example_game, bad):
        # HiGHS answers a NaN objective coefficient as optimal, with a NaN optimum
        statistic = [list(row) for row in resource_statistic(example_game)]
        statistic[0][1] = bad
        with pytest.raises(ValueError, match="finite"):
            equilibrium_statistic_bounds(example_game, {"bad": statistic})

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


class TestWarmFaceSolves:
    """Stage two re-solves the restricted model the backend holds, from its
    basis, over the face the dynamic program reads; every bound must equal
    the full LP's face as HiGHS's reduced costs give it, after a cold solve
    of the full LP."""

    @pytest.mark.parametrize("increments", [None, DECIMAL_INCREMENTS],
                             ids=["dyadic", "decimal"])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_solve(self, seed, increments):
        # drawn as acceptance criterion 3 draws its games
        game = random_game(random.Random(7000 + seed), n_max=3, d_max=5,
                           increments=increments)
        statistics = {"res": resource_statistic(game), "exp": expenditure_statistic(game)}
        _, warm = equilibrium_statistic_bounds(game, statistics)
        cold = full_lp_face_bounds(game, statistics)
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


def _both_statistics(game):
    return {"resources": resource_statistic(game), "expenditure": expenditure_statistic(game)}


class TestAgainstFullLpFace:
    """Bounds by edge generation over the face the dynamic program reads,
    against the full LP's face as HiGHS's reduced costs give it, on the
    paper's figure grid and the shipped configs."""

    @staticmethod
    def _check(game):
        statistics = _both_statistics(game)
        _, bounds = equilibrium_statistic_bounds(game, statistics)
        reference = full_lp_face_bounds(game, statistics)
        for name in statistics:
            for direction in ("min", "max"):
                assert abs(bounds[name][direction][0] - reference[name][direction]) \
                    <= BOUNDS_ORACLE_TOL, (name, direction)

    @pytest.mark.parametrize("point", load_sweep_spec(REPO / "configs" / "sweep_figure.json")
                             .points(), ids=lambda point: f"c0_inv={point[3]:g}")
    def test_figure_point(self, point):
        self._check(sweep_point_game(*point))

    @pytest.mark.parametrize("name", ["example_small", "linear_obtainment",
                                      "quadratic_assignment"])
    def test_config(self, name):
        self._check(load_game(REPO / "configs" / f"{name}.json"))


class TestDynamicProgramFace:
    @pytest.mark.parametrize("point", [(4, 40, 40, 4.0), (4, 40, 40, 9.75), (3, 12, 10, 3.25),
                                       (2, 6, 6, 1.5)])
    def test_stage_one_flow_lies_on_the_face(self, point):
        game = sweep_point_game(*point)
        base, _ = equilibrium_statistic_bounds(game, {"res": resource_statistic(game)})
        assert base.face_edges.shape == base.flow.edge_flow.shape
        assert np.all(base.face_edges[base.flow.edge_flow > 0])
        assert not np.all(base.face_edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_face_edges_lie_on_near_best_paths(self, seed):
        # against enumeration: an edge is on the face exactly when some full
        # assignment through it earns within the tolerance of the best one
        game = random_game(random.Random(8000 + seed), n_max=3, d_max=4)
        sunk = build_sunk_cost(game)
        result = solve(build_minimax_lp(sunk, "A"))
        marginals = marginals_from_flow(result.opponent_flow)
        graph = result.flow.graph
        paths = enumerate_strategies(graph.budget, graph.n_hat, full=True)
        payoffs = [best_response_value(sunk, marginals, "A")[0] - _payoff_against(
            sunk, marginals, s) for s in paths]
        for tolerance in (1e-9, 0.3):
            expected = np.zeros(graph.num_edges, dtype=bool)
            for s, gap in zip(paths, payoffs):
                if gap <= tolerance:
                    expected[graph.path_edges(s)] = True
            got = best_response_edges(sunk, marginals, "A", tolerance)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("c0_inv", [4.0, 7.25])
    def test_stage_two_adds_b_rows(self, c0_inv, monkeypatch):
        # the held model has only the B rows generation placed; at these
        # points some witness is beaten by a B path off them until its rows
        # are placed, and every witness ends within GENERATION_GAP of the value;
        # generation starts from the idle best responses alone
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 0)
        face_read, rows_added = [], []
        real_edges, real_place = strategy.best_response_edges, MinimaxLP.place

        def edges(*args):
            face_read.append(True)
            return real_edges(*args)

        def place(self, own_edges, opp_edges):
            added = real_place(self, own_edges, opp_edges)
            if face_read and own_edges.size == 0 and added:
                rows_added.append(opp_edges)
            return added

        monkeypatch.setattr(strategy, "best_response_edges", edges)
        monkeypatch.setattr(MinimaxLP, "place", place)
        game = sweep_point_game(4, 40, 40, c0_inv)
        base, bounds = equilibrium_statistic_bounds(game, _both_statistics(game))
        assert rows_added
        sunk = build_sunk_cost(game)
        for name in bounds:
            for direction in ("min", "max"):
                witness = bounds[name][direction][1]
                gain_b, _ = best_response_value(sunk, marginals_from_flow(witness.flow), "B")
                assert gain_b + base.value <= GENERATION_GAP, (name, direction)

    def test_stall_takes_the_face_tolerance_from_generation(self, monkeypatch):
        # the round-off stall game of test_generation.TestLargePayoffs: its
        # generation from the idle best responses alone ends by the stall
        # rule, so the face reads that rule's gap
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 0)
        w = 1e5
        none = {"kind": "none"}
        game = parse_game_config({
            "n": 6, "budget_A": 20, "budget_B": 18,
            "valuations": [{"kind": "sign", "weight": w * (1 + i % 2)} for i in range(6)],
            "assign_costs_A": none, "assign_costs_B": none,
            "obtain_cost_A": {"kind": "linear", "coeff": 0.05 * w},
            "obtain_cost_B": {"kind": "linear", "coeff": 0.05 * w}})
        tolerances = []
        real_edges = strategy.best_response_edges

        def edges(sunk, marginals, player, tolerance):
            tolerances.append(tolerance)
            return real_edges(sunk, marginals, player, tolerance)

        monkeypatch.setattr(strategy, "best_response_edges", edges)
        base, bounds = equilibrium_statistic_bounds(game, {"res": resource_statistic(game)})
        sunk = build_sunk_cost(game)
        assert tolerances == [stall_tolerance(sunk)] and tolerances[0] > GENERATION_GAP
        assert np.all(base.face_edges[base.flow.edge_flow > 0])
        assert bounds["res"]["min"][0] <= bounds["res"]["max"][0] + 1e-6
        xi_b = MixedStrategy(support=tuple(
            (unmap_strategy(s, game.budget_b), p)
            for s, p in decompose_flow(base.opponent_flow).support))
        for direction in ("min", "max"):
            xi_a = MixedStrategy(support=tuple(
                (unmap_strategy(s, game.budget_a), p)
                for s, p in decompose_flow(bounds["res"][direction][1].flow).support))
            assert certify_equilibrium(game, xi_a, xi_b)[0], direction


def _payoff_against(sunk, marginals, s):
    """A's payoff of the full assignment ``s`` against B's marginals."""
    total = 0.0
    for i, (table, costs_a, costs_b, row) in enumerate(
            zip(sunk.valuations, sunk.costs_a, sunk.costs_b, marginals.tables)):
        total += sum(p * ((0 if table is None else table[s[i]][b]) + costs_b[b])
                     for b, p in enumerate(row)) - costs_a[s[i]]
    return total


class TestStatisticObjective:
    def test_restricted_model_weights_only_its_marginals(self):
        # unplaced marginals have no column; their weights must not land in
        # another column, such as the value column, which is last
        game = sweep_point_game(3, 6, 5, 2.5)
        sunk = build_sunk_cost(game)
        model = build_minimax_lp(sunk, "A", *generation_start(sunk))
        lay = model.layout
        assert np.any(lay.marginal_col < 0)
        statistic = resource_statistic(game)
        objective = _statistic_objective(model, statistic)
        weights = np.array([x for row in statistic for x in row])
        placed = lay.marginal_col >= 0
        expected = np.zeros(model.num_vars)
        expected[lay.marginal_col[placed]] = weights[placed]
        assert np.array_equal(objective, expected)
        assert objective[lay.value_col] == 0.0
        full = build_minimax_lp(sunk, "A")
        assert np.array_equal(_statistic_objective(full, statistic)[full.layout.marginal_col],
                              weights)
