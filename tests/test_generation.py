"""Edge generation (``strategy.solve_by_generation``), the path ``solve`` and
``oracle-diff`` take on games of ``cli.GENERATE_FROM_BATTLEFIELDS`` or more
battlefields."""

import json
import random

import numpy as np
import pytest
import scipy.sparse as sp

from costblotto import (build_minimax_lp, build_sunk_cost, certify_equilibrium, cli,
                        enumerate_strategies, solve, strategy)
from costblotto.cli import GENERATE_FROM_BATTLEFIELDS, main
from costblotto.config import parse_game_config, sweep_point_game
from costblotto.minimax import LayeredGraph, MinimaxLP, _assemble
from costblotto.solver import NUMERIC_FAILURE, ScipyHighsBackend, SolverFailureError
from costblotto.strategy import (GENERATION_GAP, Marginals, best_response_edges,
                                 best_response_value, marginals_from_flow, solve_by_generation)
from conftest import DECIMAL_INCREMENTS, random_game

KINDS = ["dyadic", "decimal", "fraction", "zero-budget"]


def generation_games(kind, count=5):
    """Random games of 5-7 battlefields and budgets 0-12, with sign and
    table valuations; "zero-budget" keeps only games with a zero budget on
    one side."""
    rng = random.Random(KINDS.index(kind) + 40)
    increments = DECIMAL_INCREMENTS if kind == "decimal" else None
    games = []
    while len(games) < count:
        game = random_game(rng, n_max=7, d_max=12, exact=kind == "fraction",
                           increments=increments, n_min=5)
        if kind != "zero-budget" or 0 in (game.budget_a, game.budget_b):
            games.append(game)
    return games


GAME_CONFIG = {
    "n": 5, "budget_A": 7, "budget_B": 6,
    "valuations": {"kind": "sign", "weight": 1},
    "assign_costs_A": {"kind": "quadratic", "coeff": 0.01},
    "assign_costs_B": {"kind": "quadratic", "coeff": 0.01},
    "obtain_cost_A": {"kind": "linear", "coeff": 0.05},
    "obtain_cost_B": {"kind": "linear", "coeff": 0.05},
}


@pytest.fixture
def large_config(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(GAME_CONFIG))
    return str(path)


class TestSolveGame:
    @pytest.mark.parametrize("kind", KINDS)
    def test_value_is_the_full_lps(self, kind):
        for game in generation_games(kind):
            assert game.n >= GENERATE_FROM_BATTLEFIELDS
            result, _, _ = cli._solve_game(build_sunk_cost(game))
            full = solve(build_minimax_lp(build_sunk_cost(game), "A"))
            assert abs(result.value - full.value) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_flows_decompose_and_certify(self, kind):
        for game in generation_games(kind):
            result, xi_a, xi_b = cli._solve_game(build_sunk_cost(game))
            is_eq, _, _ = certify_equilibrium(game, xi_a, xi_b)
            assert is_eq
            sunk = build_sunk_cost(game)
            gain_a, _ = best_response_value(sunk, marginals_from_flow(result.opponent_flow), "A")
            gain_b, _ = best_response_value(sunk, marginals_from_flow(result.flow), "B")
            assert gain_a - result.value <= GENERATION_GAP + 1e-12
            assert gain_b + result.value <= GENERATION_GAP + 1e-12

    def test_solution_records_the_rounds(self):
        game = generation_games("dyadic", 1)[0]
        result, _, _ = cli._solve_game(build_sunk_cost(game))
        assert result.solution.lp_solver == "simplex"
        assert result.solution.iterations > 0
        assert result.flow.graph.num_edges == build_minimax_lp(
            build_sunk_cost(game), "A").graph_self.num_edges


class TestHeldModel:
    def test_one_model_grows(self, monkeypatch):
        # every round after the first adds columns and rows to one model;
        # from the idle best responses alone, generation takes several rounds
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 0)
        calls = {"_build": 0, "_grow": 0}
        for name in calls:
            original = getattr(ScipyHighsBackend, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ScipyHighsBackend, name, counted)
        solve_by_generation(build_sunk_cost(generation_games("dyadic", 1)[0]),
                            ScipyHighsBackend())
        assert calls["_build"] == 1 and calls["_grow"] >= 1

    def test_programs_extend_each_other(self):
        # each placement appends columns and rows: the whole LP of the placed
        # edges starts with the one before it, unchanged, and the program
        # holds that LP's bounds and costs and only its entries beyond it
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        lp, rng = MinimaxLP(sunk), random.Random(5)
        assert lp.place(*_random_paths(lp, rng))
        before = _whole(lp)
        assert lp.program.base is None
        assert np.array_equal(_dense(lp.program), _dense(before))
        for _ in range(6):
            base = lp.program
            assert lp.place(*_random_paths(lp, rng))
            after = _whole(lp)
            assert lp.program.base is base
            rows, cols = before.a.shape
            assert np.array_equal(_dense(after)[:rows, :cols], _dense(before))
            for field, size in (("objective", cols), ("lower", cols), ("upper", cols),
                                ("row_lower", rows), ("row_upper", rows)):
                assert np.array_equal(getattr(after, field)[:size], getattr(before, field))
                assert np.array_equal(getattr(lp.program, field), getattr(after, field))
            added = _dense(after)
            added[:rows, :cols] = 0.0
            assert np.array_equal(_dense(lp.program), added)
            before = after

    def test_grown_model_is_the_program(self):
        # each round's warm answer is a cold solve's, and HiGHS holds the
        # whole LP of the placed edges, assembled cold
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        lp, rng = MinimaxLP(sunk), random.Random(6)
        backend = ScipyHighsBackend()
        for _ in range(5):
            lp.place(*_random_paths(lp, rng))
            warm = backend.solve(lp.program)
            whole = _whole(lp)
            cold = ScipyHighsBackend().solve(whole)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            model = backend._highs.getLp()
            expected = sp.csr_matrix(_dense(whole)).tocsc()
            matrix = model.a_matrix_
            assert (matrix.num_row_, matrix.num_col_) == whole.a.shape
            for got, want in ((matrix.start_, expected.indptr), (matrix.index_, expected.indices),
                              (matrix.value_, expected.data), (model.row_lower_, whole.row_lower),
                              (model.row_upper_, whole.row_upper), (model.col_lower_, whole.lower),
                              (model.col_upper_, whole.upper), (model.col_cost_, -whole.objective)):
                assert np.array_equal(np.asarray(got), want)

    def test_addition_to_a_model_not_held_is_refused(self, monkeypatch):
        # an addition is never built cold as if it were a whole LP
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        lp, rng = MinimaxLP(sunk), random.Random(7)
        lp.place(*_random_paths(lp, rng))
        backend = ScipyHighsBackend()
        assert backend.solve(lp.program).status == "optimal"
        assert backend.solve(build_minimax_lp(sunk, "A").program).status == "optimal"
        built = []
        original = ScipyHighsBackend._build
        monkeypatch.setattr(ScipyHighsBackend, "_build",
                            lambda self, program, *args: built.append(program)
                            or original(self, program, *args))
        assert lp.place(*_random_paths(lp, rng))
        refused = backend.solve(lp.program)
        assert refused.status == NUMERIC_FAILURE and refused.x is None
        assert "does not hold" in refused.message
        assert built == []
        # the backend builds the next whole LP cold
        assert backend.solve(_whole(lp)).status == "optimal"
        assert [program.base for program in built] == [None]

    def test_generation_on_a_model_not_held_fails(self, monkeypatch):
        # a backend that solves another LP after every round holds no
        # round's LP, so the next round's addition is refused; from the idle
        # best responses alone, generation takes more than one round
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 0)
        sunk = build_sunk_cost(generation_games("dyadic", 1)[0])
        other = build_minimax_lp(sunk, "B").program

        class Forgetful(ScipyHighsBackend):
            def solve(self, lp):
                sol = super().solve(lp)
                super().solve(other)
                return sol

        with pytest.raises(SolverFailureError, match="edge generation failed: numeric-failure"):
            solve_by_generation(sunk, Forgetful())

    def test_every_path_gives_the_full_lps_value(self):
        game = generation_games("dyadic", 1)[0]
        sunk = build_sunk_cost(game)
        lp = MinimaxLP(sunk)
        pools = [enumerate_strategies(d, sunk.n_hat, full=True)
                 for d in (sunk.budget_a, sunk.budget_b)]
        for k in range(max(map(len, pools))):
            lp.place(*(graph.path_edges(pool[k]) if k < len(pool) else np.array([], np.int64)
                       for graph, pool in zip((lp.graph_self, lp.graph_opp), pools)))
        # last-layer edges that miss the sink lie on no path and stay out
        cold = ScipyHighsBackend().solve(_whole(lp))
        assert cold.objective == pytest.approx(solve(build_minimax_lp(sunk, "A")).value,
                                               abs=1e-9)


def _random_paths(lp, rng):
    """The edges of a random full assignment of each player."""
    return [graph.path_edges(rng.choice(enumerate_strategies(graph.budget, graph.n_hat,
                                                             full=True)))
            for graph in (lp.graph_self, lp.graph_opp)]


def _whole(lp):
    """The whole LP of the edges ``lp`` has placed, assembled cold."""
    return _assemble(lp.layout, lp.graph_self, lp.graph_opp, lp._sunk, "A")


def _dense(program):
    a = program.a
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape).toarray()


class TestCommands:
    def test_player_b_writes_minus_a(self, large_config, tmp_path):
        values = {}
        for player in "AB":
            assert main(["solve", "--config", large_config, "--player", player,
                         "--out", str(tmp_path)]) == 0
            values[player] = json.loads(
                (tmp_path / f"solution_{player}.json").read_text())["value"]
        assert values["B"] == -values["A"]

    def test_solve_writes_nothing(self, large_config, tmp_path, capfd):
        assert main(["solve", "--config", large_config, "--player", "A",
                     "--out", str(tmp_path / "out")]) == 0
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("command", ["solve", "oracle-diff"])
    def test_stalled_oracle_solves_the_full_lp(self, command, large_config, tmp_path,
                                               monkeypatch):
        # a round adds no edge while a gap is open beyond round-off, so the
        # full LP answers
        _stall(monkeypatch)
        full_solves = []
        real_solve = strategy.solve
        monkeypatch.setattr(strategy, "solve",
                            lambda *args: full_solves.append(args) or real_solve(*args))
        out = tmp_path / "out"
        args = [command, "--config", large_config]
        if command == "solve":
            args += ["--player", "A", "--out", str(out)]
        assert main(args) == 0
        assert len(full_solves) == 1
        if command == "solve":
            game = cli.load_game(large_config)
            full = solve(build_minimax_lp(build_sunk_cost(game), "A"))
            value = json.loads((out / "solution_A.json").read_text())["value"]
            assert value == pytest.approx(full.value, abs=1e-9)

    @pytest.mark.parametrize("command", ["solve", "oracle-diff"])
    def test_stall_and_failed_full_lp_exit_3(self, command, large_config, tmp_path,
                                             monkeypatch, capsys):
        _stall(monkeypatch)

        def failed(*args):
            raise SolverFailureError("minimax solve failed: numeric-failure")

        monkeypatch.setattr(strategy, "solve", failed)
        out = tmp_path / "out"
        args = [command, "--config", large_config]
        if command == "solve":
            args += ["--player", "A", "--out", str(out)]
        assert main(args) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert "stalled" in err["error"]["message"]
        assert "numeric-failure" in err["error"]["message"]
        assert not out.exists()

    def test_small_game_one_lp_solve(self, tmp_path, monkeypatch):
        spec = dict(GAME_CONFIG, n=GENERATE_FROM_BATTLEFIELDS - 1)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(spec))
        calls = []
        original = ScipyHighsBackend.solve

        def counted(self, lp, *args, **kwargs):
            calls.append(lp)
            return original(self, lp, *args, **kwargs)

        monkeypatch.setattr(ScipyHighsBackend, "solve", counted)
        assert main(["solve", "--config", str(path), "--player", "A",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


def _stall(monkeypatch):
    """Make every best response after the first the first one's path."""
    real, first = strategy.best_response_value, {}

    def stalled(sunk, marginals, player):
        value, path = real(sunk, marginals, player)
        return value, first.setdefault(player, path)

    monkeypatch.setattr(strategy, "best_response_value", stalled)


W = 1e5
LARGE_PAYOFFS = {
    "n": 6, "budget_A": 20, "budget_B": 18,
    "valuations": [{"kind": "sign", "weight": W * (1 + i % 2)} for i in range(6)],
    "assign_costs_A": {"kind": "none"}, "assign_costs_B": {"kind": "none"},
    "obtain_cost_A": {"kind": "linear", "coeff": 0.05 * W},
    "obtain_cost_B": {"kind": "linear", "coeff": 0.05 * W}}


class TestLargePayoffs:
    def test_round_off_stall_returns_the_restricted_optimum(self):
        # payoffs near 1e5-1e6: the last rounds' gaps are round-off above
        # GENERATION_GAP with every best-response edge placed
        game = parse_game_config(LARGE_PAYOFFS)
        result, xi_a, xi_b = cli._solve_game(build_sunk_cost(game))
        full = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        assert result.value == pytest.approx(full.value, rel=1e-12)
        assert result.solution.lp_solver == "simplex"  # not the full LP's interior point
        assert certify_equilibrium(game, xi_a, xi_b)[0]

    def test_bounds_keep_stage_ones_flow_on_the_face(self, tmp_path, monkeypatch):
        # from 25 rounds of fictitious play, generation stops by the 1e-9
        # rule, and the DP's round-off at this payoff scale leaves edges of
        # stage one's flow beyond that gap of A's best response; stage one's
        # optimum is on the face all the same, so stage two stays feasible
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 25)
        sunk = build_sunk_cost(parse_game_config(LARGE_PAYOFFS))
        base, tolerance = strategy.generate_edges(
            build_minimax_lp(sunk, "A", *strategy.generation_start(sunk)), sunk,
            ScipyHighsBackend())
        dp_face = best_response_edges(sunk, marginals_from_flow(base.opponent_flow), "A",
                                      tolerance)
        assert tolerance == GENERATION_GAP and np.any((base.flow.edge_flow > 0) & ~dp_face)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(LARGE_PAYOFFS))
        out = tmp_path / "out"
        # exit 0: both witnesses passed the certificate
        assert main(["bounds", "--config", str(path), "--statistic", "resources",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "bounds_resources.json").read_text())
        assert payload["min"] == pytest.approx(20, abs=1e-6)
        assert payload["max"] == pytest.approx(20, abs=1e-6)


def _idle_response_edges(sunk):
    """The edges of A's best response to B idling, with every resource on
    the extra battlefield, and of B's to A idling."""
    edges = []
    for player, d_self, d_opp in (("A", sunk.budget_a, sunk.budget_b),
                                  ("B", sunk.budget_b, sunk.budget_a)):
        idle = [[1] + [0] * d_opp for _ in range(sunk.n_hat - 1)] + [[0] * d_opp + [1]]
        _, path = best_response_value(sunk, Marginals(tables=idle), player)
        edges.append(LayeredGraph(sunk.n_hat, d_self).path_edges(path))
    return edges


START_GAMES = [pytest.param(game, id=f"{kind}-{i}") for kind in KINDS
               for i, game in enumerate(generation_games(kind, 2))] + [
    pytest.param(sweep_point_game(4, 40, 40, c0_inv), id=f"figure-c0_inv={c0_inv:g}")
    for c0_inv in (2.5, 9.75)]


class TestStart:
    @pytest.mark.parametrize("game", START_GAMES)
    def test_no_rounds_is_the_idle_responses(self, game, monkeypatch):
        monkeypatch.setattr(strategy, "FICTITIOUS_PLAY_ROUNDS", 0)
        sunk = build_sunk_cost(game)
        for got, want in zip(strategy.generation_start(sunk), _idle_response_edges(sunk)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("game", START_GAMES)
    def test_start_holds_the_idle_responses_and_repeats(self, game):
        sunk = build_sunk_cost(game)
        start = strategy.generation_start(sunk)
        for edges, idle in zip(start, _idle_response_edges(sunk)):
            assert np.all(edges[:-1] < edges[1:])  # ascending, once each
            assert np.isin(idle, edges).all()
        again = strategy.generation_start(build_sunk_cost(game))
        assert all(np.array_equal(a, b) for a, b in zip(start, again))
