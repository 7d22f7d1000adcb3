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
from costblotto.config import parse_game_config
from costblotto.minimax import RestrictedMinimaxLP
from costblotto.solver import ScipyHighsBackend, SolverFailureError
from costblotto.strategy import (GENERATION_GAP, best_response_value, marginals_from_flow,
                                 solve_by_generation)
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
            result, _, _ = cli._solve_game(game)
            full = solve(build_minimax_lp(build_sunk_cost(game), "A"))
            assert abs(result.value - full.value) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_flows_decompose_and_certify(self, kind):
        for game in generation_games(kind):
            result, xi_a, xi_b = cli._solve_game(game)
            is_eq, _, _ = certify_equilibrium(game, xi_a, xi_b)
            assert is_eq
            sunk = build_sunk_cost(game)
            gain_a, _ = best_response_value(sunk, marginals_from_flow(result.opponent_flow), "A")
            gain_b, _ = best_response_value(sunk, marginals_from_flow(result.flow), "B")
            assert gain_a - result.value <= GENERATION_GAP + 1e-12
            assert gain_b + result.value <= GENERATION_GAP + 1e-12

    def test_solution_records_the_rounds(self):
        game = generation_games("dyadic", 1)[0]
        result, _, _ = cli._solve_game(game)
        assert result.solution.lp_solver == "simplex"
        assert result.solution.iterations > 0
        assert result.flow.graph.num_edges == build_minimax_lp(
            build_sunk_cost(game), "A").graph_self.num_edges


class TestHeldModel:
    def test_one_model_grows(self, monkeypatch):
        # every round after the first adds columns and rows to one model
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
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        lp = RestrictedMinimaxLP(sunk)
        rng = random.Random(5)
        pools = [enumerate_strategies(d, sunk.n_hat, full=True)
                 for d in (sunk.budget_a, sunk.budget_b)]
        assert lp.add_paths(*(rng.choice(pool) for pool in pools))
        for _ in range(6):
            before = lp.program
            assert lp.add_paths(*(rng.choice(pool) for pool in pools))
            after = lp.program
            rows, cols = before.a.shape
            assert np.array_equal(_dense(after)[:rows, :cols], _dense(before))
            for field in ("objective", "lower", "upper"):
                assert np.array_equal(getattr(after, field)[:cols], getattr(before, field))
            for field in ("row_lower", "row_upper"):
                assert np.array_equal(getattr(after, field)[:rows], getattr(before, field))

    def test_grown_model_is_the_program(self):
        # each round's warm answer is a cold solve's, and HiGHS holds the
        # program's matrix and bounds
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        lp = RestrictedMinimaxLP(sunk)
        rng = random.Random(6)
        pools = [enumerate_strategies(d, sunk.n_hat, full=True)
                 for d in (sunk.budget_a, sunk.budget_b)]
        backend, held = ScipyHighsBackend(), None
        for _ in range(5):
            lp.add_paths(*(rng.choice(pool) for pool in pools))
            warm = backend.solve(lp.program, extends=held)
            held = lp.program
            cold = ScipyHighsBackend().solve(held)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            model = backend._highs.getLp()
            expected = sp.csr_matrix(_dense(held)).tocsc()
            matrix = model.a_matrix_
            assert (matrix.num_row_, matrix.num_col_) == held.a.shape
            for got, want in ((matrix.start_, expected.indptr), (matrix.index_, expected.indices),
                              (matrix.value_, expected.data), (model.row_lower_, held.row_lower),
                              (model.row_upper_, held.row_upper), (model.col_lower_, held.lower),
                              (model.col_upper_, held.upper), (model.col_cost_, -held.objective)):
                assert np.array_equal(np.asarray(got), want)

    def test_program_that_does_not_extend_is_built_cold(self, monkeypatch):
        # the same paths placed in another order number the parts otherwise
        sunk = build_sunk_cost(generation_games("decimal", 1)[0])
        pools = [enumerate_strategies(d, sunk.n_hat, full=True)
                 for d in (sunk.budget_a, sunk.budget_b)]
        first, second = ([pool[k % len(pool)] for pool in pools] for k in (0, 1))
        held, other = RestrictedMinimaxLP(sunk), RestrictedMinimaxLP(sunk)
        held.add_paths(*first)
        other.add_paths(*second)
        other.add_paths(*first)
        backend = ScipyHighsBackend()
        backend.solve(held.program)
        grown = []
        original = ScipyHighsBackend._grow
        monkeypatch.setattr(ScipyHighsBackend, "_grow",
                            lambda self, *args: grown.append(args) or original(self, *args))
        warm = backend.solve(other.program, extends=held.program)
        cold = ScipyHighsBackend().solve(other.program)
        assert not grown
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_every_path_gives_the_full_lps_value(self):
        game = generation_games("dyadic", 1)[0]
        sunk = build_sunk_cost(game)
        lp = RestrictedMinimaxLP(sunk)
        pools = [enumerate_strategies(d, sunk.n_hat, full=True)
                 for d in (sunk.budget_a, sunk.budget_b)]
        for k in range(max(map(len, pools))):
            lp.add_paths(*(pool[k] if k < len(pool) else None for pool in pools))
        # last-layer edges that miss the sink lie on no path and stay out
        cold = ScipyHighsBackend().solve(lp.program)
        assert cold.objective == pytest.approx(solve(build_minimax_lp(sunk, "A")).value,
                                               abs=1e-9)


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


class TestLargePayoffs:
    def test_round_off_stall_returns_the_restricted_optimum(self):
        # payoffs near 1e5-1e6: the last rounds' gaps are round-off above
        # GENERATION_GAP with every best-response edge placed
        w = 1e5
        none = {"kind": "none"}
        game = parse_game_config({
            "n": 6, "budget_A": 20, "budget_B": 18,
            "valuations": [{"kind": "sign", "weight": w * (1 + i % 2)} for i in range(6)],
            "assign_costs_A": none, "assign_costs_B": none,
            "obtain_cost_A": {"kind": "linear", "coeff": 0.05 * w},
            "obtain_cost_B": {"kind": "linear", "coeff": 0.05 * w}})
        result, xi_a, xi_b = cli._solve_game(game)
        full = solve(build_minimax_lp(build_sunk_cost(game), "A"))
        assert result.value == pytest.approx(full.value, rel=1e-12)
        assert result.solution.lp_solver == "simplex"  # not the full LP's interior point
        assert certify_equilibrium(game, xi_a, xi_b)[0]
