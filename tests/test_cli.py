import csv
import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from costblotto import (cli, load_game, build_minimax_lp, build_sunk_cost,
                        equilibrium_statistic_bounds, minimax, oracle, resource_statistic, solve,
                        strategy)
from costblotto.cli import (
    SWEEP_CSV_HEADER,
    _fmt,
    classify_hypothesis_case,
    main,
)
from costblotto.config import parse_sweep_spec, sweep_point_game
from costblotto.solver import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    BackendSolution,
    SIMPLEX_BELOW_COLUMNS,
    ScipyHighsBackend,
    SolverFailureError,
    get_backend,
)
from costblotto.strategy import CERTIFICATE_EPS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

S_STAR = {(0, 0), (0, 1), (1, 0), (1, 1)}

EXAMPLE_CONFIG = {
    "n": 2,
    "budget_A": 2,
    "budget_B": 2,
    "valuations": {"kind": "sign", "weight": 1},
    "assign_costs_A": {"kind": "none"},
    "assign_costs_B": {"kind": "none"},
    "obtain_cost_A": {"kind": "linear", "coeff": 1},
    "obtain_cost_B": {"kind": "linear", "coeff": 1},
}

SMALL_SWEEP = {
    "n": {"min": 2, "max": 2},
    "budget_A": {"min": 2, "max": 2},
    "budget_B": {"min": 2, "max": 2},
    "c0_inv": {"min": 1, "max": 1, "interval": 1},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(EXAMPLE_CONFIG))
    return str(path)


def _write_spec(tmp_path, spec, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


class TestFmt:
    def test_negative_zero_folded(self):
        assert _fmt(-0.0) == "0"

    def test_plain(self):
        assert _fmt(0.25) == "0.25"
        assert _fmt(36) == "36"


class TestSolve:
    def test_writes_solution(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", config_path,
                     "--player", "A", "--out", str(out)]) == 0
        payload = json.loads((out / "solution_A.json").read_text())
        assert payload["player"] == "A"
        assert abs(payload["value"]) <= 1e-8
        cert = payload["certificate"]
        assert cert["is_equilibrium"] is True
        assert cert["gap_A"] <= 1e-7 and cert["gap_B"] <= 1e-7
        support = payload["strategy"]["support"]
        assert abs(sum(e["probability"] for e in support) - 1) <= 1e-9
        assert all(tuple(e["assignment"]) in S_STAR for e in support)
        assert len(payload["marginals"]) == 2
        for row in payload["marginals"]:
            assert len(row) == 3
            assert abs(sum(row) - 1) <= 1e-9
        obtained = payload["resources_obtained"]
        assert len(obtained) == 3
        assert abs(sum(obtained) - 1) <= 1e-9

    def test_player_b(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", config_path,
                     "--player", "B", "--out", str(out)]) == 0
        payload = json.loads((out / "solution_B.json").read_text())
        assert payload["player"] == "B"
        assert abs(payload["value"]) <= 1e-8
        assert payload["certificate"]["is_equilibrium"] is True
        assert all(tuple(e["assignment"]) in S_STAR
                   for e in payload["strategy"]["support"])

    def test_player_b_unequal_budgets(self, tmp_path):
        # B's strategy, marginals and value come from the A LP's duals
        path = tmp_path / "unequal.json"
        path.write_text(json.dumps(dict(EXAMPLE_CONFIG, budget_B=3)))
        payloads = {}
        for player in ("A", "B"):
            out = tmp_path / player
            assert main(["solve", "--config", str(path),
                         "--player", player, "--out", str(out)]) == 0
            payloads[player] = json.loads((out / f"solution_{player}.json").read_text())
        b = payloads["B"]
        assert b["value"] == pytest.approx(-payloads["A"]["value"], abs=1e-12)
        assert all(len(row) == 4 for row in b["marginals"])
        assert len(b["resources_obtained"]) == 4
        assert all(sum(e["assignment"]) <= 3 for e in b["strategy"]["support"])
        assert b["certificate"] == payloads["A"]["certificate"]


class TestBounds:
    def test_resources(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--config", config_path,
                     "--statistic", "resources", "--out", str(out)]) == 0
        payload = json.loads((out / "bounds_resources.json").read_text())
        assert payload["min"] == pytest.approx(0, abs=1e-6)
        assert payload["max"] == pytest.approx(2, abs=1e-6)
        for key in ("witness_min", "witness_max"):
            assert all(tuple(e["assignment"]) in S_STAR
                       for e in payload[key]["support"])

    def test_records_certificates_and_face(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--config", config_path,
                     "--statistic", "resources", "--out", str(out)]) == 0
        payload = json.loads((out / "bounds_resources.json").read_text())
        for direction in ("min", "max"):
            cert = payload[f"certificate_{direction}"]
            assert cert["eps"] == CERTIFICATE_EPS
            assert 0 <= cert["gap_A"] <= CERTIFICATE_EPS
            assert 0 <= cert["gap_B"] <= CERTIFICATE_EPS
        face = payload["face"]
        assert isinstance(face["fixed_columns"], int) and face["fixed_columns"] > 0
        # at least B's support rows and the value row are tight
        assert isinstance(face["tight_rows"], int) and face["tight_rows"] >= 2

    @pytest.mark.parametrize("name, face", [
        ("example_small", {"fixed_columns": 9, "tight_rows": 4}),
        ("linear_obtainment", {"fixed_columns": 3380, "tight_rows": 144}),
        ("quadratic_assignment", {"fixed_columns": 3769, "tight_rows": 72}),
    ])
    def test_records_the_dp_face(self, name, face, tmp_path):
        # fixed_columns counts A's edges off the face that the dynamic program
        # reads, tight_rows B's support rows and the value row
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", str(CONFIGS / f"{name}.json"),
                     "--statistic", "resources", "--out", str(out)]) == 0
        assert json.loads((out / "bounds_resources.json").read_text())["face"] == face

    def test_expenditure_equals_resources_here(self, config_path, tmp_path):
        # unit obtainment cost and free assignment: spend == obtain
        out = tmp_path / "out"
        assert main(["bounds", "--config", config_path,
                     "--statistic", "expenditure", "--out", str(out)]) == 0
        payload = json.loads((out / "bounds_expenditure.json").read_text())
        assert payload["min"] == pytest.approx(0, abs=1e-6)
        assert payload["max"] == pytest.approx(2, abs=1e-6)


class TestSweep:
    def test_single_point(self, tmp_path):
        spec = _write_spec(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--jobs", "1"]) == 0
        text = (out / "sweep.csv").read_text().splitlines()
        assert text[0] == SWEEP_CSV_HEADER
        rows = list(csv.DictReader(text))
        assert len(rows) == 1
        row = rows[0]
        assert row["error"] == ""
        assert (row["n"], row["D_A"], row["D_B"]) == ("2", "2", "2")
        assert float(row["min_resources"]) == pytest.approx(0, abs=1e-6)
        assert float(row["max_resources"]) == pytest.approx(2, abs=1e-6)
        assert float(row["value"]) == pytest.approx(0, abs=1e-6)
        int(row["solve_ms"])  # integer milliseconds

    def test_parallel_matches_serial(self, tmp_path):
        spec = dict(SMALL_SWEEP)
        spec["c0_inv"] = {"min": 1, "max": 2, "interval": 1}
        spec_path = _write_spec(tmp_path, spec)

        def run(jobs, name):
            out = tmp_path / name
            assert main(["sweep", "--spec", spec_path, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            rows = list(csv.DictReader(
                (out / "sweep.csv").read_text().splitlines()))
            for r in rows:
                del r["solve_ms"]
            return rows

        assert run(1, "serial") == run(2, "parallel")

    def test_parallel_after_solves_in_process(self, tmp_path):
        # forked workers inherit the process's backends with a model held
        spec = dict(SMALL_SWEEP)
        spec["c0_inv"] = {"min": 1, "max": 2, "interval": 1}
        spec_path = _write_spec(tmp_path, spec)
        game = sweep_point_game(2, 3, 3, 1.5)
        equilibrium_statistic_bounds(game, {"resources": resource_statistic(game)})
        assert get_backend()._lp is not None

        def run(jobs, name):
            out = tmp_path / name
            assert main(["sweep", "--spec", spec_path, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
            for r in rows:
                del r["solve_ms"]
            return rows

        assert run(2, "parallel") == run(1, "serial")

    def test_bad_jobs(self, tmp_path):
        spec = _write_spec(tmp_path, SMALL_SWEEP)
        assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                     "--jobs", "0"]) == 2


class TestCheckHypothesis:
    def test_small_grid_passes(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, {
            "n": {"min": 2, "max": 2},
            "budget_A": {"min": 4, "max": 4},
            "budget_B": {"min": 4, "max": 4},
            "c0_inv": {"min": 1, "max": 3, "interval": 1},
        })
        out = tmp_path / "out"
        assert main(["check-hypothesis", "--spec", spec,
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "3/3 points pass" in stdout
        assert stdout.count("PASS") == 3
        report = json.loads((out / "hypothesis_report.json").read_text())
        assert report["summary"]["all_pass"] is True
        assert [p["case"] for p in report["points"]] == [3, 3, 1]

    def test_points_follow_sweep_order(self, tmp_path):
        grid = {
            "n": {"min": 2, "max": 3},
            "budget_A": {"min": 4, "max": 5},
            "budget_B": {"min": 4, "max": 5},
            "c0_inv": {"min": 1, "max": 2, "interval": 1},
        }
        spec = _write_spec(tmp_path, grid)
        report = cli.cmd_check_hypothesis(spec, str(tmp_path / "out"))
        expected = [(n, d_a, c) for n, d_a, d_b, c in parse_sweep_spec(grid).points()
                    if d_a == d_b]
        assert len(expected) == 8
        assert [(p["n"], p["D"], p["c0_inv"]) for p in report["points"]] == expected

    def test_unequal_budgets_rejected(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, {
            "n": {"min": 2, "max": 2},
            "budget_A": {"min": 4, "max": 4},
            "budget_B": {"min": 5, "max": 5},
            "c0_inv": {"min": 1, "max": 1, "interval": 1},
        })
        assert main(["check-hypothesis", "--spec", spec,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"


class TestClassifyCase:
    @pytest.mark.parametrize("n, d, c0_inv, case", [
        (2, 4, 3.0, 1),    # D <= n(q-1)
        (4, 40, 11.0, 1),
        (4, 40, 4.5, 2),   # non-integer inverse cost
        (2, 4, 1.0, 3),
        (4, 40, 10.0, 3),
    ])
    def test_cases(self, n, d, c0_inv, case):
        assert classify_hypothesis_case(n, d, c0_inv) == case


class TestOracleDiff:
    def test_within_tolerance(self, config_path, capsys):
        assert main(["oracle-diff", "--config", config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["within_tolerance"] is True
        assert report["abs_difference"] <= 1e-6
        assert report["certificate"]["is_equilibrium"] is True
        assert report["oracle_value"] == pytest.approx(0, abs=1e-12)


class TestLpStats:
    def test_report(self, config_path, capsys):
        assert main(["lp-stats", "--config", config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "highs-ipm"
        assert report["lp_solver"] == "simplex"  # 49 columns
        assert isinstance(report["iterations"], int) and report["iterations"] >= 0
        assert (isinstance(report["crossover_iterations"], int)
                and report["crossover_iterations"] >= 0)
        assert report["num_vars"] == 49
        assert report["num_constraints"] == 49
        assert report["edges_self"] == 18
        assert report["edges_opp"] == 18
        assert report["n_hat"] == 3
        assert report["status"] == "optimal"
        assert report["value"] == pytest.approx(0, abs=1e-8)

    def test_large_lp_runs_interior_point(self, tmp_path, capsys):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(dict(EXAMPLE_CONFIG, n=3, budget_A=14, budget_B=14)))
        assert main(["lp-stats", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_vars"] >= SIMPLEX_BELOW_COLUMNS
        assert (report["method"], report["lp_solver"]) == ("highs-ipm", "ipm")
        assert report["status"] == "optimal"


class TestSolverOutput:
    """HiGHS runs under the backend's own logging settings.  ``capfd`` reads
    file descriptors 1 and 2, so it also sees what HiGHS's C++ code writes."""

    @pytest.mark.parametrize("args", [
        ["solve", "--player", "A"],
        ["bounds", "--statistic", "resources"],
        ["lp-stats"],
    ])
    def test_only_the_command_writes(self, args, config_path, tmp_path, capfd):
        out_dir = [] if args[0] == "lp-stats" else ["--out", str(tmp_path / "out")]
        assert main(args + ["--config", config_path] + out_dir) == 0
        out, err = capfd.readouterr()
        assert err == ""
        if args[0] == "lp-stats":  # the report alone, as json.dumps writes it
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        else:
            assert out == ""


class ConservationBreakingBackend(ScipyHighsBackend):
    """Real solves whose first opponent-potential row dual is off by 0.5, so
    the opponent flow read from the duals breaks conservation."""

    def solve(self, lp):
        sol = super().solve(lp)
        duals = sol.row_duals.copy()
        duals[0] += 0.5
        return dataclasses.replace(sol, row_duals=duals)


class TestBrokenDuals:
    def test_numeric_failure(self, config_path):
        model = build_minimax_lp(build_sunk_cost(load_game(config_path)), "A")
        with pytest.raises(SolverFailureError, match="opponent flow"):
            solve(model, ConservationBreakingBackend())

    @pytest.mark.parametrize("args", [
        ["solve", "--player", "A"],
        ["solve", "--player", "B"],
        ["bounds", "--statistic", "resources"],
        ["oracle-diff"],
        ["lp-stats"],
    ])
    def test_exit_code_3(self, args, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(minimax, "get_backend", ConservationBreakingBackend)
        has_out = args[0] not in ("oracle-diff", "lp-stats")
        out = ["--out", str(tmp_path / "out")] if has_out else []
        assert main(args + ["--config", config_path] + out) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert not (tmp_path / "out").exists()

    def test_check_hypothesis_exit_code_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(minimax, "get_backend", ConservationBreakingBackend)
        spec = _write_spec(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["check-hypothesis", "--spec", spec, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert not (out / "hypothesis_report.json").exists()


def _close_the_face(monkeypatch):
    """Make the dynamic program put none of A's edges on the optimal face,
    so that the face holds no unit flow."""
    real = strategy.best_response_edges
    monkeypatch.setattr(strategy, "best_response_edges",
                        lambda *args: np.zeros_like(real(*args)))


class TestInfeasibleFace:
    def test_bounds_exit_code_3(self, config_path, tmp_path, monkeypatch, capsys):
        _close_the_face(monkeypatch)
        out = tmp_path / "out"
        assert main(["bounds", "--statistic", "resources", "--config", config_path,
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert "infeasible" in err["error"]["message"]
        assert not out.exists()

    def test_sweep_point_records_error(self, monkeypatch):
        _close_the_face(monkeypatch)
        row = cli._sweep_point((2, 2, 2, 1.0))
        assert row["error"].startswith("SolverFailureError: stage-two solve")
        assert "min_resources" not in row and "value" not in row


class WitnessBreakingBackend(ScipyHighsBackend):
    """Real solves, but every answer after the first (stage-one) one has 0.5
    added to its first flow entry, so each stage-two witness breaks
    conservation."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def solve(self, lp):
        sol = super().solve(lp)
        self.calls += 1
        if self.calls == 1:
            return sol
        x = sol.x.copy()
        x[0] += 0.5
        return dataclasses.replace(sol, x=x)


class TestUnusableWitness:
    def test_bounds_exit_code_3(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(minimax, "get_backend", WitnessBreakingBackend)
        out = tmp_path / "out"
        assert main(["bounds", "--statistic", "resources", "--config", config_path,
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert "unusable" in err["error"]["message"]
        assert not out.exists()

    def test_sweep_point_records_error(self, monkeypatch):
        monkeypatch.setattr(minimax, "get_backend", WitnessBreakingBackend)
        row = cli._sweep_point((2, 2, 2, 1.0))
        assert row["error"].startswith(
            "SolverFailureError: stage-two solve for resources/min unusable")
        assert "min_resources" not in row and "value" not in row


class InfeasibleBackend:
    """Answers every LP as infeasible without solving it."""

    def solve(self, lp):
        return BackendSolution(status=INFEASIBLE, x=None, objective=None,
                               message="stub: no feasible point")


class TestInfeasibleSolve:
    def test_solve_raises(self, config_path):
        model = build_minimax_lp(build_sunk_cost(load_game(config_path)), "A")
        with pytest.raises(SolverFailureError, match="minimax solve failed: infeasible"):
            solve(model, InfeasibleBackend())

    def test_exit_code_3(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(minimax, "get_backend", InfeasibleBackend)
        out = tmp_path / "out"
        assert main(["solve", "--player", "A", "--config", config_path,
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverFailureError"
        assert "infeasible" in err["error"]["message"]
        assert not out.exists()


def _sign_game_config(tmp_path, weight):
    """n=2, budgets 3/2, no costs and sign weight ``weight``: the value is
    ``weight / 2``, and 185 matrix entries are stored."""
    none = {"kind": "none"}
    path = tmp_path / "sign.json"
    path.write_text(json.dumps({
        "n": 2, "budget_A": 3, "budget_B": 2, "valuations": {"kind": "sign", "weight": weight},
        "assign_costs_A": none, "assign_costs_B": none,
        "obtain_cost_A": none, "obtain_cost_B": none}))
    return str(path)


class TestDroppedEntries:
    """HiGHS drops matrix entries at or below its ``small_matrix_value``
    (1e-9) when the model is passed in, and would solve another LP than the
    one built: here the 18 payoff entries of weight 1e-9 or less."""

    @pytest.mark.parametrize("weight", [1e-10, 1e-9])
    @pytest.mark.parametrize("command", ["solve", "lp-stats"])
    def test_exit_code_3(self, command, weight, tmp_path, capsys):
        out = tmp_path / "out"
        args = [command, "--config", _sign_game_config(tmp_path, weight)]
        if command == "solve":
            args += ["--player", "A", "--out", str(out)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "SolverFailureError"
        assert err["message"] == (
            "minimax solve failed: numeric-failure HiGHS holds 167 of the LP's 185 matrix "
            "entries: it dropped those at or below its small_matrix_value (1e-09)")
        assert not out.exists()

    def test_small_weight_solves(self, tmp_path, capsys):
        assert main(["lp-stats", "--config", _sign_game_config(tmp_path, 1e-6)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nonzeros"] == 185
        assert report["value"] == pytest.approx(5e-7, rel=1e-9)


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--player", "A", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path),
                     "--player", "A", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_game_values(self, tmp_path, capsys):
        cfg = dict(EXAMPLE_CONFIG)
        cfg["budget_A"] = -1
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(cfg))
        assert main(["lp-stats", "--config", str(path)]) == 2

    def test_unknown_player_rejected_by_parser(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", config_path,
                  "--player", "C", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestConfigBoundary:
    def test_infinite_grid_exit_code_2(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, dict(SMALL_SWEEP, n={"min": 2, "max": float("inf")}))
        assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ConfigError",
                                "message": "sweep.n.max: expected a finite number, got inf"}

    def test_config_directory_exit_code_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path), "--player", "A",
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"].startswith(f"{tmp_path}: cannot read config file")

    def test_spec_directory_exit_code_2(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"].startswith(f"{tmp_path}: cannot read sweep spec file")

    def test_binary_config_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_bytes(b"\xff\xfe\x00\x01\x02\x03")
        assert main(["solve", "--config", str(path), "--player", "A",
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {
            "type": "ConfigError",
            "message": f"{path}: cannot read config file: not UTF-8 text "
                       "(invalid start byte at byte 0)"}

    def test_binary_spec_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_bytes(b"\xff\xfe\x00\x01\x02\x03")
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {
            "type": "ConfigError",
            "message": f"{path}: cannot read sweep spec file: not UTF-8 text "
                       "(invalid start byte at byte 0)"}


def _failed_certificate(game, xi_a, xi_b):
    return False, 0.5, 0.0


class TestFailedCertificate:
    def test_solve_exit_code_3(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "certify_equilibrium", _failed_certificate)
        out = tmp_path / "out"
        assert main(["solve", "--player", "A", "--config", config_path,
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {
            "type": "SolverFailureError",
            "message": "solved profile failed the equilibrium certificate "
                       "(gap_a=0.5, gap_b=0.0)"}
        assert not out.exists()

    def test_bounds_exit_code_3(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "certify_equilibrium", _failed_certificate)
        out = tmp_path / "out"
        assert main(["bounds", "--statistic", "resources", "--config", config_path,
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {
            "type": "SolverFailureError",
            "message": "min-resources witness failed the certificate "
                       "(gap_a=0.5, gap_b=0.0)"}
        assert not out.exists()


class TestFailingChecks:
    def test_oracle_diff_matrix_solve_not_optimal(self, tmp_path, monkeypatch, capsys):
        class FailingBackend(ScipyHighsBackend):
            def solve(self, lp):
                return BackendSolution(status=NUMERIC_FAILURE, x=None, objective=None,
                                       message="stub failure")

        # float costs send the oracle down its floating-point LP
        path = tmp_path / "game.json"
        path.write_text(json.dumps({**EXAMPLE_CONFIG,
                                    "obtain_cost_A": {"kind": "linear", "coeff": 0.3}}))
        monkeypatch.setattr(oracle, "get_backend", FailingBackend)
        assert main(["oracle-diff", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {"type": "OracleSolveError",
                       "message": "matrix game solve failed: stub failure"}

    def test_oracle_diff_outside_tolerance(self, config_path, monkeypatch, capsys):
        real = cli.matrix_game_solve

        def off_by_one(mg):
            value, xi_row, xi_col = real(mg)
            return value + 1, xi_row, xi_col

        monkeypatch.setattr(cli, "matrix_game_solve", off_by_one)
        assert main(["oracle-diff", "--config", config_path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["within_tolerance"] is False
        assert report["abs_difference"] == pytest.approx(1)
        assert report["certificate"]["is_equilibrium"] is True

    def test_check_hypothesis_failing_point(self, tmp_path, monkeypatch, capsys):
        real = cli.equilibrium_statistic_bounds

        def shifted(game, statistics):
            base, bounds = real(game, statistics)
            lo, witness = bounds["resources"]["min"]
            bounds["resources"]["min"] = (lo + 1, witness)
            return base, bounds

        monkeypatch.setattr(cli, "equilibrium_statistic_bounds", shifted)
        spec = _write_spec(tmp_path, dict(SMALL_SWEEP, c0_inv={"min": 3, "max": 3}))
        out = tmp_path / "out"
        assert main(["check-hypothesis", "--spec", spec, "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert stdout.startswith("FAIL n=2 D=2 c0_inv=3 case=1 resources=[3, 2]")
        assert "0/1 points pass" in stdout
        report = json.loads((out / "hypothesis_report.json").read_text())
        assert report["summary"] == {"total": 1, "passed": 0, "failed": 1,
                                     "all_pass": False}

    def test_sweep_row_of_failed_point(self, tmp_path, monkeypatch):
        def failing(game, statistics):
            raise SolverFailureError("stage-two solve failed: a, b,\nc")

        monkeypatch.setattr(cli, "equilibrium_statistic_bounds", failing)
        spec = _write_spec(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
        header, line = (out / "sweep.csv").read_text().splitlines()
        cells = line.split(",")
        assert len(cells) == len(header.split(",")) == 11
        assert cells[:4] == ["2", "2", "2", "1"]
        assert cells[4:9] == [""] * 5
        int(cells[9])
        assert cells[10] == "SolverFailureError: stage-two solve failed: a; b; c"


def _module_map_rows():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(costblotto\.\w+)` \| (.*) \|$", table, re.MULTILINE)


def test_readme_module_map_names_exist():
    rows = _module_map_rows()
    assert len(rows) == 8
    missing = [
        f"{module}.{name}"
        for module, contents in rows
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
