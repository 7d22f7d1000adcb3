"""Command-line interface.

Subcommands: ``solve`` (equilibrium strategy for one player), ``bounds``
(extremal equilibrium statistics), ``sweep`` (grid experiments to CSV),
``check-hypothesis`` (equilibrium-resource case rules over a grid),
``oracle-diff`` (flow solver vs brute force), and ``lp-stats`` (model sizes
and timings).  Exit codes: 0 success, 2 invalid input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from pathlib import Path

from .config import ConfigError, load_game, load_sweep_spec, sweep_point_game
from .game import CostBlottoGame, MixedStrategy
from .minimax import (
    InvalidFlowError,
    build_minimax_lp,
    equilibrium_statistic_bounds,
    expenditure_statistic,
    resource_statistic,
    solve,
)
from .oracle import OracleSolveError, build_matrix, matrix_game_solve
from .reduction import build_sunk_cost, unmap_strategy
from .solver import SolverFailureError, get_backend
from .strategy import (
    CERTIFICATE_EPS,
    certify_equilibrium,
    decompose_flow,
    marginals_from_flow,
    solve_by_generation,
)

#: Absolute tolerance when checking equilibrium-resource case rules.
HYPOTHESIS_TOL = 1e-4

#: Largest flow-LP minus oracle value gap ``oracle-diff`` accepts.
ORACLE_DIFF_TOL = 1e-6

#: Header of the sweep CSV; ``solve_ms`` is the only non-deterministic column.
SWEEP_CSV_HEADER = ("n,D_A,D_B,c0_inv,min_resources,max_resources,"
                    "min_expenditure,max_expenditure,value,solve_ms,error")


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".10g")  # +0.0 folds -0.0 into 0


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _strategy_payload(xi: MixedStrategy) -> dict:
    return {
        "support": [
            {"assignment": list(s), "probability": float(p)}
            for s, p in sorted(xi.support)
        ]
    }


def _unmapped(xi_hat: MixedStrategy, budget: int) -> MixedStrategy:
    return MixedStrategy(
        support=tuple((unmap_strategy(s, budget), p) for s, p in xi_hat.support)
    )


#: Games with at least this many battlefields are solved by edge generation,
#: smaller ones by the full LP.  Generation over full-LP process time, two
#: runs per game (2-core x86_64 VM; sign valuations, D = 20, 30, 40, linear
#: and quadratic costs): 1.9-4.0x on the linear games at n = 2-3, 0.57-1.13x
#: at n = 4, 0.43-0.69x at n = 5 and 0.24-0.67x at n = 6.  n = 4 is near
#: parity, so it keeps the full LP and its witnesses.
GENERATE_FROM_BATTLEFIELDS = 5


def _solve_game(game: CostBlottoGame):
    """One A-perspective solve, by edge generation from
    :data:`GENERATE_FROM_BATTLEFIELDS` battlefields on: the result and both
    players' equilibrium strategies, B's read from the LP's row duals."""
    sunk = build_sunk_cost(game)
    if game.n >= GENERATE_FROM_BATTLEFIELDS:
        result = solve_by_generation(sunk)
    else:
        result = solve(build_minimax_lp(sunk, "A"))
    xi_a = _unmapped(decompose_flow(result.flow), game.budget_a)
    xi_b = _unmapped(decompose_flow(result.opponent_flow), game.budget_b)
    return result, xi_a, xi_b


def cmd_solve(config: str, player: str, out: str) -> dict:
    """Solve for one player's equilibrium strategy and write it as JSON."""
    if player not in ("A", "B"):
        raise ConfigError(f"player must be 'A' or 'B', got {player!r}")
    game = load_game(config)
    result, xi_a, xi_b = _solve_game(game)
    is_eq, gap_a, gap_b = certify_equilibrium(game, xi_a, xi_b)
    if not is_eq:
        raise SolverFailureError(
            f"solved profile failed the equilibrium certificate "
            f"(gap_a={gap_a}, gap_b={gap_b})"
        )
    value, xi, flow = ((result.value, xi_a, result.flow) if player == "A"
                       else (-result.value, xi_b, result.opponent_flow))
    marginals = marginals_from_flow(flow)
    payload = {
        "player": player,
        "value": value,
        "strategy": _strategy_payload(xi),
        "marginals": [list(row) for row in marginals.tables[:-1]],
        "resources_obtained": list(reversed(marginals.tables[-1])),
        "certificate": {
            "gap_A": float(gap_a),
            "gap_B": float(gap_b),
            "eps": CERTIFICATE_EPS,
            "is_equilibrium": True,
        },
    }
    _write_json(Path(out) / f"solution_{player}.json", payload)
    return payload


_STATISTICS = {
    "resources": resource_statistic,
    "expenditure": expenditure_statistic,
}


def cmd_bounds(config: str, statistic: str, out: str) -> dict:
    """Extremal equilibrium values of a statistic for player A, with certified
    witnesses and the size of the optimal face they were optimized over."""
    if statistic not in _STATISTICS:
        raise ConfigError(
            f"statistic must be one of {sorted(_STATISTICS)}, got {statistic!r}"
        )
    game = load_game(config)
    base, bounds = equilibrium_statistic_bounds(
        game, {statistic: _STATISTICS[statistic](game)})
    xi_b = _unmapped(decompose_flow(base.opponent_flow), game.budget_b)
    # A's edges off the face, and B's support rows plus the value row
    face = {"fixed_columns": int((~base.face_edges).sum()),
            "tight_rows": int((base.opponent_flow.edge_flow > 0).sum()) + 1}
    payload = {"statistic": statistic, "player": "A", "value": base.value, "face": face}
    for direction in ("min", "max"):
        bound, witness = bounds[statistic][direction]
        xi = _unmapped(decompose_flow(witness.flow), game.budget_a)
        is_eq, gap_a, gap_b = certify_equilibrium(game, xi, xi_b)
        if not is_eq:
            raise SolverFailureError(
                f"{direction}-{statistic} witness failed the certificate "
                f"(gap_a={gap_a}, gap_b={gap_b})"
            )
        payload[direction] = bound
        payload[f"witness_{direction}"] = _strategy_payload(xi)
        payload[f"certificate_{direction}"] = {
            "gap_A": float(gap_a), "gap_B": float(gap_b), "eps": CERTIFICATE_EPS}
    _write_json(Path(out) / f"bounds_{statistic}.json", payload)
    return payload


def _sweep_point(point: tuple[int, int, int, float]) -> dict:
    n, d_a, d_b, c0_inv = point
    row = {"n": n, "D_A": d_a, "D_B": d_b, "c0_inv": c0_inv, "error": ""}
    t0 = time.perf_counter()
    try:
        game = sweep_point_game(n, d_a, d_b, c0_inv)
        base, bounds = equilibrium_statistic_bounds(
            game,
            {"resources": resource_statistic(game),
             "expenditure": expenditure_statistic(game)},
        )
        row.update(
            min_resources=bounds["resources"]["min"][0],
            max_resources=bounds["resources"]["max"][0],
            min_expenditure=bounds["expenditure"]["min"][0],
            max_expenditure=bounds["expenditure"]["max"][0],
            value=base.value,
        )
    except Exception as exc:  # per-point failures land in the CSV, not the run
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["solve_ms"] = int(round((time.perf_counter() - t0) * 1000))
    return row


def _sweep_row_text(row: dict) -> str:
    cells = [str(row["n"]), str(row["D_A"]), str(row["D_B"]), _fmt(row["c0_inv"])]
    if row["error"]:
        cells += ["", "", "", "", ""]
    else:
        cells += [
            _fmt(row["min_resources"]), _fmt(row["max_resources"]),
            _fmt(row["min_expenditure"]), _fmt(row["max_expenditure"]),
            _fmt(row["value"]),
        ]
    cells.append(str(row["solve_ms"]))
    cells.append(row["error"].replace(",", ";").replace("\n", " "))
    return ",".join(cells)


def cmd_sweep(spec: str, out: str, jobs: int | None = None) -> Path:
    """Run the sweep grid and write one CSV row per point, in grid order."""
    sweep = load_sweep_spec(spec)
    points = sweep.points()
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(points) <= 1:
        rows = [_sweep_point(p) for p in points]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, points))
    out_path = Path(out) / "sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [SWEEP_CSV_HEADER] + [_sweep_row_text(r) for r in rows]
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def classify_hypothesis_case(n: int, budget: int, c0_inv: float) -> int:
    """Which equilibrium-resource case rule applies at a grid point."""
    is_integer = abs(c0_inv - round(c0_inv)) < 1e-9
    q = round(c0_inv) if is_integer else int(c0_inv)
    if budget <= n * (q - 1):
        return 1
    if not is_integer:
        return 2
    return 3


def _check_hypothesis_point(n: int, budget: int, c0_inv: float,
                            lo: float, hi: float, value: float) -> dict:
    case = classify_hypothesis_case(n, budget, c0_inv)
    point = {
        "n": n, "D": budget, "c0_inv": c0_inv, "case": case,
        "min_resources": lo, "max_resources": hi, "value": value,
        "boundary_min": False, "boundary_max": False,
    }
    if case in (1, 2):
        expected = budget if case == 1 else min(budget, n * int(c0_inv))
        ok = abs(lo - expected) <= HYPOTHESIS_TOL and abs(hi - expected) <= HYPOTHESIS_TOL
        point.update(expected_min=expected, expected_max=expected,
                     note=f"unique equilibrium resources {expected}")
    else:
        lower = n * (c0_inv - 1)
        upper = min(n * c0_inv, budget)
        ok = (lo >= lower - HYPOTHESIS_TOL and hi <= upper + HYPOTHESIS_TOL
              and lo < hi - HYPOTHESIS_TOL)
        point.update(
            expected_min=lower, expected_max=upper,
            boundary_min=abs(lo - lower) <= HYPOTHESIS_TOL,
            boundary_max=abs(hi - upper) <= HYPOTHESIS_TOL,
            note=f"open range ({_fmt(lower)}, {_fmt(upper)}) with min < max",
        )
    point["pass"] = bool(ok)
    return point


def cmd_check_hypothesis(spec: str, out: str) -> dict:
    """Check every grid point against the equilibrium-resource case rules.

    Requires equal budget grids for the two players; each point is solved for
    its resource bounds and matched against the case that applies.  Points on
    a case-3 boundary are flagged, not failed.
    """
    sweep = load_sweep_spec(spec)
    if sweep.budget_a != sweep.budget_b:
        raise ConfigError(
            "check-hypothesis requires identical budget_A and budget_B grids"
        )
    points = []
    for n, d, d_b, c0_inv in sweep.points():
        if d_b != d:
            continue
        game = sweep_point_game(n, d, d, c0_inv)
        base, bounds = equilibrium_statistic_bounds(
            game, {"resources": resource_statistic(game)})
        point = _check_hypothesis_point(
            n, d, c0_inv,
            bounds["resources"]["min"][0], bounds["resources"]["max"][0],
            base.value,
        )
        points.append(point)
        flags = "".join(
            f" [{side} boundary]" for side in ("min", "max")
            if point[f"boundary_{side}"]
        )
        print(
            f"{'PASS' if point['pass'] else 'FAIL'} n={n} D={d} "
            f"c0_inv={_fmt(c0_inv)} case={point['case']} "
            f"resources=[{_fmt(point['min_resources'])}, "
            f"{_fmt(point['max_resources'])}]{flags}"
        )
    passed = sum(p["pass"] for p in points)
    report = {
        "points": points,
        "summary": {
            "total": len(points),
            "passed": passed,
            "failed": len(points) - passed,
            "all_pass": passed == len(points),
        },
    }
    _write_json(Path(out) / "hypothesis_report.json", report)
    print(f"{passed}/{len(points)} points pass")
    return report


def cmd_oracle_diff(config: str) -> dict:
    """Compare the flow solver's value against the brute-force oracle."""
    game = load_game(config)
    result, xi_a, xi_b = _solve_game(game)
    oracle_value, _, _ = matrix_game_solve(build_matrix(game))
    diff = abs(result.value - float(oracle_value))
    is_eq, gap_a, gap_b = certify_equilibrium(game, xi_a, xi_b)
    report = {
        "flow_value": result.value,
        "oracle_value": float(oracle_value),
        "abs_difference": diff,
        "certificate": {
            "gap_A": float(gap_a),
            "gap_B": float(gap_b),
            "is_equilibrium": bool(is_eq),
        },
        "tolerance": ORACLE_DIFF_TOL,
        "within_tolerance": bool(diff <= ORACLE_DIFF_TOL and is_eq),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


def cmd_lp_stats(config: str) -> dict:
    """Report LP sizes, the LP method and the HiGHS solver that ran, and
    build/solve times for a config."""
    game = load_game(config)
    sunk = build_sunk_cost(game)
    t0 = time.perf_counter()
    model = build_minimax_lp(sunk, "A")
    build_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    result = solve(model)
    solve_ms = (time.perf_counter() - t0) * 1000
    report = {
        "n": game.n,
        "n_hat": sunk.n_hat,
        "budget_A": game.budget_a,
        "budget_B": game.budget_b,
        "num_vars": model.num_vars,
        "num_constraints": model.num_constraints,
        "nonzeros": int(model.program.a.nnz),
        "edges_self": model.graph_self.num_edges,
        "edges_opp": model.graph_opp.num_edges,
        "build_ms": round(build_ms, 3),
        "solve_ms": round(solve_ms, 3),
        "method": get_backend().method,
        "lp_solver": result.solution.lp_solver,
        "iterations": result.solution.iterations,
        "crossover_iterations": result.solution.crossover_iterations,
        "status": result.status,
        "value": result.value,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costblotto",
        description="Equilibrium solver for resource contests with costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute one player's equilibrium strategy")
    p.add_argument("--config", required=True, help="game config JSON")
    p.add_argument("--player", required=True, choices=["A", "B"])
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("bounds", help="extremal equilibrium statistics for player A")
    p.add_argument("--config", required=True, help="game config JSON")
    p.add_argument("--statistic", required=True, choices=sorted(_STATISTICS))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="run a parameter grid and write CSV")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default: CPU count)")

    p = sub.add_parser("check-hypothesis",
                       help="check equilibrium-resource case rules over a grid")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("oracle-diff", help="compare flow solver with brute force")
    p.add_argument("--config", required=True, help="game config JSON")

    p = sub.add_parser("lp-stats", help="report LP sizes and timings")
    p.add_argument("--config", required=True, help="game config JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            cmd_solve(args.config, args.player, args.out)
        elif args.command == "bounds":
            cmd_bounds(args.config, args.statistic, args.out)
        elif args.command == "sweep":
            cmd_sweep(args.spec, args.out, args.jobs)
        elif args.command == "check-hypothesis":
            report = cmd_check_hypothesis(args.spec, args.out)
            if not report["summary"]["all_pass"]:
                return 1
        elif args.command == "oracle-diff":
            report = cmd_oracle_diff(args.config)
            if not report["within_tolerance"]:
                return 1
        elif args.command == "lp-stats":
            cmd_lp_stats(args.config)
    except (SolverFailureError, OracleSolveError, InvalidFlowError) as exc:
        _print_error(exc)
        return 3
    except (ConfigError, ValueError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: Exception) -> None:
    print(
        json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
        file=sys.stderr,
    )


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
