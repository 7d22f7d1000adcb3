#!/usr/bin/env python3
"""Solve-time table over (n, D_A, D_B) for the two benchmark cost settings.

Setting "linear": sign valuations, linear obtainment cost with coefficient
1/20, no assignment costs.  Setting "quadratic": squared assignment costs
with coefficient 0.01, no obtainment cost.  Times the path ``costblotto
solve`` takes per instance: the sunk-cost game, then ``cli._solve_game``, the
equilibrium (by edge generation from ``cli.GENERATE_FROM_BATTLEFIELDS``
battlefields on, so at every size here) and both players' path
decompositions.  Prints one table row per size.
"""
import argparse
import time

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from costblotto import CostBlottoGame, CostFunction, Valuation, build_sunk_cost, cli  # noqa: E402

SIZES = [(10, 30, 30), (10, 30, 50), (10, 50, 50),
         (20, 30, 30), (20, 30, 50), (20, 50, 50),
         (30, 30, 30), (30, 30, 50), (30, 50, 50)]


def make_game(n, d_a, d_b, setting):
    vals = (Valuation.sign_form(1, d_a, d_b),) * n
    if setting == "linear":
        assign_a = tuple(CostFunction.zero(d_a) for _ in range(n))
        assign_b = tuple(CostFunction.zero(d_b) for _ in range(n))
        obtain_a, obtain_b = CostFunction.linear(0.05, d_a), CostFunction.linear(0.05, d_b)
    else:
        assign_a = tuple(CostFunction.quadratic(0.01, d_a) for _ in range(n))
        assign_b = tuple(CostFunction.quadratic(0.01, d_b) for _ in range(n))
        obtain_a, obtain_b = CostFunction.zero(d_a), CostFunction.zero(d_b)
    return CostBlottoGame(n=n, budget_a=d_a, budget_b=d_b, valuations=vals,
                          assign_costs_a=assign_a, assign_costs_b=assign_b,
                          obtain_cost_a=obtain_a, obtain_cost_b=obtain_b)


def time_solve(game, repeats):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result, _, _ = cli._solve_game(build_sunk_cost(game))
        best = min(best, time.perf_counter() - t0)
        value = result.value
    return best, value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=30,
                    help="skip rows with n above this (larger rows are slow)")
    args = ap.parse_args()

    print(f"{'n':>3} {'D_A':>4} {'D_B':>4} {'linear':>10} {'quadratic':>10}")
    for n, d_a, d_b in SIZES:
        if n > args.max_n:
            continue
        cells = []
        for setting in ("linear", "quadratic"):
            secs, value = time_solve(make_game(n, d_a, d_b, setting), args.repeats)
            cells.append(f"{secs:9.3f}s")
        print(f"{n:>3} {d_a:>4} {d_b:>4} {cells[0]:>10} {cells[1]:>10}", flush=True)


if __name__ == "__main__":
    main()
