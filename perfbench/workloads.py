"""The three workloads: inputs made from a seed, one command call per op,
and a check of every output against a path that does not share its LP.

Each workload turns a seed into a fixed list of ops (one *pass*).  The
program sees only the generated inputs: game config files for
``cmd_solve`` and ``cmd_oracle_diff``, grid points for the sweep's per-point
function.  Tolerances come from the package, never copied.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from costblotto import cli
from costblotto.config import load_game
from costblotto.game import MixedStrategy
from costblotto.reduction import build_sunk_cost, map_strategy
from costblotto.strategy import (
    CERTIFICATE_EPS,
    best_response_value,
    marginals_from_mixed,
)

#: Acceptance criterion 5: expenditure bounds equal c0 times resource bounds
#: to this absolute tolerance.  The package has no name for it.
EXPENDITURE_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


@dataclass(frozen=True)
class Op:
    """One command call: the generated input and, for config-driven
    commands, the file the program reads it from."""

    label: str
    spec: dict
    path: Path | None

    @property
    def digest(self) -> str:
        text = json.dumps(self.spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _write_config(work: Path, index: int, spec: dict) -> Path:
    path = work / f"config_{index:03d}.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return path


NO_COST = {"kind": "none"}


# --- solve-pair ---------------------------------------------------------

#: (cost setting, n, D_A, D_B) of each op in a pass, covering n in [3, 10]
#: and D in [20, 40], equal and unequal budgets, in both cost settings of
#: scripts/run_runtime_table.py.  The seed draws each battlefield's weight.
#: Sizes stay fixed because simplex time moves steeply with size: drawing
#: the budgets (+-1 for A, +-2 for B) spread five seeds' passes over
#: 11.9-17.2 s, against 15.9-17.3 s for three seeds at fixed sizes.  The
#: sizes are picked so that all ops but the n=10 one cost 1.5-2.2 s
#: (2-core x86_64 VM); with ops of unlike cost the median op time jumps
#: between whichever two happen to sit in the middle.
SOLVE_LADDER = {
    "full": (("linear", 3, 40, 38), ("linear", 4, 30, 30), ("linear", 6, 20, 22),
             ("quadratic", 6, 30, 30), ("quadratic", 8, 20, 22),
             ("quadratic", 10, 20, 20)),
    "tiny": (("linear", 2, 4, 3), ("quadratic", 3, 3, 3)),
}


def _solve_pair_config(rng: random.Random, setting: str, n: int,
                       d_a: int, d_b: int) -> dict:
    spec = {
        "n": n, "budget_A": d_a, "budget_B": d_b,
        "valuations": [{"kind": "sign", "weight": rng.randint(1, 2)}
                       for _ in range(n)],
    }
    if setting == "linear":
        spec.update(assign_costs_A=NO_COST, assign_costs_B=NO_COST,
                    obtain_cost_A={"kind": "linear", "coeff": 0.05},
                    obtain_cost_B={"kind": "linear", "coeff": 0.05})
    else:
        spec.update(assign_costs_A={"kind": "quadratic", "coeff": 0.01},
                    assign_costs_B={"kind": "quadratic", "coeff": 0.01},
                    obtain_cost_A=NO_COST, obtain_cost_B=NO_COST)
    return spec


class SolvePair:
    """``cmd_solve(player="A")``: two large LP solves per op."""

    name = "solve-pair"
    layers = ("config.load", "reduction.fold", "minimax.assemble",
              "minimax.solve", "solver.backend", "solver.highs",
              "strategy.decompose", "strategy.certify",
              "strategy.best_response")

    def __init__(self, scale: str):
        self.ladder = SOLVE_LADDER[scale]

    def ops(self, rng: random.Random, work: Path) -> list[Op]:
        ops = []
        for i, (setting, n, d_a, d_b) in enumerate(self.ladder):
            spec = _solve_pair_config(rng, setting, n, d_a, d_b)
            ops.append(Op(f"{setting} n={n} D={d_a}/{d_b}", spec,
                          _write_config(work, i, spec)))
        return ops

    def run(self, op: Op, out: Path):
        return cli.cmd_solve(str(op.path), "A", str(out))

    def check(self, op: Op, payload: dict, out: Path) -> dict:
        cert = payload["certificate"]
        if not (cert["is_equilibrium"] and cert["gap_A"] <= CERTIFICATE_EPS
                and cert["gap_B"] <= CERTIFICATE_EPS):
            raise CheckFailed(f"certificate {cert} above {CERTIFICATE_EPS}")
        # The written strategy must guarantee the written value against B's
        # exact best response, found by the DP rather than the LP.
        written = json.loads((out / "solution_A.json").read_text())
        game = load_game(op.path)
        mapped = MixedStrategy(support=tuple(
            (map_strategy(e["assignment"], game.budget_a), e["probability"])
            for e in written["strategy"]["support"]))
        br_b, _ = best_response_value(
            build_sunk_cost(game), marginals_from_mixed(mapped, game.budget_a), "B")
        shortfall = written["value"] - (-br_b)
        if shortfall > CERTIFICATE_EPS:
            raise CheckFailed(f"written strategy falls {shortfall} short of its value")
        return {}


# --- bounds-grid --------------------------------------------------------

@dataclass(frozen=True)
class GridPlan:
    n: int
    budget: int
    fixed: tuple[float, ...]
    seeded_from: tuple[float, ...]


def _quarter_grid(lo: float, hi: float) -> tuple[float, ...]:
    return tuple(lo + 0.25 * k for k in range(int(round((hi - lo) / 0.25)) + 1))


#: The paper's figure grid is n=4, D=40, c0_inv on the 0.25 grid in [1, 10].
#: Each pass holds c0_inv=9.75 (case 2, unique answer 36), c0_inv=10 (case 3,
#: open range) and one point the seed draws from [6, 9.5], where a point
#: costs 8-14 s of solving (2-core x86_64 VM); below 6 points cost 4-10 s,
#: and drawing there would make one seed's pass a third shorter than
#: another's.
GRID_PLANS = {
    "full": GridPlan(4, 40, (9.75, 10.0), _quarter_grid(6.0, 9.5)),
    "tiny": GridPlan(2, 4, (2.75, 3.0), _quarter_grid(1.0, 2.5)),
}


class BoundsGrid:
    """The sweep's per-point function: a stage-one solve plus four
    value-pinned re-solves per op."""

    name = "bounds-grid"
    layers = ("config.load", "reduction.fold", "minimax.assemble",
              "minimax.solve", "minimax.bounds", "solver.backend",
              "solver.highs")

    def __init__(self, scale: str):
        self.plan = GRID_PLANS[scale]

    def ops(self, rng: random.Random, work: Path) -> list[Op]:
        plan = self.plan
        points = plan.fixed + (rng.choice(plan.seeded_from),)
        return [Op(f"n={plan.n} D={plan.budget} c0_inv={c}",
                   {"n": plan.n, "D_A": plan.budget, "D_B": plan.budget,
                    "c0_inv": c}, None)
                for c in points]

    def run(self, op: Op, out: Path):
        s = op.spec
        return cli._sweep_point((s["n"], s["D_A"], s["D_B"], s["c0_inv"]))

    def check(self, op: Op, row: dict, out: Path) -> dict:
        if row["error"]:
            raise CheckFailed(row["error"])
        s = op.spec
        lo, hi = row["min_resources"], row["max_resources"]
        point = cli._check_hypothesis_point(
            s["n"], s["D_A"], s["c0_inv"], lo, hi, row["value"])
        if not point["pass"]:
            raise CheckFailed(f"case {point['case']} rule fails: {point['note']}, "
                              f"got [{lo}, {hi}]")
        c0 = 1.0 / s["c0_inv"]
        for side in ("min", "max"):
            off = abs(row[f"{side}_expenditure"] - c0 * row[f"{side}_resources"])
            if off > EXPENDITURE_TOL:
                raise CheckFailed(f"{side} expenditure off c0 x resources by {off}")
        if point["case"] != 2:
            return {}
        return {"pin_drift": max(abs(lo - point["expected_min"]),
                                 abs(hi - point["expected_max"]))}


# --- oracle-small -------------------------------------------------------

#: (largest n, largest budget, games per size).  Acceptance criterion 3
#: draws n <= 3 and D <= 5.  A pass holds the same number of games of every
#: (n, D_A, D_B) in that class, so the seed changes numbers but not sizes,
#: and every pass does alike work.
ORACLE_PLANS = {"full": (3, 5, 3), "tiny": (2, 1, 1)}


def _table_cost(rng: random.Random, budget: int) -> dict:
    values = [0.0]
    for _ in range(budget):
        values.append(values[-1] + rng.choice((0.0, 0.25, 0.5, 1.0)))
    return {"kind": "table", "values": values}


def _oracle_config(rng: random.Random, n: int, d_a: int, d_b: int) -> dict:
    """A game drawn as acceptance criterion 3 draws them: sign or integer
    table valuations, monotone table costs with steps of 0, 1/4, 1/2 or 1.

    The costs are floats, exact in binary, so as in criterion 3 the oracle
    solves the payoff matrix with two floating-point HiGHS LPs of its own.
    Integer games would send it down its exact rational simplex instead,
    which took 0.1-1.2 s on a single n=3, D=5 game depending on its numbers
    and made pass times differ by 28% (IQR over median) across ten seeds.
    """
    valuations = []
    for _ in range(n):
        if rng.random() < 0.5:
            valuations.append({"kind": "sign", "weight": rng.randint(1, 2)})
        else:
            valuations.append({"kind": "table", "rows": [
                [rng.randint(-2, 2) for _ in range(d_b + 1)]
                for _ in range(d_a + 1)]})
    return {
        "n": n, "budget_A": d_a, "budget_B": d_b, "valuations": valuations,
        "assign_costs_A": [_table_cost(rng, d_a) for _ in range(n)],
        "assign_costs_B": [_table_cost(rng, d_b) for _ in range(n)],
        "obtain_cost_A": _table_cost(rng, d_a),
        "obtain_cost_B": _table_cost(rng, d_b),
    }


class OracleSmall:
    """``cmd_oracle_diff``: tiny flow LPs against the brute-force oracle."""

    name = "oracle-small"
    layers = SolvePair.layers + ("oracle.build_matrix", "oracle.matrix_game_solve")

    def __init__(self, scale: str):
        n_max, d_max, repeats = ORACLE_PLANS[scale]
        self.sizes = [(n, d_a, d_b) for n in range(2, n_max + 1)
                      for d_a in range(d_max + 1) for d_b in range(d_max + 1)
                      for _ in range(repeats)]

    def ops(self, rng: random.Random, work: Path) -> list[Op]:
        ops = []
        for i, (n, d_a, d_b) in enumerate(self.sizes):
            spec = _oracle_config(rng, n, d_a, d_b)
            ops.append(Op(f"n={n} D={d_a}/{d_b}", spec, _write_config(work, i, spec)))
        return ops

    def run(self, op: Op, out: Path):
        with contextlib.redirect_stdout(io.StringIO()):  # the command prints its report
            return cli.cmd_oracle_diff(str(op.path))

    def check(self, op: Op, report: dict, out: Path) -> dict:
        if not report["within_tolerance"]:
            raise CheckFailed(
                f"flow {report['flow_value']} vs oracle {report['oracle_value']}, "
                f"certificate {report['certificate']}")
        return {}


WORKLOADS = {w.name: w for w in (SolvePair, BoundsGrid, OracleSmall)}
