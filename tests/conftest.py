import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from costblotto import (CostBlottoGame, CostFunction, LayeredGraph, MixedStrategy,
                        StrategyFlow, Valuation, build_minimax_lp, build_sunk_cost, solve)
from costblotto.game import check_full_assignment
from costblotto.minimax import FLOW_DUST, _statistic_objective
from costblotto.solver import ScipyHighsBackend, SolverFailureError, _core


def example_one() -> CostBlottoGame:
    """n=2, budgets 2/2, sign valuations, no assignment costs, g(t)=t."""
    return CostBlottoGame(
        n=2,
        budget_a=2,
        budget_b=2,
        valuations=(Valuation.sign_form(1, 2, 2), Valuation.sign_form(1, 2, 2)),
        assign_costs_a=(CostFunction.zero(2), CostFunction.zero(2)),
        assign_costs_b=(CostFunction.zero(2), CostFunction.zero(2)),
        obtain_cost_a=CostFunction.linear(1, 2),
        obtain_cost_b=CostFunction.linear(1, 2),
    )


@pytest.fixture
def example_game() -> CostBlottoGame:
    return example_one()


def point_mass(s) -> MixedStrategy:
    """The mixed strategy that plays ``s`` for sure."""
    return MixedStrategy(support=((tuple(s), 1),))


def strategies(xi: MixedStrategy) -> list[tuple[int, ...]]:
    """The pure strategies of ``xi``'s support, in support order."""
    return [s for s, _ in xi.support]


def path_edges(graph: LayeredGraph, assignment) -> list[int]:
    """Edge indices of the source-to-sink path of one full assignment."""
    assignment = check_full_assignment(assignment, graph.budget, graph.n_hat)
    cumulative, path = 0, []
    for field, a in enumerate(assignment, start=1):
        path.append(graph.edge_index(field, cumulative, a))
        cumulative += a
    return path


def flow_from_mixed(graph: LayeredGraph, xi: MixedStrategy) -> StrategyFlow:
    """The flow that routes each support assignment of ``xi`` along its path."""
    flow = np.zeros(graph.num_edges)
    for s, p in xi.support:
        flow[path_edges(graph, s)] += p  # a path visits each layer once
    return StrategyFlow(graph=graph, edge_flow=flow)


#: Cost increments whose float sums are not dyadic, so that a change in the
#: order of floating-point operations shows up in results.
DECIMAL_INCREMENTS = (0.0, 0.1, 0.3, 0.7)


def random_cost(rng: random.Random, domain_max: int, exact: bool = False,
                increments=None) -> CostFunction:
    """Non-decreasing table cost with increments drawn from {0, 1/4, 1/2, 1},
    or from ``increments`` (such as :data:`DECIMAL_INCREMENTS`) when given."""
    if increments is None:
        increments = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    values = [Fraction(0)]
    for _ in range(domain_max):
        values.append(values[-1] + rng.choice(increments))
    if not exact:
        values = [float(v) for v in values]
    return CostFunction.from_table(tuple(values))


def random_game(rng: random.Random, n_max: int = 3, d_max: int = 5,
                exact: bool = False, increments=None, n_min: int = 2) -> CostBlottoGame:
    """Random instance of ``n_min``-``n_max`` battlefields: integer
    valuations in [-2, 2], random monotone costs (see :func:`random_cost`
    for ``increments``)."""
    n = rng.randint(n_min, n_max)
    d_a = rng.randint(0, d_max)
    d_b = rng.randint(0, d_max)
    vals = []
    for _ in range(n):
        if rng.random() < 0.5:
            vals.append(Valuation.sign_form(rng.randint(1, 2), d_a, d_b))
        else:
            rows = tuple(
                tuple(rng.randint(-2, 2) for _ in range(d_b + 1))
                for _ in range(d_a + 1)
            )
            vals.append(Valuation.from_table(rows))
    return CostBlottoGame(
        n=n,
        budget_a=d_a,
        budget_b=d_b,
        valuations=tuple(vals),
        assign_costs_a=tuple(random_cost(rng, d_a, exact, increments) for _ in range(n)),
        assign_costs_b=tuple(random_cost(rng, d_b, exact, increments) for _ in range(n)),
        obtain_cost_a=random_cost(rng, d_a, exact, increments),
        obtain_cost_b=random_cost(rng, d_b, exact, increments),
    )


#: Sign weights whose tables must keep ``w * sign(a - b)`` in value and type.
SIGN_WEIGHTS = [1, Fraction(1, 3), 0.1, 0.3, 0.7]


def decimal_step_game(rng: random.Random, weight, step: float) -> CostBlottoGame:
    """Random game with sign valuations of ``weight`` and float table costs
    summed in steps of ``step``.

    With a step such as 0.1 or 0.3 the cost tables are not dyadic, so a
    change in the order of floating-point operations shows up in results.
    """
    n = rng.randint(2, 3)
    d_a = rng.randint(0, 5)
    d_b = rng.randint(0, 5)

    def cost(d):
        values = [0.0]
        for _ in range(d):
            values.append(values[-1] + step * rng.randint(0, 3))
        return CostFunction.from_table(values)

    return CostBlottoGame(
        n=n,
        budget_a=d_a,
        budget_b=d_b,
        valuations=(Valuation.sign_form(weight, d_a, d_b),) * n,
        assign_costs_a=tuple(cost(d_a) for _ in range(n)),
        assign_costs_b=tuple(cost(d_b) for _ in range(n)),
        obtain_cost_a=cost(d_a),
        obtain_cost_b=cost(d_b),
    )


def own_cost_rows(game, player):
    """``player``'s own cost of each assignment per battlefield of the
    sunk-cost game, through the cost functions: its assignment costs, then
    the obtainment cost of the ``budget - t`` an unspent ``t`` leaves."""
    if player == "A":
        assign, obtain, d = game.assign_costs_a, game.obtain_cost_a, game.budget_a
    else:
        assign, obtain, d = game.assign_costs_b, game.obtain_cost_b, game.budget_b
    return tuple(tuple(c(t) for t in range(d + 1)) for c in assign) + (
        tuple(obtain(d - t) for t in range(d + 1)),)


def sunk_payoff(sunk, s_a, s_b):
    """A's payoff of a full-assignment profile in a sunk-cost game, summed
    from its parts: ``valuations[i][a][b] - costs_a[i][a] + costs_b[i][b]``
    per battlefield, with no valuation term where the table is ``None``."""
    return sum((0 if table is None else table[a][b]) - ca[a] + cb[b]
               for table, ca, cb, a, b in zip(sunk.valuations, sunk.costs_a, sunk.costs_b,
                                              s_a, s_b))


def reduced_costs(backend: ScipyHighsBackend) -> np.ndarray:
    """Per column of the LP ``backend`` last solved, the rate at which its
    optimum grows with the column's lower bound (so <= 0 for a ``max`` LP,
    and 0 for a column off its lower bound), read from the model HiGHS
    holds: its basis statuses and column duals.  Only after an optimal
    solve and before the next one."""
    highs, lp = backend._highs, backend._lp
    if lp is None or highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
        raise SolverFailureError("no optimal solution is held to read reduced costs from")
    at_lower = np.fromiter((status.value for status in highs.getBasis().col_status), np.int8,
                           lp.num_vars) == _core.HighsBasisStatus.kLower.value
    sign = 1.0 if lp.sense == "min" else -1.0
    return sign * np.where(at_lower, highs.getSolution().col_dual, 0.0)


def full_lp_face(game: CostBlottoGame, backend: ScipyHighsBackend):
    """The optimal face of the full A-perspective LP, read from HiGHS: a
    cold solve on ``backend``, a fresh one, then complementary slackness
    with its optimal dual.  A feasible point is optimal exactly when every
    column with a reduced cost beyond ``FLOW_DUST`` sits on its lower bound
    and every ``<=`` row with a dual beyond it (B's dual-flow support and
    the value row, which lead the rows) is tight.  Returns the model, the
    face LP, and the masks of those columns and rows."""
    model = build_minimax_lp(build_sunk_cost(game), "A")
    base = solve(model, backend)
    fixed = np.abs(reduced_costs(backend)) > FLOW_DUST
    tight = np.abs(base.solution.row_duals[:model.graph_opp.num_edges + 1]) > FLOW_DUST
    program = model.program
    upper, row_lower = program.upper.copy(), program.row_lower.copy()
    upper[fixed] = program.lower[fixed]
    row_lower[:tight.size][tight] = program.row_upper[:tight.size][tight]
    return model, replace(program, upper=upper, row_lower=row_lower), fixed, tight


def full_lp_face_bounds(game: CostBlottoGame, statistics) -> dict:
    """Each bound that ``equilibrium_statistic_bounds`` returns, from
    :func:`full_lp_face`'s face LP, re-solved on the backend that solved the
    full LP from its basis: an oracle that shares the LP's formulation but
    neither edge generation nor the dynamic program's face."""
    backend = ScipyHighsBackend()
    model, face, _, _ = full_lp_face(game, backend)
    bounds = {}
    for name, statistic in statistics.items():
        objective = _statistic_objective(model, statistic)
        bounds[name] = {direction: backend.solve(
            replace(face, sense=direction, objective=objective)).objective
            for direction in ("min", "max")}
    return bounds
