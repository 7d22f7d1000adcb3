"""Working with equilibrium strategies: marginals, decomposition, certificates.

A flow from the minimax LP is only a marginal system; these tools turn it
into an explicit mixed strategy, compute exact best-response values by
dynamic programming over the layered graph, and certify whether a profile is
an equilibrium of the original game with costs.  The same dynamic program
drives :func:`solve_by_generation`, which grows the minimax LP from the
edges of best responses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .game import (
    CostBlottoGame,
    MixedStrategy,
    Number,
    PureStrategy,
    check_partial_assignment,
)
from .minimax import (FEAS_EPS, InvalidFlowError, MinimaxLP, SolveResult, StrategyFlow,
                      build_minimax_lp, solve)
from .reduction import SunkCostGame, build_sunk_cost, map_strategy, oriented_arrays
from .solver import OPTIMAL, SolverFailureError, get_backend

#: Default tolerance on best-response gaps in an equilibrium certificate.
CERTIFICATE_EPS = 1e-5

#: Edge generation stops when neither player's best response gains more
#: than this over the restricted optimum: the HiGHS backend's feasibility
#: tolerance.
GENERATION_GAP = 1e-9


@dataclass(frozen=True)
class Marginals:
    """Per-battlefield assignment distributions of one player.

    ``tables[i][t]`` is the probability of assigning ``t`` resources to
    battlefield ``i``.  Rows are normalized at construction, unless they sum
    to exactly 1; a row whose sum is off by more than the feasibility
    tolerance is rejected.
    """

    tables: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        rows = []
        for i, row in enumerate(self.tables):
            row = tuple(row)
            total = sum(row)
            if abs(total - 1) > FEAS_EPS:
                raise ValueError(
                    f"marginal row {i} sums to {total!r}, expected 1"
                )
            if min(row) < 0:
                for t, p in enumerate(row):
                    if p < -FEAS_EPS:
                        raise ValueError(
                            f"marginal row {i} has negative mass {p!r} at t={t}"
                        )
                row = tuple(0 if p < 0 else p for p in row)
                total = sum(row)
            # a row that sums to exactly 1 keeps its entries and their types
            rows.append(row if total == 1 else tuple(p / total for p in row))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("marginals must be non-empty rows of equal length")
        object.__setattr__(self, "tables", tuple(rows))

    @property
    def n_hat(self) -> int:
        return len(self.tables)

    @property
    def budget(self) -> int:
        return len(self.tables[0]) - 1


def marginals_from_flow(flow: StrategyFlow) -> Marginals:
    """Collapse a unit flow to its per-battlefield marginals."""
    g = flow.graph
    tables = np.zeros((g.n_hat, g.budget + 1))
    np.add.at(tables, (g.edge_field - 1, g.edge_assign), flow.edge_flow)
    return Marginals(tables=tuple(tuple(float(p) for p in row) for row in tables))


def marginals_from_mixed(xi: MixedStrategy, budget: int) -> Marginals:
    """Marginals of an explicit mixed strategy over full assignments."""
    n_hat = len(xi.support[0][0])
    tables = [[0] * (budget + 1) for _ in range(n_hat)]
    for s, p in xi.support:
        if len(s) != n_hat or sum(s) != budget:
            raise ValueError(
                f"support entry {s} is not a full assignment of {budget} "
                f"over {n_hat} battlefields"
            )
        for i, t in enumerate(s):
            tables[i][t] += p
    return Marginals(tables=tuple(tuple(row) for row in tables))


def decompose_flow(flow: StrategyFlow) -> MixedStrategy:
    """Peel a unit flow into an explicit mixed strategy over full assignments.

    Repeatedly traces a source-to-sink path along the highest-residual edge
    (preferring smaller assignments on ties), assigns it the bottleneck
    residual, and subtracts.  Each pass zeroes at least one edge of its path,
    which no later pass can take, so no path is traced twice, at most one
    support entry per edge is produced, and the result's marginals match the
    flow's.
    """
    g = flow.graph
    d = g.budget
    residual = flow.edge_flow.copy()
    source_edges = slice(0, d + 1)  # layer-1 edges out of (0, 0)
    entries: list[tuple[PureStrategy, float]] = []
    remaining = float(residual[source_edges].sum())
    while remaining > FEAS_EPS:
        path: list[int] = []
        assignment: list[int] = []
        cumulative = 0
        for field in range(1, g.n_hat + 1):
            # only the sink-bound edge can carry real flow in the last layer
            lo = d - cumulative if field == g.n_hat else 0
            base = g.edge_index(field, cumulative, 0)
            a = lo + int(np.argmax(residual[base + lo:base + d - cumulative + 1]))
            if residual[base + a] <= 0:
                raise InvalidFlowError(
                    f"stranded at battlefield {field} with cumulative "
                    f"{cumulative} and {remaining} flow left to route"
                )
            path.append(base + a)
            assignment.append(a)
            cumulative += a
        bottleneck = float(residual[path].min())
        residual[path] -= bottleneck
        entries.append((tuple(assignment), bottleneck))
        remaining -= bottleneck
    if not entries:
        raise InvalidFlowError("flow carries no mass out of the source")
    total = sum(p for _, p in entries)
    return MixedStrategy(support=tuple(sorted((s, p / total) for s, p in entries)))


def best_response_value(
    sunk: SunkCostGame, opp_marginals: Marginals, player: str
) -> tuple[Number, PureStrategy]:
    """Best payoff ``player`` can get against the opponent's marginals.

    Dynamic program over the responder's layered graph on the game's parts
    as :func:`oriented_arrays` orients them: own assignment ``a`` on
    battlefield ``i`` earns its expected valuation less its own cost, and the
    opponent's expected own cost, which no reply changes, is added once.  It
    runs in float64 when the game or the marginals hold a float, and on
    object arrays of the exact entries otherwise, so it is exact when the
    game and marginals are rational.  Returns the value and one maximizing
    full assignment, breaking ties toward smaller assignments battlefield by
    battlefield.
    """
    exact = not (_holds_float(opp_marginals.tables) or _holds_float(sunk.costs_a)
                 or _holds_float(sunk.costs_b)
                 or any(_holds_float(t) for t in sunk.valuations if t is not None))
    tables, costs_self, costs_opp = oriented_arrays(sunk, player, exact)
    m = np.array(opp_marginals.tables, dtype=object if exact else float)
    d_opp = costs_opp.shape[1] - 1
    if m.shape != costs_opp.shape:
        raise ValueError(
            f"opponent marginals have shape ({opp_marginals.n_hat}, "
            f"{opp_marginals.budget}), expected ({sunk.n_hat}, {d_opp})"
        )
    # every sum adds its terms one by one from 0, as Python's sum does, so
    # that float sums round as they would in plain Python
    expected = np.zeros(costs_self.shape, dtype=tables.dtype)
    for b in range(d_opp + 1):
        expected = expected + m[:, b, None] * tables[:, :, b]
    best, assignment = _best_path(expected - costs_self)
    # the opponent's own cost rows, as oriented_valuations orients them
    value = best + _expected_cost(sunk.costs_b if player == "A" else sunk.costs_a,
                                  opp_marginals)
    return (value if exact else float(value)), assignment


def _holds_float(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def _best_path(rewards: np.ndarray) -> tuple[Number, PureStrategy]:
    """The largest total reward of a full assignment, ``rewards[i][a]`` for
    assigning ``a`` to battlefield ``i``, and the assignment that earns it.

    ``best[j]`` is the best total from battlefield ``i`` onward with ``j``
    already spent: the last battlefield takes what is left, an earlier one
    the ``a`` that maximizes ``rewards[i][a]`` plus the next battlefield's
    ``best[j + a]``.  ``argmax`` keeps the first maximum, so ties go to the
    smaller ``a``."""
    size = rewards.shape[1]
    spent = np.arange(size)
    window = spent[:, None] + spent  # [j, a] -> j + a
    line = np.full(2 * size - 1, -np.inf, dtype=rewards.dtype)
    best = rewards[-1, ::-1]
    choices = []
    for row in rewards[-2::-1]:
        line[:size] = best
        totals = row + line[window]
        choice = totals.argmax(axis=1)
        best = totals[spent, choice]
        choices.append(choice)
    assignment = []
    j = 0
    for choice in reversed(choices):
        assignment.append(int(choice[j]))
        j += assignment[-1]
    assignment.append(size - 1 - j)
    return best[0], tuple(assignment)


def _expected_cost(costs: tuple[tuple[Number, ...], ...], marginals: Marginals) -> Number:
    """A player's expected own cost over its per-battlefield marginals."""
    return sum(p * c for row, m in zip(costs, marginals.tables) for c, p in zip(row, m))


def certify_equilibrium(
    game: CostBlottoGame,
    xi_a: MixedStrategy,
    xi_b: MixedStrategy,
    eps: float = CERTIFICATE_EPS,
) -> tuple[bool, Number, Number]:
    """Check a mixed profile of the game with costs for equilibrium.

    Returns ``(is_equilibrium, gap_a, gap_b)`` where each gap is how much
    that player could gain by deviating to a best response in the zero-sum
    companion game; both games share equilibria, so gaps at most ``eps``
    certify the profile for the game with costs as well.
    """
    for s, _ in xi_a.support:
        check_partial_assignment(s, game.budget_a, game.n)
    for s, _ in xi_b.support:
        check_partial_assignment(s, game.budget_b, game.n)
    sunk = build_sunk_cost(game)
    mapped_a = MixedStrategy(
        support=tuple((map_strategy(s, game.budget_a), p) for s, p in xi_a.support)
    )
    mapped_b = MixedStrategy(
        support=tuple((map_strategy(s, game.budget_b), p) for s, p in xi_b.support)
    )
    marg_a = marginals_from_mixed(mapped_a, game.budget_a)
    marg_b = marginals_from_mixed(mapped_b, game.budget_b)
    # independence across players makes the expected valuation bilinear in
    # the per-battlefield marginals; each player's own cost is linear in its own
    realized = sum(
        p_a * p_b * table[a][b]
        for table, row_a, row_b in zip(sunk.valuations, marg_a.tables, marg_b.tables)
        if table is not None
        for a, p_a in enumerate(row_a) if p_a
        for b, p_b in enumerate(row_b) if p_b
    ) - _expected_cost(sunk.costs_a, marg_a) + _expected_cost(sunk.costs_b, marg_b)
    br_a, _ = best_response_value(sunk, marg_b, "A")
    br_b, _ = best_response_value(sunk, marg_a, "B")
    gap_a = br_a - realized
    gap_b = br_b + realized
    return bool(gap_a <= eps and gap_b <= eps), gap_a, gap_b


def solve_by_generation(sunk: SunkCostGame, backend=None) -> SolveResult:
    """Player A's minimax optimum, grown edge by edge: a double oracle over
    the edges of both layered graphs, or column-and-row generation on the
    LP of :func:`build_minimax_lp`.

    The restricted :class:`MinimaxLP` starts from each player's best
    response to the opponent idling, with every resource on the extra
    battlefield.  Each round solves it, then finds both players' DP best
    responses to the other's restricted optimum, A's marginals read from the
    marginal columns and B's from the potential-row duals; a best response
    that gains more than :data:`GENERATION_GAP` places its path's edges.
    When neither does, the restricted optimum is an equilibrium of the full
    game.  All rounds run on one HiGHS model held by ``backend`` (the
    default one, whose simplex size rule takes the small first round), to
    which each round appends only the columns and rows its placement adds.
    The result's flows are over the full graphs, its value is the restricted
    objective, and its solution is the last round's with the rounds'
    iterations summed.

    A round that adds no edge while a gap is still open ends the rounds:
    its restricted optimum is returned when the gaps are within
    :func:`_stall_tolerance`, and :func:`build_minimax_lp`'s full LP is
    solved on ``backend`` otherwise.  Raises :class:`SolverFailureError`
    when a round ends unsolved or its marginals are unusable, or when a
    stall's full LP fails."""
    backend = backend if backend is not None else get_backend()
    lp = MinimaxLP(sunk)
    gs, go = lp.graph_self, lp.graph_opp
    lp.place(gs.path_edges(best_response_value(sunk, _idle(sunk.n_hat, sunk.budget_b), "A")[1]),
             go.path_edges(best_response_value(sunk, _idle(sunk.n_hat, sunk.budget_a), "B")[1]))
    iterations = 0
    while True:
        sol = backend.solve(lp.program)
        if sol.status != OPTIMAL:
            raise SolverFailureError(f"edge generation failed: {sol.status} {sol.message}")
        iterations += sol.iterations
        value = float(lp.program.objective @ sol.x)
        try:
            marg_a, marg_b = (Marginals(tables=tuple(map(tuple, m.tolist())))
                              for m in lp.marginals(sol))
        except ValueError as exc:
            raise SolverFailureError(f"edge generation unusable: {exc}") from exc
        gain_a, path_a = best_response_value(sunk, marg_b, "A")
        gain_b, path_b = best_response_value(sunk, marg_a, "B")
        open_a, open_b = gain_a - value > GENERATION_GAP, gain_b + value > GENERATION_GAP
        if not (open_a or open_b):
            return lp.result(replace(sol, iterations=iterations), "edge generation")
        none = np.array([], dtype=np.int64)
        if lp.place(gs.path_edges(path_a) if open_a else none,
                    go.path_edges(path_b) if open_b else none):
            continue
        # both best responses already lie in the restricted LP, so what is
        # left of the gaps is the LP's round-off at the game's payoff scale
        if max(gain_a - value, gain_b + value) <= _stall_tolerance(sunk):
            return lp.result(replace(sol, iterations=iterations), "edge generation")
        try:
            return solve(build_minimax_lp(sunk, "A"), backend)
        except SolverFailureError as exc:
            raise SolverFailureError(
                f"edge generation stalled: best-response gaps {gain_a - value:.3g} (A) and "
                f"{gain_b + value:.3g} (B) with no new edge, and the full LP failed: "
                f"{exc}") from exc


def _stall_tolerance(sunk: SunkCostGame) -> float:
    """The best-response gap a stalled generation accepts: :data:`GENERATION_GAP`
    relative to a bound on the absolute payoff of any pure profile, the sum
    over battlefields of the largest absolute valuation and both players'
    largest absolute costs, but never above :data:`CERTIFICATE_EPS`, the
    largest gap the default certificate accepts."""
    scale = sum(float(np.abs(part).max(axis=tuple(range(1, part.ndim))).sum())
                for part in oriented_arrays(sunk, "A"))
    return min(CERTIFICATE_EPS, GENERATION_GAP * max(1.0, scale))


def _idle(n_hat: int, budget: int) -> Marginals:
    """The marginals of putting every resource on the last battlefield."""
    return Marginals(tables=((1,) + (0,) * budget,) * (n_hat - 1)
                     + ((0,) * budget + (1,),))
