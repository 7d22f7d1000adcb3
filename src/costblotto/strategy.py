"""Working with equilibrium strategies: marginals, decomposition, certificates.

A flow from the minimax LP is only a marginal system; these tools turn it
into an explicit mixed strategy, compute exact best-response values by
dynamic programming over the layered graph, and certify whether a profile is
an equilibrium of the original game with costs.  The same dynamic program
drives :func:`solve_by_generation`, which grows the minimax LP from the
edges of best responses, and finds the edges of every near-best response,
which bound player A's optimal face in
:func:`~costblotto.minimax.equilibrium_statistic_bounds`.
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
from .minimax import (FEAS_EPS, InvalidFlowError, LayeredGraph, MinimaxLP, SolveResult,
                      StrategyFlow, build_minimax_lp, solve)
from .reduction import SunkCostGame, build_sunk_cost, map_strategy, oriented_arrays
from .solver import OPTIMAL, SolverFailureError, get_backend

#: Default tolerance on best-response gaps in an equilibrium certificate.
CERTIFICATE_EPS = 1e-5

#: Edge generation stops when neither player's best response gains more
#: than this over the restricted optimum: the HiGHS backend's feasibility
#: tolerance.
GENERATION_GAP = 1e-9

#: Rounds of fictitious play whose paths make edge generation's start
#: (:func:`generation_start`); 0 starts from the idle best responses alone.
#: The 17 figure-grid points the bounds-grid benchmark draws from (n = 4,
#: D = 40, c0_inv 6-10) took 3.14-3.37 s of process time from the idle
#: start, 2.59-2.89 s from 50 rounds, 2.13-2.37 s from 100 and 2.03-2.38 s
#: from 200 (two interleaved runs, 2-core x86_64 VM).  The start costs about
#: 13 ms there and 0.44 s at n = 50, D = 100, in proportion to the rounds.
FICTITIOUS_PLAY_ROUNDS = 100


@dataclass(frozen=True, eq=False)
class Marginals:
    """Per-battlefield assignment distributions of one player.

    ``tables[i, t]`` is the probability of assigning ``t`` resources to
    battlefield ``i``, in a read-only array: float64 when any entry given is a
    float, and otherwise an object array of the exact entries.  Rows are
    normalized at construction, unless they sum to exactly 1; a row whose sum
    is not within the feasibility tolerance of 1 is rejected.
    """

    tables: np.ndarray

    def __post_init__(self):
        m = self.tables
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64):
            m = np.array(m, dtype=object)  # ints and Fractions stay Python numbers
        if m.ndim != 2 or not m.size:
            raise ValueError("marginals must be non-empty rows of equal length")
        if m.dtype == object and any(isinstance(p, float) for p in m.flat):
            m = m.astype(float)
        # every sum adds its terms one by one, as Python's sum does
        total = np.cumsum(m, axis=1)[:, -1]
        off = ~(np.abs(total - 1) <= FEAS_EPS)  # so a NaN or infinite sum is off
        if off.any():
            i = off.argmax()
            raise ValueError(f"marginal row {i} sums to {total.tolist()[i]!r}, expected 1")
        negative = m < -FEAS_EPS
        if negative.any():
            i, t = np.argwhere(negative)[0]
            raise ValueError(
                f"marginal row {i} has negative mass {m.tolist()[i][t]!r} at t={t}")
        m = np.where(m < 0, 0, m)
        total = np.cumsum(m, axis=1)[:, -1]
        # a row that sums to exactly 1 keeps its entries and their types; an
        # exact one that does not holds a Fraction, so its quotients do too
        m = np.where((total == 1)[:, None], m, m / total[:, None])
        m.flags.writeable = False
        object.__setattr__(self, "tables", m)

    @property
    def n_hat(self) -> int:
        return self.tables.shape[0]

    @property
    def budget(self) -> int:
        return self.tables.shape[1] - 1


def marginals_from_flow(flow: StrategyFlow) -> Marginals:
    """Collapse a unit flow to its per-battlefield marginals."""
    g = flow.graph
    tables = np.zeros((g.n_hat, g.budget + 1))
    np.add.at(tables, (g.edge_field - 1, g.edge_assign), flow.edge_flow)
    return Marginals(tables=tables)


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
    return Marginals(tables=tables)


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
    is exact, on object arrays of the exact entries, when the marginals are
    (their dtype is object) and the game holds no float, and runs in float64
    otherwise.  Returns the value, a ``float`` or the exact type, and one
    maximizing full assignment, breaking ties toward smaller assignments
    battlefield by battlefield.
    """
    rewards, opp_cost = _rewards(sunk, opp_marginals, player)
    best, assignment = _best_path(rewards)
    return best + opp_cost, assignment


def best_response_edges(sunk: SunkCostGame, opp_marginals: Marginals, player: str,
                        tolerance: float) -> np.ndarray:
    """Per edge of ``player``'s layered graph, whether it lies on a full
    assignment that earns within ``tolerance`` of ``player``'s best
    response to the opponent's marginals.

    The best total reward of a path through an edge is a forward dynamic
    program from the source to the edge's tail, plus the edge's reward,
    plus a backward one from its head to the sink, over the rewards that
    :func:`best_response_value` maximizes, in float64.  The backward
    program's value at the source is the best response."""
    rewards = np.asarray(_rewards(sunk, opp_marginals, player)[0], dtype=float)
    n_hat, size = rewards.shape
    graph = LayeredGraph(n_hat, size - 1)
    layer, tail = graph.edge_field - 1, graph.edge_tail
    head = tail + graph.edge_assign
    reward = rewards[layer, graph.edge_assign]
    forward = np.full((n_hat + 1, size), -np.inf)
    backward = forward.copy()
    forward[0, 0] = backward[-1, -1] = 0.0
    layers = [slice(i * graph.edges_per_layer, (i + 1) * graph.edges_per_layer)
              for i in range(n_hat)]
    for i, edges in enumerate(layers):
        np.maximum.at(forward[i + 1], head[edges], forward[i, tail[edges]] + reward[edges])
    for i, edges in reversed(list(enumerate(layers))):
        np.maximum.at(backward[i], tail[edges], reward[edges] + backward[i + 1, head[edges]])
    through = forward[layer, tail] + reward + backward[layer + 1, head]
    return through >= backward[0, 0] - tolerance


def _rewards(sunk: SunkCostGame, opp_marginals: Marginals, player: str):
    """Per battlefield ``i`` and own assignment ``a``, what ``player`` earns
    there against the opponent's marginals: the expected valuation less its
    own cost; and the opponent's expected own cost.  Exact, an object array
    and a number of the exact type, when the marginals are exact and the
    game holds no float; a float64 array and a ``float`` otherwise."""
    m = opp_marginals.tables
    exact = m.dtype == object and not (
        _holds_float(sunk.costs_a) or _holds_float(sunk.costs_b)
        or any(_holds_float(t) for t in sunk.valuations if t is not None))
    tables, costs_self, costs_opp = oriented_arrays(sunk, player, exact)
    m = m if exact else m.astype(float, copy=False)
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
    return expected - costs_self, sum((m * costs_opp).ravel().tolist())


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
    return best.tolist()[0], tuple(assignment)


def certify_equilibrium(
    game: CostBlottoGame,
    xi_a: MixedStrategy,
    xi_b: MixedStrategy,
    eps: float = CERTIFICATE_EPS,
    sunk: SunkCostGame | None = None,
) -> tuple[bool, Number, Number]:
    """Check a mixed profile of the game with costs for equilibrium.

    Returns ``(is_equilibrium, gap_a, gap_b)`` where each gap is how much
    that player could gain by deviating to a best response in the zero-sum
    companion game; both games share equilibria, so gaps at most ``eps``
    certify the profile for the game with costs as well.  The gaps are exact
    when the game and the probabilities are, and ``float``s otherwise.
    ``sunk``, the game's sunk-cost form, is built from ``game`` unless given.
    """
    marginals = []
    for xi, budget in ((xi_a, game.budget_a), (xi_b, game.budget_b)):
        for s, _ in xi.support:
            check_partial_assignment(s, budget, game.n)
        mapped = MixedStrategy(support=tuple((map_strategy(s, budget), p) for s, p in xi.support))
        marginals.append(marginals_from_mixed(mapped, budget))
    marg_a, marg_b = marginals
    if sunk is None:
        sunk = build_sunk_cost(game)
    # independence across players makes A's expected payoff its rewards
    # against B's marginals weighted by its own, plus B's expected own cost;
    # a float on either side makes each product a float
    rewards, cost_b = _rewards(sunk, marg_b, "A")
    best_a, _ = _best_path(rewards)
    realized = sum((marg_a.tables * rewards).ravel().tolist()) + cost_b
    br_b, _ = best_response_value(sunk, marg_a, "B")
    gap_a = best_a + cost_b - realized
    gap_b = br_b + realized
    return bool(gap_a <= eps and gap_b <= eps), gap_a, gap_b


def solve_by_generation(sunk: SunkCostGame, backend=None) -> SolveResult:
    """Player A's minimax optimum, grown edge by edge from
    :func:`generation_start`, the paths of fictitious play, by
    :func:`generate_edges` on ``backend`` (the default one, whose size rule
    solves the first round cold by simplex, or by interior point when the
    start reaches :data:`~costblotto.solver.SIMPLEX_BELOW_COLUMNS` columns)."""
    lp = build_minimax_lp(sunk, "A", *generation_start(sunk))
    return generate_edges(lp, sunk, backend if backend is not None else get_backend())[0]


def generation_start(sunk: SunkCostGame) -> tuple[np.ndarray, np.ndarray]:
    """The edges edge generation starts from, A's and B's: those of every
    path played in :data:`FICTITIOUS_PLAY_ROUNDS` rounds of fictitious play
    (Brown, 1951).  Round 0 is A's best response to B idling, with every
    resource on the extra battlefield, and B's best response to A idling.
    In each later round, each player plays the DP best response to the
    average of the paths the opponent played in the rounds before, over
    float64 rewards: the start is a heuristic only, and generation's stop
    rule proves the optimum from any start."""
    played = ([best_response_value(sunk, _idle(sunk.n_hat, sunk.budget_b), "A")[1]],
              [best_response_value(sunk, _idle(sunk.n_hat, sunk.budget_a), "B")[1]])
    counts = [np.zeros((sunk.n_hat, d + 1)) for d in (sunk.budget_a, sunk.budget_b)]
    parts = [oriented_arrays(sunk, player) for player in "AB"]
    fields = np.arange(sunk.n_hat)
    for k in range(1, FICTITIOUS_PLAY_ROUNDS + 1):
        for count, paths in zip(counts, played):
            count[fields, paths[-1]] += 1
        for (tables, costs_self, _), paths, opp_count in zip(parts, played, counts[::-1]):
            rewards = np.einsum("iab,ib->ia", tables, opp_count / k) - costs_self
            paths.append(_best_path(rewards)[1])
    graphs = (LayeredGraph(sunk.n_hat, d) for d in (sunk.budget_a, sunk.budget_b))
    return tuple(np.unique(np.concatenate([graph.path_edges(p) for p in set(paths)]))
                 for graph, paths in zip(graphs, played))


def generate_edges(lp: MinimaxLP, sunk: SunkCostGame, backend) -> tuple[SolveResult, float]:
    """Grow the restricted A-perspective ``lp`` to a minimax optimum of the
    full game: a double oracle over the edges of both layered graphs, or
    column-and-row generation on the LP of :func:`build_minimax_lp`.

    ``lp`` holds the start's edges, :func:`generation_start`'s for
    :func:`solve_by_generation` and the bounds; the more of an equilibrium's
    support they hold, the fewer rounds run.  Each round solves ``lp``, then
    finds both players' DP best responses to the other's restricted optimum,
    A's marginals read from the marginal columns and B's from the
    potential-row duals; a best response that gains more than
    :data:`GENERATION_GAP` places its path's edges.  When
    neither does, the restricted optimum is an equilibrium of the full game.
    All rounds run on one HiGHS model held by ``backend``, to which each
    round appends only the columns and rows its placement adds.  The
    result's flows are over the full graphs, its value is the restricted
    objective, and its solution is the last round's with the rounds'
    iterations summed.  Returned with it is the best-response gap that the
    rule which stopped the rounds accepts.

    A round that adds no edge while a gap is still open ends the rounds:
    its restricted optimum is returned when the gaps are within
    :func:`stall_tolerance`, and otherwise every edge is placed, which
    makes ``lp`` the full LP, and that is solved; either way the accepted
    gap is :func:`stall_tolerance`.  Raises :class:`SolverFailureError`
    when a round ends unsolved or its marginals are unusable, or when a
    stall's full LP fails."""
    gs, go = lp.graph_self, lp.graph_opp
    iterations = 0
    while True:
        sol = backend.solve(lp.program)
        if sol.status != OPTIMAL:
            raise SolverFailureError(f"edge generation failed: {sol.status} {sol.message}")
        iterations += sol.iterations
        value = float(lp.program.objective @ sol.x)
        try:
            marg_a, marg_b = (Marginals(tables=m) for m in lp.marginals(sol))
        except ValueError as exc:
            raise SolverFailureError(f"edge generation unusable: {exc}") from exc
        gain_a, path_a = best_response_value(sunk, marg_b, "A")
        gain_b, path_b = best_response_value(sunk, marg_a, "B")
        open_a, open_b = gain_a - value > GENERATION_GAP, gain_b + value > GENERATION_GAP
        if not (open_a or open_b):
            return lp.result(replace(sol, iterations=iterations), "edge generation"), GENERATION_GAP
        none = np.array([], dtype=np.int64)
        if lp.place(gs.path_edges(path_a) if open_a else none,
                    go.path_edges(path_b) if open_b else none):
            continue
        # both best responses already lie in the restricted LP, so what is
        # left of the gaps is the LP's round-off at the game's payoff scale
        tolerance = stall_tolerance(sunk)
        if max(gain_a - value, gain_b + value) <= tolerance:
            return lp.result(replace(sol, iterations=iterations), "edge generation"), tolerance
        lp.place(np.arange(gs.num_edges), np.arange(go.num_edges))
        try:
            return solve(lp, backend), tolerance
        except SolverFailureError as exc:
            raise SolverFailureError(
                f"edge generation stalled: best-response gaps {gain_a - value:.3g} (A) and "
                f"{gain_b + value:.3g} (B) with no new edge, and the full LP failed: "
                f"{exc}") from exc


def stall_tolerance(sunk: SunkCostGame) -> float:
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
    tables = np.zeros((n_hat, budget + 1), dtype=object)
    tables[:-1, 0] = tables[-1, -1] = 1
    return Marginals(tables=tables)
