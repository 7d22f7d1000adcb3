"""Working with equilibrium strategies: marginals, decomposition, certificates.

A flow from the minimax LP is only a marginal system; these tools turn it
into an explicit mixed strategy, compute exact best-response values by
dynamic programming over the layered graph, and certify whether a profile is
an equilibrium of the original game with costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .game import (
    CostBlottoGame,
    MixedStrategy,
    Number,
    PureStrategy,
    check_partial_assignment,
)
from .minimax import FEAS_EPS, InvalidFlowError, StrategyFlow
from .reduction import SunkCostGame, build_sunk_cost, map_strategy, oriented_valuations

#: Default tolerance on best-response gaps in an equilibrium certificate.
CERTIFICATE_EPS = 1e-5


@dataclass(frozen=True)
class Marginals:
    """Per-battlefield assignment distributions of one player.

    ``tables[i][t]`` is the probability of assigning ``t`` resources to
    battlefield ``i``.  Rows are normalized at construction; a row whose sum
    is off by more than the feasibility tolerance is rejected.
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
            cleaned = []
            for t, p in enumerate(row):
                if p < 0:
                    if p < -FEAS_EPS:
                        raise ValueError(
                            f"marginal row {i} has negative mass {p!r} at t={t}"
                        )
                    p = 0
                cleaned.append(p)
            total = sum(cleaned)
            rows.append(tuple(p / total for p in cleaned))
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
    as :func:`oriented_valuations` orients them: own assignment ``a`` on
    battlefield ``i`` earns its expected valuation less its own cost, and the
    opponent's expected own cost, which no reply changes, is added once.
    Exact when the game and marginals are rational.  Returns the value and
    one maximizing full assignment, breaking ties toward smaller assignments
    battlefield by battlefield.
    """
    d_self, d_opp, tables, costs_self, costs_opp = oriented_valuations(sunk, player)
    if opp_marginals.n_hat != sunk.n_hat or opp_marginals.budget != d_opp:
        raise ValueError(
            f"opponent marginals have shape ({opp_marginals.n_hat}, "
            f"{opp_marginals.budget}), expected ({sunk.n_hat}, {d_opp})"
        )
    rewards = [
        [-own[a] if table is None
         else sum(m_b * table[a][b] for b, m_b in enumerate(m)) - own[a]
         for a in range(d_self + 1)]
        for table, own, m in zip(tables, costs_self, opp_marginals.tables)
    ]
    # after[i][j]: best total from battlefield i onward with j already spent;
    # the last battlefield takes what is left, an earlier one a, for row[a] +
    # after[i + 1][j + a]; max keeps the first maximum, so ties go to the
    # smaller a
    after = [[rewards[-1][d_self - j] for j in range(d_self + 1)]]
    for row in reversed(rewards[:-1]):
        after.append([max(map(add, row, after[-1][j:])) for j in range(d_self + 1)])
    after.reverse()
    assignment = []
    j = 0
    for i in range(sunk.n_hat - 1):
        a = next(a for a in range(d_self - j + 1)
                 if rewards[i][a] + after[i + 1][j + a] == after[i][j])
        assignment.append(a)
        j += a
    assignment.append(d_self - j)
    return after[0][0] + _expected_cost(costs_opp, opp_marginals), tuple(assignment)


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
