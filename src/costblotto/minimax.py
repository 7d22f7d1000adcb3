"""Polynomial-size minimax LP for sunk-cost contests.

Because battlefield payoffs add up and the players randomize independently,
a mixed strategy matters only through its per-battlefield marginals, and the
feasible marginal systems of one player are exactly the unit source-to-sink
flows of a layered graph that tracks cumulative assignment.  The maximizing
player's strategy therefore becomes a flow; the opponent's best reply is a
shortest source-to-sink path in its own layered graph under expected edge
payoffs, which node potentials bound from below.  One LP in both yields the
game value with variable and constraint counts quadratic in the budget and
linear in the battlefield count, instead of the exponential strategy space.

A player's own costs depend on its own assignment only, so they couple
nothing: the LP's matrix holds only the valuations, the perspective player's
costs are terms of the objective and the opponent's are bounds of its
potential rows.  The matrix of a game is the same whatever its costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .game import CostBlottoGame
from .reduction import SunkCostGame, build_sunk_cost, oriented_valuations
from .solver import (OPTIMAL, BackendSolution, CsrMatrix, LinearProgram, SolverFailureError,
                     get_backend)

#: Flow conservation / feasibility tolerance.
FEAS_EPS = 1e-7
#: Flows, duals and reduced costs smaller than this are treated as exact
#: zeros after a solve.
FLOW_DUST = 1e-9


class InvalidFlowError(ValueError):
    """An edge-flow vector is not a unit source-to-sink flow."""


class LayeredGraph:
    """Layered DAG whose unit flows encode budget-feasible marginal systems.

    Nodes are ``(layer, cumulative)`` pairs for layers ``0..n_hat`` and
    cumulative resources ``0..budget``; battlefield ``i`` contributes edges
    ``(i-1, j) -> (i, j+a)`` for every assignment ``a`` with
    ``j + a <= budget``.  A unit flow from ``(0, 0)`` to ``(n_hat, budget)``
    is exactly a mixed strategy seen through its per-battlefield marginals:
    the flow on assignment-``a`` edges of layer ``i`` is the probability of
    assigning ``a`` to battlefield ``i``.
    """

    def __init__(self, n_hat: int, budget: int):
        if n_hat < 1 or budget < 0:
            raise ValueError(f"invalid graph shape n_hat={n_hat}, budget={budget}")
        self.n_hat = n_hat
        self.budget = budget
        d = budget
        self.edges_per_layer = (d + 1) * (d + 2) // 2
        counts = np.arange(d + 1, 0, -1)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        layer_tail = np.repeat(np.arange(d + 1), counts)
        layer_assign = np.arange(self.edges_per_layer) - self._offsets[layer_tail]
        self.edge_field = np.repeat(np.arange(1, n_hat + 1), self.edges_per_layer)
        self.edge_tail = np.tile(layer_tail, n_hat)
        self.edge_assign = np.tile(layer_assign, n_hat)
        for arr in (self.edge_field, self.edge_tail, self.edge_assign, self._offsets):
            arr.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return (self.n_hat + 1) * (self.budget + 1)

    @property
    def num_edges(self) -> int:
        return self.n_hat * self.edges_per_layer

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.num_nodes - 1

    def edge_index(self, field: int, tail: int, assign: int) -> int:
        """The edge ``(field - 1, tail) -> (field, tail + assign)``, which
        must exist: ``1 <= field <= n_hat`` and ``tail + assign <= budget``."""
        return (field - 1) * self.edges_per_layer + int(self._offsets[tail]) + assign

    def tail_nodes(self) -> np.ndarray:
        return (self.edge_field - 1) * (self.budget + 1) + self.edge_tail

    def head_nodes(self) -> np.ndarray:
        return self.edge_field * (self.budget + 1) + self.edge_tail + self.edge_assign

    def __eq__(self, other):
        return (isinstance(other, LayeredGraph)
                and self.n_hat == other.n_hat and self.budget == other.budget)

    def __repr__(self):
        return f"LayeredGraph(n_hat={self.n_hat}, budget={self.budget})"


@dataclass(frozen=True)
class StrategyFlow:
    """A unit source-to-sink flow over a layered graph, indexed like its edges.

    Construction rejects entries below ``-FEAS_EPS``, sets those under
    ``FLOW_DUST`` to zero, then checks conservation at ``FEAS_EPS``; each
    failure raises :class:`InvalidFlowError`, so every instance is valid.
    """

    graph: LayeredGraph
    edge_flow: np.ndarray

    def __post_init__(self):
        flow = np.asarray(self.edge_flow, dtype=float)
        if flow.shape != (self.graph.num_edges,):
            raise InvalidFlowError(
                f"flow has shape {flow.shape}, expected ({self.graph.num_edges},)"
            )
        worst_negative = float(flow.min(initial=0.0))
        if worst_negative < -FEAS_EPS:
            raise InvalidFlowError(f"negative entry {worst_negative} beyond {FEAS_EPS}")
        flow = np.maximum(flow, 0.0)
        flow[flow < FLOW_DUST] = 0.0
        flow.flags.writeable = False
        object.__setattr__(self, "edge_flow", flow)
        worst = float(np.abs(self.node_imbalance()).max())
        if worst > FEAS_EPS:
            raise InvalidFlowError(
                f"flow conservation violated by {worst} (tolerance {FEAS_EPS})"
            )

    def node_imbalance(self) -> np.ndarray:
        """Inflow minus outflow per node, net of the unit supply/demand."""
        balance = np.zeros(self.graph.num_nodes)
        np.add.at(balance, self.graph.head_nodes(), self.edge_flow)
        np.subtract.at(balance, self.graph.tail_nodes(), self.edge_flow)
        balance[self.graph.source] += 1.0
        balance[self.graph.sink] -= 1.0
        return balance


@dataclass(frozen=True)
class MinimaxLP:
    """The assembled LP plus the index layout needed to read solutions back.

    Variables are, in order: the perspective player's edge flows, its
    per-battlefield marginals (one per assignment level), the opponent's
    expected per-assignment battlefield payoffs, the opponent's node
    potentials, and the value variable.  The marginal and expected-payoff
    variables are definitional; they keep every constraint row short.  The
    objective, maximized, is the value variable less the perspective
    player's own costs on its marginals.  Rows are, in order, the ``<=`` rows
    (``row_lower`` is ``-inf``): one opponent-potential row per opponent
    edge, bounded by the opponent's own cost of that edge's assignment, whose
    duals form the opponent's equilibrium flow, then the value row; then the
    equalities: flow conservation per node, the marginals and the expected
    payoffs of the valuations alone.
    """

    program: LinearProgram
    graph_self: LayeredGraph
    graph_opp: LayeredGraph
    flow_slice: slice
    marginal_slice: slice
    value_index: int

    @property
    def num_vars(self) -> int:
        return self.program.num_vars

    @property
    def num_constraints(self) -> int:
        return self.program.num_constraints


@dataclass(frozen=True)
class SolveResult:
    """A checked optimum in flow form; ``status`` is always ``OPTIMAL``.
    ``value`` is the minimax objective at the solution: the value variable
    less the perspective player's expected own costs, which at a minimax
    optimum, and at every point of its optimal face, is the game value seen
    from the perspective player.  ``opponent_flow``, the opponent's
    equilibrium flow read from the row duals, is set by minimax solves only,
    not by optimal-face witnesses.
    ``solution`` is the backend's answer: its iteration counts and row duals
    and, for the stage one of :func:`equilibrium_statistic_bounds` only, the
    reduced costs that with the row duals define the optimal face."""

    status: str
    value: float
    flow: StrategyFlow
    solution: BackendSolution
    opponent_flow: StrategyFlow | None = None


def build_minimax_lp(sunk: SunkCostGame, perspective: str = "A") -> MinimaxLP:
    """Assemble the maximin LP of ``perspective`` over both layered graphs.

    The perspective player maximizes a value variable, bounded by the
    opponent's sink potential, less its expected own costs; potentials are
    constrained edge-by-edge so the sink potential never exceeds the
    opponent's cheapest reply against the chosen flow's marginals, each edge
    priced at its expected valuation plus the opponent's own cost.  At the
    optimum the objective is the game value seen from ``perspective``.
    """
    n_hat = sunk.n_hat
    d_self, d_opp, tables, c_self, c_opp = oriented_valuations(sunk, perspective)
    # the battlefields with a valuation and their tables w
    fields = np.flatnonzero([t is not None for t in tables])
    w = np.array([t for t in tables if t is not None], dtype=float).reshape(
        len(fields), d_self + 1, d_opp + 1)
    c_self, c_opp = np.array(c_self, dtype=float), np.array(c_opp, dtype=float)
    gs = LayeredGraph(n_hat, d_self)
    go = LayeredGraph(n_hat, d_opp)

    e_s, v_s = gs.num_edges, gs.num_nodes
    e_o, v_o = go.num_edges, go.num_nodes
    n_marg = n_hat * (d_self + 1)
    n_pay = n_hat * (d_opp + 1)
    col_f = 0
    col_h = e_s
    col_q = col_h + n_marg
    col_pi = col_q + n_pay
    col_t = col_pi + v_o
    num_vars = col_t + 1
    row_node = e_o + 1  # the equalities follow the e_o + 1 <= rows
    row_marg = row_node + v_s
    row_pay = row_marg + n_marg
    num_rows = row_pay + n_pay

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=float))

    # unit-flow conservation at every node of the perspective player's graph
    edge_ids = np.arange(e_s)
    add(row_node + gs.head_nodes(), edge_ids, np.ones(e_s))
    add(row_node + gs.tail_nodes(), edge_ids, -np.ones(e_s))
    # marginals: h[i, a] equals the total flow on layer i's assignment-a edges
    marg_of_edge = row_marg + (gs.edge_field - 1) * (d_self + 1) + gs.edge_assign
    add(marg_of_edge, edge_ids, -np.ones(e_s))
    add(row_marg + np.arange(n_marg), col_h + np.arange(n_marg), np.ones(n_marg))
    # expected payoffs: q[i, b] equals sum_a w[k, a, b] * h[i, a] on the
    # k-th battlefield i with a valuation, and 0 on the others
    add(row_pay + np.arange(n_pay), col_q + np.arange(n_pay), np.ones(n_pay))
    k_idx = np.repeat(np.arange(len(fields)), (d_opp + 1) * (d_self + 1))
    b_idx = np.tile(np.repeat(np.arange(d_opp + 1), d_self + 1), len(fields))
    a_idx = np.tile(np.arange(d_self + 1), len(fields) * (d_opp + 1))
    add(row_pay + fields[k_idx] * (d_opp + 1) + b_idx,
        col_h + fields[k_idx] * (d_self + 1) + a_idx,
        -w[k_idx, a_idx, b_idx])
    # opponent potentials: pi[head] <= pi[tail] + q[i, b] + c_opp[i, b]
    # along every edge, the opponent's own cost as the row's bound
    opp_rows = np.arange(e_o)
    add(opp_rows, col_pi + go.head_nodes(), np.ones(e_o))
    add(opp_rows, col_pi + go.tail_nodes(), -np.ones(e_o))
    add(opp_rows, col_q + (go.edge_field - 1) * (d_opp + 1) + go.edge_assign,
        -np.ones(e_o))
    # the value never exceeds the opponent's sink potential
    add([e_o], [col_t], [1.0])
    add([e_o], [col_pi + go.sink], [-1.0])

    # zero valuation cells (a sign valuation's ties among them) are not stored
    a = CsrMatrix.from_triplets((num_rows, num_vars), np.concatenate(rows),
                                np.concatenate(cols), np.concatenate(vals))

    row_upper = np.zeros(num_rows)
    row_upper[:e_o] = c_opp[go.edge_field - 1, go.edge_assign]
    row_upper[row_node + gs.source] = -1.0
    row_upper[row_node + gs.sink] = 1.0
    row_lower = row_upper.copy()
    row_lower[:row_node] = -np.inf

    lower = np.zeros(num_vars)
    upper = np.full(num_vars, np.inf)
    lower[col_q:] = -np.inf
    lower[col_pi + go.source] = upper[col_pi + go.source] = 0.0

    objective = np.zeros(num_vars)
    objective[col_h:col_q] = -c_self.ravel()
    objective[col_t] = 1.0

    program = LinearProgram(sense="max", objective=objective, a=a, row_lower=row_lower,
                            row_upper=row_upper, lower=lower, upper=upper)
    return MinimaxLP(
        program=program,
        graph_self=gs,
        graph_opp=go,
        flow_slice=slice(0, e_s),
        marginal_slice=slice(col_h, col_h + n_marg),
        value_index=col_t,
    )


def _result_from_solution(model: MinimaxLP, sol: BackendSolution, what: str,
                          witness: bool = False) -> SolveResult:
    """The optimum in ``sol`` with its flows built and checked; any other
    outcome raises :class:`SolverFailureError` naming ``what``."""
    if sol.status != OPTIMAL:
        raise SolverFailureError(f"{what} failed: {sol.status} {sol.message}")
    flow = opponent_flow = None
    try:
        flow = StrategyFlow(model.graph_self, sol.x[model.flow_slice])
        if not witness:  # the opponent-potential rows lead
            opponent_flow = StrategyFlow(
                model.graph_opp, sol.row_duals[:model.graph_opp.num_edges])
    except InvalidFlowError as exc:
        which = "flow" if flow is None else "opponent flow from the row duals"
        raise SolverFailureError(f"{what} unusable: {which}: {exc}") from exc
    return SolveResult(status=OPTIMAL, value=float(model.program.objective @ sol.x), flow=flow,
                       solution=sol, opponent_flow=opponent_flow)


def solve(model: MinimaxLP, backend=None) -> SolveResult:
    """Solve an assembled minimax LP; raises :class:`SolverFailureError`
    unless it gives an optimum with valid flows for both players."""
    backend = backend if backend is not None else get_backend()
    return _result_from_solution(model, backend.solve(model.program), "minimax solve")


def _statistic_objective(model: MinimaxLP, statistic) -> np.ndarray:
    n_hat, d_self = model.graph_self.n_hat, model.graph_self.budget
    weights = [tuple(row) for row in statistic]
    if len(weights) != n_hat or any(len(row) != d_self + 1 for row in weights):
        raise ValueError(
            f"statistic must supply {n_hat} weight rows of length {d_self + 1}"
        )
    objective = np.zeros(model.num_vars)
    objective[model.marginal_slice] = [float(x) for row in weights for x in row]
    return objective


def _solve_with_face(model: MinimaxLP, backend) -> SolveResult:
    """:func:`solve`, with the reduced costs of the optimum read from the
    model ``backend`` still holds, as :func:`face_masks` needs them."""
    result = solve(model, backend)
    return replace(result, solution=replace(result.solution,
                                            reduced_costs=backend.reduced_costs()))


def face_masks(result: SolveResult) -> tuple[np.ndarray, np.ndarray]:
    """Columns with a nonzero reduced cost and ``<=`` rows with a nonzero
    dual in a minimax optimum from :func:`_solve_with_face`, both beyond
    ``FLOW_DUST``.  The ``<=`` rows lead: one per opponent edge, then the
    value row."""
    sol = result.solution
    return (np.abs(sol.reduced_costs) > FLOW_DUST,
            np.abs(sol.row_duals[:result.opponent_flow.graph.num_edges + 1]) > FLOW_DUST)


def _optimal_face(model: MinimaxLP, result: SolveResult) -> LinearProgram:
    """The LP of ``model`` restricted to the optimal face of its solution.

    By complementary slackness with the optimal dual of ``result``, a feasible
    point is optimal exactly when every column with a nonzero reduced cost
    sits on its lower bound (A's flow edges on no best response to B's dual
    equilibrium) and every ``<=`` row with a nonzero dual (B's dual-flow
    support and the value row) is tight: fix the former, and raise the
    latter's ``row_lower`` to its ``row_upper``.  The face keeps the stage-one
    matrix, so a backend that holds the stage-one model re-solves it from the
    stage-one basis."""
    base = model.program
    fixed, tight = face_masks(result)
    upper = base.upper.copy()
    upper[fixed] = base.lower[fixed]
    rows = np.flatnonzero(tight)
    row_lower = base.row_lower.copy()
    row_lower[rows] = base.row_upper[rows]
    return replace(base, upper=upper, row_lower=row_lower)


def equilibrium_statistic_bounds(
    game: CostBlottoGame,
    statistics: Mapping[str, Sequence[Sequence[float]]],
) -> tuple[SolveResult, dict[str, dict[str, tuple[float, SolveResult]]]]:
    """Extremal equilibrium values of marginal-linear statistics for player A.

    Stage one solves the reduced game; stage two optimizes each statistic
    over the stage-one LP's optimal face, which is exactly A's equilibrium
    set, so every witness is itself an equilibrium strategy.  All statistics
    share stage one and its face, which keeps min and max comparable
    bound-for-bound.  Stage two runs direction by direction, each statistic
    in turn: where one statistic is a multiple of the one before it (in the
    sweep family expenditure is c0 times resources), its solve starts from
    an optimal basis.
    """
    backend = get_backend()
    model = build_minimax_lp(build_sunk_cost(game), "A")
    base = _solve_with_face(model, backend)
    face = _optimal_face(model, base)
    objectives = {name: _statistic_objective(model, statistic)
                  for name, statistic in statistics.items()}
    out: dict[str, dict[str, tuple[float, SolveResult]]] = {name: {} for name in objectives}
    for direction in ("min", "max"):
        for name, objective in objectives.items():
            witness = _result_from_solution(
                model, backend.solve(replace(face, sense=direction, objective=objective)),
                f"stage-two solve for {name}/{direction}", witness=True)
            out[name][direction] = (float(witness.solution.objective), witness)
    return base, out


def resource_statistic(game: CostBlottoGame) -> tuple[tuple[float, ...], ...]:
    """Weights whose expectation is player A's obtained resources.

    Only the unspent-resources battlefield contributes: assigning ``t`` there
    means ``budget - t`` resources were obtained.
    """
    d = game.budget_a
    zero = (0.0,) * (d + 1)
    last = tuple(float(d - t) for t in range(d + 1))
    return (zero,) * game.n + (last,)


def expenditure_statistic(game: CostBlottoGame) -> tuple[tuple[float, ...], ...]:
    """Weights whose expectation is player A's total expenditure.

    Battlefield weights are A's assignment costs; the unspent-resources
    battlefield contributes the obtainment cost of what was obtained.
    """
    d = game.budget_a
    rows = [
        tuple(float(game.assign_costs_a[i](t)) for t in range(d + 1))
        for i in range(game.n)
    ]
    rows.append(tuple(float(game.obtain_cost_a(d - t)) for t in range(d + 1)))
    return tuple(rows)
