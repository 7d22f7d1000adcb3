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
from .reduction import SunkCostGame, build_sunk_cost, oriented_arrays
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
        # per edge, the index i * (budget + 1) + a of its battlefield i and
        # assignment a among the flattened marginals
        self.edge_marginal = (self.edge_field - 1) * (d + 1) + self.edge_assign
        self._tails = (self.edge_field - 1) * (d + 1) + self.edge_tail
        self._heads = self._tails + d + 1 + self.edge_assign
        for arr in (self.edge_field, self.edge_tail, self.edge_assign, self._offsets,
                    self.edge_marginal, self._tails, self._heads):
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

    def path_edges(self, assignment) -> np.ndarray:
        """The edges of the source-to-sink path of a full assignment."""
        assignment = np.asarray(assignment, dtype=np.int64)
        spent = np.cumsum(assignment) - assignment
        return (np.arange(self.n_hat) * self.edges_per_layer + self._offsets[spent]
                + assignment)

    def tail_nodes(self) -> np.ndarray:
        return self._tails

    def head_nodes(self) -> np.ndarray:
        return self._heads

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
    tables, _, _ = oriented_arrays(sunk, perspective)
    gs = LayeredGraph(sunk.n_hat, tables.shape[1] - 1)
    go = LayeredGraph(sunk.n_hat, tables.shape[2] - 1)
    layout = _Layout.full(gs, go)
    program = _assemble(layout, gs, go, sunk, perspective)
    return MinimaxLP(
        program=program,
        graph_self=gs,
        graph_opp=go,
        flow_slice=slice(0, gs.num_edges),
        marginal_slice=slice(gs.num_edges, gs.num_edges + layout.marginal_col.size),
        value_index=layout.value_col,
    )


@dataclass
class _Layout:
    """Where a minimax LP places its parts: per index of each part, its
    column or row in the LP, or -1 where the LP leaves the part out.

    Flow columns are per own edge and conservation rows per own node; the
    marginal column and row of battlefield ``i`` and own assignment ``a`` sit
    at index ``i * (budget_self + 1) + a``, the expected-payoff column and row
    of opponent assignment ``b`` at ``i * (budget_opp + 1) + b``; potential
    columns are per opponent node and potential rows per opponent edge."""

    flow_col: np.ndarray
    node_row: np.ndarray
    marginal_col: np.ndarray
    marginal_row: np.ndarray
    payoff_col: np.ndarray
    payoff_row: np.ndarray
    potential_col: np.ndarray
    potential_row: np.ndarray
    value_col: int = -1
    value_row: int = -1
    num_cols: int = 0
    num_rows: int = 0

    @classmethod
    def empty(cls, gs: LayeredGraph, go: LayeredGraph) -> "_Layout":
        n_marg = gs.n_hat * (gs.budget + 1)
        n_pay = go.n_hat * (go.budget + 1)
        return cls(*(np.full(size, -1, dtype=np.int64) for size in (
            gs.num_edges, gs.num_nodes, n_marg, n_marg, n_pay, n_pay, go.num_nodes,
            go.num_edges)))

    @classmethod
    def full(cls, gs: LayeredGraph, go: LayeredGraph) -> "_Layout":
        """Every part, the columns in the order flows, marginals, expected
        payoffs, potentials, value, and the rows in the order potential
        rows, value row, conservation, marginals, expected payoffs."""
        n_marg = gs.n_hat * (gs.budget + 1)
        n_pay = go.n_hat * (go.budget + 1)
        col_h = gs.num_edges
        col_q = col_h + n_marg
        col_pi = col_q + n_pay
        col_t = col_pi + go.num_nodes
        row_node = go.num_edges + 1  # the equalities follow the <= rows
        row_marg = row_node + gs.num_nodes
        row_pay = row_marg + n_marg
        return cls(flow_col=np.arange(gs.num_edges),
                   node_row=row_node + np.arange(gs.num_nodes),
                   marginal_col=col_h + np.arange(n_marg),
                   marginal_row=row_marg + np.arange(n_marg),
                   payoff_col=col_q + np.arange(n_pay),
                   payoff_row=row_pay + np.arange(n_pay),
                   potential_col=col_pi + np.arange(go.num_nodes),
                   potential_row=np.arange(go.num_edges),
                   value_col=col_t, value_row=go.num_edges,
                   num_cols=col_t + 1, num_rows=row_pay + n_pay)

    def place(self, gs: LayeredGraph, go: LayeredGraph, own_edges: np.ndarray,
              opp_edges: np.ndarray) -> bool:
        """Give the own edges ``own_edges`` and opponent edges ``opp_edges``,
        and every part they touch, the next free columns and rows, after all
        parts already placed; the value column and row come first.  Whether
        any edge was new."""
        own_edges = own_edges[self.flow_col[own_edges] < 0]
        opp_edges = opp_edges[self.potential_row[opp_edges] < 0]
        if not (own_edges.size or opp_edges.size):
            return False
        if self.value_col < 0:
            self.value_col, self.value_row = self.num_cols, self.num_rows
            self.num_cols += 1
            self.num_rows += 1
        marginals = gs.edge_marginal[own_edges]
        payoffs = go.edge_marginal[opp_edges]
        opp_nodes = np.concatenate((go.tail_nodes()[opp_edges], go.head_nodes()[opp_edges]))
        own_nodes = np.concatenate((gs.tail_nodes()[own_edges], gs.head_nodes()[own_edges]))
        for positions, parts in ((self.flow_col, own_edges), (self.marginal_col, marginals),
                                 (self.payoff_col, payoffs), (self.potential_col, opp_nodes)):
            self.num_cols = _number(positions, parts, self.num_cols)
        for positions, parts in ((self.potential_row, opp_edges), (self.node_row, own_nodes),
                                 (self.marginal_row, marginals), (self.payoff_row, payoffs)):
            self.num_rows = _number(positions, parts, self.num_rows)
        return True


def _number(positions: np.ndarray, parts: np.ndarray, start: int) -> int:
    """Number the parts among ``parts`` that ``positions`` has no place for
    yet from ``start`` on; the next free number."""
    new = np.unique(parts[positions[parts] < 0])
    positions[new] = np.arange(start, start + new.size)
    return start + new.size


def _assemble(lay: _Layout, gs: LayeredGraph, go: LayeredGraph, sunk: SunkCostGame,
              perspective: str) -> LinearProgram:
    """The maximin LP of ``perspective`` over the parts ``lay`` places.

    Every row kind is defined here once: an LP over all parts is
    :func:`build_minimax_lp`'s, and one over fewer parts restricts the
    perspective player to flows on its placed edges and the opponent to
    paths on its placed edges."""
    tables, c_self, c_opp = oriented_arrays(sunk, perspective)
    own = np.flatnonzero(lay.flow_col >= 0)
    opp = np.flatnonzero(lay.potential_row >= 0)
    marg = np.flatnonzero(lay.marginal_col >= 0)
    pay = np.flatnonzero(lay.payoff_col >= 0)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(np.full(r.size, v) if np.ndim(v) == 0 else np.asarray(v, dtype=float))

    flow = lay.flow_col[own]
    # unit-flow conservation at every node of the perspective player's graph
    add(lay.node_row[gs.head_nodes()[own]], flow, 1.0)
    add(lay.node_row[gs.tail_nodes()[own]], flow, -1.0)
    # marginals: h[i, a] equals the total flow on layer i's assignment-a edges
    add(lay.marginal_row[gs.edge_marginal[own]], flow, -1.0)
    add(lay.marginal_row[marg], lay.marginal_col[marg], 1.0)
    # expected payoffs: q[i, b] equals sum_a w[i, a, b] * h[i, a] on a
    # battlefield i with a valuation, and 0 on the others
    add(lay.payoff_row[pay], lay.payoff_col[pay], 1.0)
    valued = np.array([t is not None for t in sunk.valuations])
    placed_h = (lay.marginal_col >= 0).reshape(gs.n_hat, gs.budget + 1)
    placed_q = (lay.payoff_col >= 0).reshape(go.n_hat, go.budget + 1)
    i, a, b = np.nonzero(placed_h[:, :, None] & placed_q[:, None, :] & valued[:, None, None])
    add(lay.payoff_row[i * (go.budget + 1) + b], lay.marginal_col[i * (gs.budget + 1) + a],
        -tables[i, a, b])
    # opponent potentials: pi[head] <= pi[tail] + q[i, b] + c_opp[i, b]
    # along every edge, the opponent's own cost as the row's bound
    pot = lay.potential_row[opp]
    add(pot, lay.potential_col[go.head_nodes()[opp]], 1.0)
    add(pot, lay.potential_col[go.tail_nodes()[opp]], -1.0)
    add(pot, lay.payoff_col[go.edge_marginal[opp]], -1.0)
    # the value never exceeds the opponent's sink potential
    add(np.array([lay.value_row, lay.value_row]),
        np.array([lay.value_col, lay.potential_col[go.sink]]), [1.0, -1.0])

    # zero valuation cells (a sign valuation's ties among them) are not stored
    shape = (lay.num_rows, lay.num_cols)
    a = CsrMatrix.from_triplets(shape, np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(vals))

    row_upper = np.zeros(shape[0])
    row_upper[pot] = c_opp.ravel()[go.edge_marginal[opp]]
    row_upper[lay.node_row[gs.source]] = -1.0
    row_upper[lay.node_row[gs.sink]] = 1.0
    row_lower = row_upper.copy()
    row_lower[pot] = row_lower[lay.value_row] = -np.inf

    lower = np.full(shape[1], -np.inf)
    lower[flow] = lower[lay.marginal_col[marg]] = 0.0
    upper = np.full(shape[1], np.inf)
    lower[lay.potential_col[go.source]] = upper[lay.potential_col[go.source]] = 0.0

    objective = np.zeros(shape[1])
    objective[lay.marginal_col[marg]] = -c_self.ravel()[marg]
    objective[lay.value_col] = 1.0
    return LinearProgram(sense="max", objective=objective, a=a, row_lower=row_lower,
                         row_upper=row_upper, lower=lower, upper=upper)


def _result_from_solution(model: MinimaxLP, sol: BackendSolution, what: str,
                          witness: bool = False) -> SolveResult:
    """The optimum in ``sol`` with its flows built and checked; any other
    outcome raises :class:`SolverFailureError` naming ``what``."""
    if sol.status != OPTIMAL:
        raise SolverFailureError(f"{what} failed: {sol.status} {sol.message}")
    # the opponent-potential rows lead
    opponent = None if witness else (model.graph_opp, sol.row_duals[:model.graph_opp.num_edges])
    return _checked_result(what, float(model.program.objective @ sol.x), sol,
                           (model.graph_self, sol.x[model.flow_slice]), opponent)


def _checked_result(what: str, value: float, sol: BackendSolution,
                    own: tuple[LayeredGraph, np.ndarray],
                    opponent: tuple[LayeredGraph, np.ndarray] | None) -> SolveResult:
    """A result whose flows, each a graph and its edge flows, are valid
    unit flows; else :class:`SolverFailureError` naming ``what``."""
    flow = opponent_flow = None
    try:
        flow = StrategyFlow(*own)
        if opponent is not None:
            opponent_flow = StrategyFlow(*opponent)
    except InvalidFlowError as exc:
        which = "flow" if flow is None else "opponent flow from the row duals"
        raise SolverFailureError(f"{what} unusable: {which}: {exc}") from exc
    return SolveResult(status=OPTIMAL, value=value, flow=flow, solution=sol,
                       opponent_flow=opponent_flow)


class RestrictedMinimaxLP:
    """Player A's maximin LP of :func:`build_minimax_lp` over subsets of the
    two players' edges: flow columns on A's placed edges, potential rows on
    B's, and only the columns and rows those edges touch.  Its optimum is an
    equilibrium of the game in which each player keeps to paths over its
    placed edges, and the optimum's flow and dual flow are strategies of the
    full game.

    Edges are placed a path at a time, and the parts a path touches are
    numbered after all parts already placed, so every :attr:`program` starts
    with the rows and columns of the one before it, unchanged."""

    def __init__(self, sunk: SunkCostGame):
        self._sunk = sunk
        self.graph_self = LayeredGraph(sunk.n_hat, sunk.budget_a)
        self.graph_opp = LayeredGraph(sunk.n_hat, sunk.budget_b)
        self._layout = _Layout.empty(self.graph_self, self.graph_opp)
        self.program: LinearProgram | None = None

    def add_paths(self, own=None, opp=None) -> bool:
        """Place the edges of A's full assignment ``own`` and of B's ``opp``
        (either may be ``None``) and rebuild :attr:`program`; whether any
        edge was new."""
        edges = [np.array([], dtype=np.int64) if s is None else graph.path_edges(s)
                 for graph, s in ((self.graph_self, own), (self.graph_opp, opp))]
        if not self._layout.place(self.graph_self, self.graph_opp, *edges):
            return False
        self.program = _assemble(self._layout, self.graph_self, self.graph_opp, self._sunk, "A")
        return True

    def marginals(self, sol: BackendSolution) -> tuple[np.ndarray, np.ndarray]:
        """A's marginals, read from the marginal columns, and B's, summed
        from the potential-row duals, as ``(n_hat, budget + 1)`` arrays."""
        lay, gs, go = self._layout, self.graph_self, self.graph_opp
        own = np.zeros(lay.marginal_col.size)
        placed = lay.marginal_col >= 0
        own[placed] = sol.x[lay.marginal_col[placed]]
        opp = np.flatnonzero(lay.potential_row >= 0)
        duals = np.bincount(go.edge_marginal[opp],
                            weights=sol.row_duals[lay.potential_row[opp]],
                            minlength=lay.payoff_col.size)
        return own.reshape(gs.n_hat, gs.budget + 1), duals.reshape(go.n_hat, go.budget + 1)

    def result(self, sol: BackendSolution) -> SolveResult:
        """The optimum in ``sol`` as a result over the full graphs: both
        flows zero off the placed edges, and checked."""
        lay = self._layout
        flows = []
        for graph, positions, values in ((self.graph_self, lay.flow_col, sol.x),
                                         (self.graph_opp, lay.potential_row, sol.row_duals)):
            flow = np.zeros(graph.num_edges)
            placed = positions >= 0
            flow[placed] = values[positions[placed]]
            flows.append((graph, flow))
        return _checked_result("edge generation", float(self.program.objective @ sol.x), sol,
                               *flows)


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
