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
from itertools import accumulate, pairwise
from typing import Mapping, Sequence

import numpy as np

from .game import CostBlottoGame
from .reduction import SunkCostGame, build_sunk_cost, oriented_arrays
from .solver import (OPTIMAL, BackendSolution, CsrMatrix, LinearProgram, SolverFailureError,
                     get_backend)

#: Flow conservation / feasibility tolerance.
FEAS_EPS = 1e-7
#: Flows and duals smaller than this are treated as exact zeros after a
#: solve.
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


class MinimaxLP:
    """The maximin LP of ``perspective`` over the edges placed so far, and
    the layout that reads its solutions back.

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

    That is the order of :func:`build_minimax_lp`'s LP, which places every
    edge at once.  Over fewer edges the LP keeps the perspective player to
    flows on its placed edges and the opponent to paths on its placed edges,
    with only the columns and rows those edges touch.  Its optimum is an
    equilibrium of that restricted game, and the optimum's flow and dual
    flow are strategies of the full game.  Each placement numbers the parts
    it adds after all parts placed before, so :attr:`program` is then the
    one before it, its :attr:`~costblotto.solver.LinearProgram.base`, with
    columns and rows appended.
    """

    def __init__(self, sunk: SunkCostGame, perspective: str = "A"):
        tables, _, _ = oriented_arrays(sunk, perspective)
        self._sunk, self._perspective = sunk, perspective
        self.graph_self = LayeredGraph(sunk.n_hat, tables.shape[1] - 1)
        self.graph_opp = LayeredGraph(sunk.n_hat, tables.shape[2] - 1)
        self.layout = _Layout(self.graph_self, self.graph_opp)
        self.program: LinearProgram | None = None

    @property
    def num_vars(self) -> int:
        return self.program.num_vars

    @property
    def num_constraints(self) -> int:
        return self.program.num_constraints

    def place(self, own_edges: np.ndarray, opp_edges: np.ndarray) -> bool:
        """Place the perspective player's edges ``own_edges`` and the
        opponent's ``opp_edges``, and make :attr:`program` the LP over every
        edge placed; whether any edge was new."""
        if not self.layout.place(self.graph_self, self.graph_opp, own_edges, opp_edges):
            return False
        self.program = _assemble(self.layout, self.graph_self, self.graph_opp, self._sunk,
                                 self._perspective, self.program)
        return True

    def marginals(self, sol: BackendSolution) -> tuple[np.ndarray, np.ndarray]:
        """The perspective player's marginals, read from the marginal
        columns, and the opponent's, summed from the potential-row duals, as
        ``(n_hat, budget + 1)`` arrays."""
        lay, gs, go = self.layout, self.graph_self, self.graph_opp
        own = _scatter(lay.marginal_col, sol.x)
        opp = np.flatnonzero(lay.potential_row >= 0)
        duals = np.bincount(go.edge_marginal[opp],
                            weights=sol.row_duals[lay.potential_row[opp]],
                            minlength=lay.payoff_col.size)
        return own.reshape(gs.n_hat, gs.budget + 1), duals.reshape(go.n_hat, go.budget + 1)

    def result(self, sol: BackendSolution, what: str, witness: bool = False) -> SolveResult:
        """The optimum in ``sol`` as a result over the full graphs, its flows
        zero off the placed edges and checked: the perspective player's flow
        from the flow columns and, unless ``witness``, the opponent's from the
        potential-row duals.  Any other outcome raises
        :class:`SolverFailureError` naming ``what``."""
        if sol.status != OPTIMAL:
            raise SolverFailureError(f"{what} failed: {sol.status} {sol.message}")
        lay, flow, opponent_flow = self.layout, None, None
        try:
            flow = StrategyFlow(self.graph_self, _scatter(lay.flow_col, sol.x))
            if not witness:
                opponent_flow = StrategyFlow(self.graph_opp,
                                             _scatter(lay.potential_row, sol.row_duals))
        except InvalidFlowError as exc:
            which = "flow" if flow is None else "opponent flow from the row duals"
            raise SolverFailureError(f"{what} unusable: {which}: {exc}") from exc
        return SolveResult(status=OPTIMAL, value=float(self.program.objective @ sol.x),
                           flow=flow, solution=sol, opponent_flow=opponent_flow)


@dataclass(frozen=True)
class SolveResult:
    """A checked optimum in flow form; ``status`` is always ``OPTIMAL``.
    ``value`` is the minimax objective at the solution: the value variable
    less the perspective player's expected own costs, which at a minimax
    optimum, and at every point of its optimal face, is the game value seen
    from the perspective player.  ``opponent_flow``, the opponent's
    equilibrium flow read from the row duals, is set by minimax solves only,
    not by optimal-face witnesses.  ``face_edges``, set on the stage one of
    :func:`equilibrium_statistic_bounds` only, marks the perspective
    player's edges on the optimal face its witnesses were optimized over.
    ``solution`` is the backend's answer: its iteration counts and row
    duals."""

    status: str
    value: float
    flow: StrategyFlow
    solution: BackendSolution
    opponent_flow: StrategyFlow | None = None
    face_edges: np.ndarray | None = None


def _scatter(positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per part, its value among ``values`` at its place in ``positions``,
    and 0 where the LP leaves it out."""
    out = np.zeros(positions.size)
    placed = positions >= 0
    out[placed] = values[positions[placed]]
    return out


def build_minimax_lp(sunk: SunkCostGame, perspective: str = "A", own_edges=None,
                     opp_edges=None) -> MinimaxLP:
    """Assemble the maximin LP of ``perspective`` over both layered graphs,
    or over the perspective player's edges ``own_edges`` and the opponent's
    ``opp_edges`` only, where given: see :class:`MinimaxLP`.

    The perspective player maximizes a value variable, bounded by the
    opponent's sink potential, less its expected own costs; potentials are
    constrained edge-by-edge so the sink potential never exceeds the
    opponent's cheapest reply against the chosen flow's marginals, each edge
    priced at its expected valuation plus the opponent's own cost.  At the
    optimum the objective is the game value seen from ``perspective``.
    """
    model = MinimaxLP(sunk, perspective)
    model.place(np.arange(model.graph_self.num_edges) if own_edges is None else own_edges,
                np.arange(model.graph_opp.num_edges) if opp_edges is None else opp_edges)
    return model


class _Layout:
    """Where a minimax LP places its parts: per index of each part, its
    column or row in the LP, or -1 where the LP leaves the part out.

    Flow columns are per own edge and conservation rows per own node; the
    marginal column and row of battlefield ``i`` and own assignment ``a`` sit
    at index ``i * (budget_self + 1) + a``, the expected-payoff column and row
    of opponent assignment ``b`` at ``i * (budget_opp + 1) + b``; potential
    columns are per opponent node and potential rows per opponent edge.
    Each part's array is a view of ``cols``, which holds the columns of the
    flows, marginals, expected payoffs, potentials and value in that order,
    or of ``rows``, which holds the potential rows, value row, conservation,
    marginals and expected payoffs in that order."""

    def __init__(self, gs: LayeredGraph, go: LayeredGraph):
        n_marg = gs.n_hat * (gs.budget + 1)
        n_pay = go.n_hat * (go.budget + 1)
        self._col_starts = list(accumulate((gs.num_edges, n_marg, n_pay, go.num_nodes, 1),
                                           initial=0))
        self._row_starts = list(accumulate((go.num_edges, 1, gs.num_nodes, n_marg, n_pay),
                                           initial=0))
        self.cols = np.full(self._col_starts[-1], -1)
        self.rows = np.full(self._row_starts[-1], -1)
        (self.flow_col, self.marginal_col, self.payoff_col, self.potential_col,
         _) = (self.cols[a:b] for a, b in pairwise(self._col_starts))
        (self.potential_row, _, self.node_row, self.marginal_row,
         self.payoff_row) = (self.rows[a:b] for a, b in pairwise(self._row_starts))
        self.num_cols = self.num_rows = 0

    @property
    def value_col(self) -> int:
        return int(self.cols[-1])

    @property
    def value_row(self) -> int:
        return int(self.rows[self._row_starts[1]])

    def place(self, gs: LayeredGraph, go: LayeredGraph, own_edges: np.ndarray,
              opp_edges: np.ndarray) -> bool:
        """Give the own edges ``own_edges`` and opponent edges ``opp_edges``,
        and every part they touch, the next free columns and rows in the
        order of ``cols`` and ``rows``, after all parts already placed.  The
        value column and row are among the first placement's parts, so the
        value column follows its potential columns and the value row its
        potential rows.  Whether any edge was new."""
        own_edges = own_edges[self.flow_col[own_edges] < 0]
        opp_edges = opp_edges[self.potential_row[opp_edges] < 0]
        if not (own_edges.size or opp_edges.size):
            return False
        value = np.zeros(1, dtype=np.int64)  # new in the first placement only
        marginals = gs.edge_marginal[own_edges]
        payoffs = go.edge_marginal[opp_edges]
        own_nodes = np.concatenate((gs.tail_nodes()[own_edges], gs.head_nodes()[own_edges]))
        opp_nodes = np.concatenate((go.tail_nodes()[opp_edges], go.head_nodes()[opp_edges]))
        self.num_cols = _number(self.cols, self._col_starts, self.num_cols,
                                (own_edges, marginals, payoffs, opp_nodes, value))
        self.num_rows = _number(self.rows, self._row_starts, self.num_rows,
                                (opp_edges, value, own_nodes, marginals, payoffs))
        return True


def _number(positions: np.ndarray, starts: list[int], start: int, parts) -> int:
    """Number, from ``start`` on, the parts that ``positions`` has no place
    for yet: per kind ``k``, those at indices ``parts[k]`` among the kind's
    places from ``starts[k]`` on, kind after kind and each in ascending
    order.  The next free number."""
    new = np.zeros(positions.size, dtype=bool)
    for first, indices in zip(starts, parts):
        new[first + indices] = True
    new = np.flatnonzero(new & (positions < 0))
    positions[new] = np.arange(start, start + new.size)
    return start + new.size


def _assemble(lay: _Layout, gs: LayeredGraph, go: LayeredGraph, sunk: SunkCostGame,
              perspective: str, base: LinearProgram | None = None) -> LinearProgram:
    """The maximin LP of ``perspective`` over the parts ``lay`` places.

    Every row kind is defined here once: an LP over all parts is
    :func:`build_minimax_lp`'s, and one over fewer parts restricts the
    perspective player to flows on its placed edges and the opponent to
    paths on its placed edges.  Given ``base``, the LP of the parts placed
    before the last placement, the LP extends it: its matrix holds only the
    entries in the columns and rows beyond ``base``'s."""
    tables, c_self, c_opp = oriented_arrays(sunk, perspective)
    own = np.flatnonzero(lay.flow_col >= 0)
    opp = np.flatnonzero(lay.potential_row >= 0)
    marg = np.flatnonzero(lay.marginal_col >= 0)
    pay = np.flatnonzero(lay.payoff_col >= 0)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(np.full(r.size, v) if isinstance(v, float) else np.asarray(v, dtype=float))

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

    rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
    if base is not None:
        held_rows, held_cols = base.a.shape
        new = (rows >= held_rows) | (cols >= held_cols)
        rows, cols, vals = rows[new], cols[new], vals[new]
    # zero valuation cells (a sign valuation's ties among them) are not stored
    shape = (lay.num_rows, lay.num_cols)
    a = CsrMatrix.from_triplets(shape, rows, cols, vals)

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
                         row_upper=row_upper, lower=lower, upper=upper, base=base)


def solve(model: MinimaxLP, backend=None, program: LinearProgram | None = None,
          what: str = "minimax solve") -> SolveResult:
    """Solve an assembled minimax LP; raises :class:`SolverFailureError`
    naming ``what`` unless it gives an optimum with valid flows for both
    players.  Given ``program``, the model's LP under other costs and
    bounds (a statistic over the optimal face), solve that instead: its
    optimum is a witness, with a checked flow and, since its row duals
    price the statistic, no opponent flow."""
    backend = backend if backend is not None else get_backend()
    witness = program is not None
    return model.result(backend.solve(program if witness else model.program), what, witness)


def _statistic_objective(model: MinimaxLP, statistic) -> np.ndarray:
    """The objective of ``statistic``, a weight per battlefield and own
    assignment, on ``model``'s LP: each placed marginal column gets its
    weight, every other column 0."""
    n_hat, d_self = model.graph_self.n_hat, model.graph_self.budget
    weights = [tuple(row) for row in statistic]
    if len(weights) != n_hat or any(len(row) != d_self + 1 for row in weights):
        raise ValueError(
            f"statistic must supply {n_hat} weight rows of length {d_self + 1}"
        )
    weights = np.array([float(x) for row in weights for x in row])
    objective = np.zeros(model.num_vars)
    marginal_col = model.layout.marginal_col
    placed = marginal_col >= 0
    objective[marginal_col[placed]] = weights[placed]
    return objective


def equilibrium_statistic_bounds(
    game: CostBlottoGame,
    statistics: Mapping[str, Sequence[Sequence[float]]],
) -> tuple[SolveResult, dict[str, dict[str, tuple[float, SolveResult]]]]:
    """Extremal equilibrium values of marginal-linear statistics for player A.

    Stage one grows a restricted LP to a minimax optimum by edge generation
    (:func:`~costblotto.strategy.generate_edges`) on one model the backend
    holds.  Its optimal face is exactly A's equilibrium set, so every
    witness is itself an equilibrium strategy.  By complementary slackness
    with a full optimal dual that the dynamic program builds from B's
    equilibrium flow, a feasible point is on the face exactly when A's flow
    uses only edges of A's best responses to B's equilibrium marginals,
    within the gap that stopped generation
    (:func:`~costblotto.strategy.best_response_edges`), and B's support
    rows and the value row are tight.

    Stage two places every face edge on the held model, fixes the other
    placed A edges at 0, tightens those rows and optimizes each statistic
    warm.  The model holds only some of B's rows, so while B's DP best
    response to a witness beats the value by more than
    :data:`~costblotto.strategy.GENERATION_GAP`, its path's rows are placed
    and the statistic is solved again; a response whose rows are all placed
    is accepted within :func:`~costblotto.strategy.stall_tolerance`.  All
    statistics share stage one and its face, which keeps min and max
    comparable bound-for-bound.  The solves run direction by direction,
    each statistic in turn, so one that is a multiple of the one before it
    (in the sweep family expenditure is c0 times resources) starts from an
    optimal basis.  The stage-one result carries the face as
    ``face_edges``.
    """
    # the dynamic program and edge generation are built on this module
    from .strategy import (GENERATION_GAP, best_response_edges, best_response_value,
                           generate_edges, generation_start, marginals_from_flow,
                           stall_tolerance)

    backend = get_backend()
    sunk = build_sunk_cost(game)
    model = build_minimax_lp(sunk, "A", *generation_start(sunk))
    base, tolerance = generate_edges(model, sunk, backend)
    on_face = best_response_edges(sunk, marginals_from_flow(base.opponent_flow), "A",
                                  tolerance)
    none = np.array([], dtype=np.int64)
    model.place(np.flatnonzero(on_face), none)
    lay = model.layout
    fixed = lay.flow_col[(lay.flow_col >= 0) & ~on_face]
    tight = np.append(lay.potential_row[base.opponent_flow.edge_flow > 0], lay.value_row)
    out: dict[str, dict[str, tuple[float, SolveResult]]] = {name: {} for name in statistics}
    for direction in ("min", "max"):
        for name, statistic in statistics.items():
            what = f"stage-two solve for {name}/{direction}"
            while True:
                program = model.program
                upper, row_lower = program.upper.copy(), program.row_lower.copy()
                upper[fixed] = 0.0
                row_lower[tight] = program.row_upper[tight]
                face = replace(program, sense=direction, upper=upper, row_lower=row_lower,
                               objective=_statistic_objective(model, statistic))
                witness = solve(model, backend, face, what)
                gain_b, path_b = best_response_value(sunk, marginals_from_flow(witness.flow),
                                                     "B")
                gap = gain_b + base.value
                if gap <= GENERATION_GAP:
                    break
                if not model.place(none, model.graph_opp.path_edges(path_b)):
                    if gap <= stall_tolerance(sunk):
                        break
                    raise SolverFailureError(
                        f"{what} stalled: B's best response gains {gap:.3g} over the "
                        f"value with every edge of it placed")
            out[name][direction] = (float(witness.solution.objective), witness)
    return replace(base, face_edges=on_face), out


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
