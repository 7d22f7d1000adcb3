"""Equilibrium solver for discrete resource contests with costs.

Players split obtained resources across battlefields, paying per-battlefield
assignment costs and a cost for the total obtained.  The package reduces such
a game to an all-resources-committed companion with one extra battlefield,
solves it as a polynomial-size linear program over flows in a layered graph,
and recovers mixed equilibrium strategies plus extremal equilibrium
statistics (resources obtained, total expenditure).
"""

from .config import (
    ConfigError,
    GridRange,
    SweepSpec,
    load_game,
    load_sweep_spec,
    parse_game_config,
    parse_sweep_spec,
    sweep_point_game,
)
from .game import (
    CostBlottoGame,
    CostFunction,
    EnumerationCapError,
    InvalidStrategyError,
    MixedStrategy,
    Valuation,
    enumerate_strategies,
    mix_strategies,
    payoff_costs,
    payoff_zero,
    swap_players,
)
from .minimax import (
    InvalidFlowError,
    LayeredGraph,
    MinimaxLP,
    SolveResult,
    StrategyFlow,
    build_minimax_lp,
    equilibrium_statistic_bounds,
    expenditure_statistic,
    resource_statistic,
    solve,
)
from .oracle import (
    MatrixGame,
    OracleSolveError,
    build_matrix,
    matrix_game_solve,
)
from .reduction import (
    SunkCostGame,
    build_sunk_cost,
    map_strategy,
    unmap_strategy,
)
from .solver import LinearProgram, SolverFailureError, get_backend
from .strategy import (
    Marginals,
    best_response_value,
    certify_equilibrium,
    decompose_flow,
    marginals_from_flow,
    marginals_from_mixed,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CostBlottoGame",
    "CostFunction",
    "EnumerationCapError",
    "GridRange",
    "InvalidFlowError",
    "InvalidStrategyError",
    "LayeredGraph",
    "LinearProgram",
    "Marginals",
    "MatrixGame",
    "MinimaxLP",
    "MixedStrategy",
    "OracleSolveError",
    "SolveResult",
    "SolverFailureError",
    "StrategyFlow",
    "SunkCostGame",
    "SweepSpec",
    "Valuation",
    "best_response_value",
    "build_matrix",
    "build_minimax_lp",
    "build_sunk_cost",
    "certify_equilibrium",
    "decompose_flow",
    "enumerate_strategies",
    "equilibrium_statistic_bounds",
    "expenditure_statistic",
    "get_backend",
    "load_game",
    "load_sweep_spec",
    "map_strategy",
    "marginals_from_flow",
    "marginals_from_mixed",
    "matrix_game_solve",
    "mix_strategies",
    "parse_game_config",
    "parse_sweep_spec",
    "payoff_costs",
    "payoff_zero",
    "resource_statistic",
    "solve",
    "swap_players",
    "sweep_point_game",
    "unmap_strategy",
]
