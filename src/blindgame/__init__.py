"""Zero-sum differential games with a blind maximizer, on particle measures.

The package computes the value of the time- and control-discretized game in
which the minimizer knows the randomly drawn initial state and observes the
opponent's stage controls with a one-stage delay, while the maximizer knows
only the initial distribution and observes nothing.  It also ships the
Wasserstein-space machinery (exact quadratic transport, barycentric
projections, grid Hamiltonians) needed to test the quantitative estimates
the convergence of the discretized values rests on.
"""

from .errors import InvalidStateError, NumericFailure, SolverFailure
from .measures import (
    ParticleMeasure,
    from_csv,
    second_moment,
    to_csv,
)
from .transport import (
    ProjectionField,
    TransportPlan,
    barycentric_projection,
    l2_norm,
    plan_to_csv,
    reverse_plan,
    wasserstein2,
)
from .dynamics import (
    ControlProblem,
    advance_stage,
    as_grid,
    flow,
    make_payoff,
    make_problem,
)
from .simplex import MinmaxSolution, max_weighted_min
from .game_kernel import (
    HamiltonianQuery,
    MatrixGame,
    MatrixGameSolution,
    eval_H,
    eval_Hn,
    gamma_n,
    nearest_coarse,
    solve_matrix_game,
)
from .value_solver import (
    BruteForceResult,
    DppReport,
    EkelandResult,
    MixedStrategyII,
    StateLattice,
    StrategyTreeI,
    VnSolution,
    best_response_I,
    brute_force_value,
    build_lattice,
    cut_coefficients,
    dpp_check,
    ekeland_point,
    payoff,
    seq_from_rank,
    solve_Vn,
    tree_prefixes,
)
from .scenario import ConfigError, Scenario, load_scenario

__all__ = [
    "BruteForceResult",
    "ConfigError",
    "ControlProblem",
    "DppReport",
    "EkelandResult",
    "HamiltonianQuery",
    "InvalidStateError",
    "MatrixGame",
    "MatrixGameSolution",
    "MinmaxSolution",
    "MixedStrategyII",
    "NumericFailure",
    "ParticleMeasure",
    "ProjectionField",
    "Scenario",
    "SolverFailure",
    "StateLattice",
    "StrategyTreeI",
    "TransportPlan",
    "VnSolution",
    "advance_stage",
    "as_grid",
    "barycentric_projection",
    "best_response_I",
    "brute_force_value",
    "build_lattice",
    "cut_coefficients",
    "dpp_check",
    "ekeland_point",
    "eval_H",
    "eval_Hn",
    "flow",
    "from_csv",
    "gamma_n",
    "l2_norm",
    "load_scenario",
    "make_payoff",
    "make_problem",
    "max_weighted_min",
    "nearest_coarse",
    "payoff",
    "plan_to_csv",
    "reverse_plan",
    "second_moment",
    "seq_from_rank",
    "solve_Vn",
    "solve_matrix_game",
    "to_csv",
    "tree_prefixes",
    "wasserstein2",
]

__version__ = "0.1.0"
