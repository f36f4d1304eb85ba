"""proxident: structure-reporting proximal operators and the solvers,
identification analysis, and experiment tooling built on them."""

from .asynchronous import DelayModel, run_dave_pg
from .exploit import (
    SubspaceSamplerConfig,
    run_pg_adaptive_inertia,
    run_predictor_corrector,
    run_random_subspace,
)
from .identification import (
    IdentificationReport,
    analyze_trace,
    enlarged_bound_l1,
    qc_check,
)
from .manifolds import (
    ManifoldCollection,
    SparsityPattern,
    adjacent_pairs,
    coordinate_zeros,
    pattern_leq,
    pattern_of,
    project,
    rank_levels,
)
from .problems import (
    CompositeProblem,
    LeastSquaresOracle,
    MatrixLSOracle,
    SmoothOracle,
    gen_lasso,
    gen_lowrank_matrix_problem,
    gen_qc_lasso,
    least_squares_oracle,
    matrix_ls_oracle,
)
from .prox import (
    ProxResult,
    Regularizer,
    prox_l0,
    prox_l1,
    prox_nuclear,
    prox_potts1d,
    prox_rank,
    prox_tv1d,
)
from .registry import SOLVERS, run_solver
from .solvers import (
    SolverConfig,
    TraceRecord,
    fixed_point_residual,
    run_apg,
    run_dr,
    run_pg,
    run_saga,
    trace_to_csv,
)

__version__ = "0.1.0"
