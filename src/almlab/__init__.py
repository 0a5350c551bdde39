"""Inexact augmented Lagrangian solver with a relative error criterion,
exact QP solution-set oracles, and convergence-rate diagnostics."""

from .auglag import (
    AugLagEval,
    CriterionReport,
    auglag_eval,
    aux_update,
    criterion_eval,
    multiplier_update,
)
from .driver import (
    CONVERGED,
    INNER_FAILURE,
    MAX_OUTER,
    IterationRecord,
    PenaltySchedule,
    RunHistory,
    check_stop,
    next_penalty,
    run,
)
from .inner import InnerOptions, SubproblemResult, solve_subproblem
from .io import load_problem, problem_from_dict
from .oracle import (
    ErrorBoundEstimate,
    SolutionSetOracle,
    estimate_kappa,
    project_dual,
    project_primal,
    solve_qp_exact,
)
from .problem import (
    AffineInequality,
    AffineMap,
    BoxL1Regularizer,
    ConvexProgram,
    DualPoint,
    KktResidual,
    QuadraticInequality,
    QuadraticObjective,
    kkt_residual,
)
from .problems import GeneratorSpec, feasible_point, generate, standard_corpus
from .rates import (
    ProbeResult,
    RateReport,
    penalty_threshold,
    rate_report,
    superlinearity_probe,
    theoretical_rho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
