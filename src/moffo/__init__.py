"""Multilevel objective-function-free trust-region optimization toolkit."""

from .hierarchy import (
    CoherentModel,
    Level,
    LevelHierarchy,
    TransferOperator,
    build_coherent_model,
    build_depth_prolongation,
    interior_interpolation_1d,
)
from .weights import (
    ADAGRAD_LIKE,
    MAXGI,
    WeightState,
    init_lower_adagrad,
    init_lower_divergent,
    seed_lower_state,
)
from .step import (
    HessianModel,
    InvariantError,
    TrustRegion,
    cauchy_step,
    compute_radius,
    linear_step,
    taylor_step,
)
from .solver import (
    CostLedger,
    IterationRecord,
    NonFiniteGradientError,
    SolveResult,
    SolverConfig,
    Trace,
    should_recurse,
    solve,
)
from .bounds import (
    RateReport,
    TheoryConstants,
    beta_recursion,
    check_adagrad_rate,
    check_divergent_rate,
    divergent_thresholds,
    kappa_star,
    lambert_bound_check,
    lambert_w_minus1,
    theory_constants,
)
from .problems import (
    ProblemHierarchy,
    ResNetSpec,
    build_problem,
    finite_difference_check,
    laplacian_quadratic_1d,
    list_problems,
    nonconvex_chain_1d,
    quadratic_diag,
    resnet_regression,
    with_gaussian_noise,
    with_minibatch,
)

__version__ = "0.1.0"
