"""Finite-dimensional numerics for quantum f-divergences, recovery maps,
and strengthened data-processing lower bounds."""

from .bounds import (
    BoundReport,
    InstanceAnalysis,
    bs_bound_channel,
    bs_bound_condexp,
    k_alpha,
    l_alpha,
    lemma_integrand_check,
    maxf_bound,
)
from .channels import (
    ContractionMap,
    KrausChannel,
    PartialTraceFactor,
    Pinching,
    StinespringIsometry,
    SubalgebraExpectation,
    build_contraction,
    depolarizing_channel,
    diagonal_pinching,
    identity_channel,
    partial_trace_env,
    random_cptp,
    random_pinching,
    random_subalgebra,
    superop_matrix,
)
from .divergences import (
    FDivFamily,
    bs_entropy,
    bs_entropy_quadrature,
    family_from_tag,
    maximal_f,
    neg_log,
    neg_power,
    regularized_divergence,
    relative_entropy,
    renyi2_trace,
    square_family,
    standard_f,
    xlogx,
)
from .errors import (
    BadBeta,
    BadRank,
    ConfigError,
    DimMismatch,
    Diverging,
    DomainViolation,
    InputError,
    InvalidChannel,
    MissingMeasureParams,
    NoConvergence,
    NotHermitian,
    NumericsError,
    ParseError,
    RejectionExhausted,
    SingularState,
    SupportMismatch,
)
from .linalg import (
    EigenSystem,
    ScalarFunction,
    herm_eig,
    hs_inner,
    matrix_fn,
    pinv,
    schatten_norm,
)
from .recovery import (
    RecoveryReport,
    bs_recovery,
    condexp_equality_residuals,
    equality_residuals,
    pinching_fixed_pair,
    stinespring_residual,
)
from .states import (
    StatePair,
    gamma,
    load_state,
    random_density,
    regularize,
    save_state,
    state_from_json,
    state_to_json,
    support_projector,
)

__version__ = "0.1.0"
