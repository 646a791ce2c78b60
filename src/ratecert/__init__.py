"""Certified worst-case convergence rates for gradient descent whose step
size varies inside a known interval, plus a simulator that validates every
certificate against sampled trajectories."""

from .certifier import (
    Certificate,
    CertifyOptions,
    LmiInstance,
    Witness,
    assemble_lmi_block,
    certify,
    closed_form_rate,
    feasible_at_rho,
    lambda_interval_sector,
    verify_certificate,
)
from .ellipsoid import (
    EllipsoidOptions,
    MatrixConstraint,
    SolverBudgetExceeded,
    ellipsoid_feasibility,
)
from .iqc import (
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
    AugmentedSystem,
    IqcMultiplier,
    WeightOutOfRange,
    augment,
    default_weights,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from .linalg import (
    EigenResult,
    NotPositiveDefinite,
    SymMatrix,
    cond_spd,
    eig_sym,
    max_eigenvalue,
)
from .model import (
    FunctionClass,
    InvalidC,
    StepSizeInterval,
    interval_asymmetric,
    interval_from_c,
)
from .simulator import (
    AdversarialGreedy,
    Alternating,
    CertificateMissing,
    Constant,
    Endpoints,
    QuadraticProblem,
    TrajectoryReport,
    Uniform,
    UnknownPolicy,
    policy_from_name,
    run,
    sample_alpha,
    step,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
