"""Rate certification, numpy layer: assemble the parameterized matrix
inequality at the endpoints of a step-size interval, decide joint
feasibility in (P, lambda), and replay certificates.  The bisection on the
contraction rate rho (``certify``) and the sector closed form live in
``search``, which imports no numpy; they are re-exported here.

The inequality family, one block per interval endpoint alpha,

    [ A^T P A - rho^2 P   A^T P B(alpha)      ]
    [ B(alpha)^T P A      B(alpha)^T P B(alpha) ]  +  lambda * Qf  <=  0,

with Qf = [C D]^T M [C D], must admit a single pair (P > 0, lambda >= 0)
valid at both endpoints.  The block is matrix-convex in alpha (B is affine
in alpha, P > 0, and nothing else depends on alpha), so the endpoints cover
the whole interval; see ``StepSizeInterval.endpoints``.  Joint feasibility
of the family at a given rho certifies the worst-case bound
||xi_k|| <= sqrt(cond(P)) rho^k ||xi_0||  over all step-size sequences
drawn from the interval.

The family is homogeneous in (P, lambda), so P is normalized to unit trace.
Instances are also built in reduced units (class modulus 1, steps scaled by
m): rates are invariant under that rescaling and the block entries stay at
unit scale, so the strictness tolerances below mean the same thing for every
input.  Stored witnesses refer to the reduced system; the rate bound itself
needs only rho_star and cond(P), both of which are reduction-invariant for
the plant state.  Two backends decide feasibility:

* augmented state dimension 1 (static multiplier): P is the scalar 1, and
  the admissible lambda set at each endpoint is an interval computed in
  closed form from the 2x2 block's diagonal and determinant conditions; the
  family is feasible iff the intervals intersect (``sector_lambda``).
  ``certify`` decides its sector probes with that function alone, in plain
  floats, without importing this module; only replay
  (``Certificate.slack``, ``verify_certificate``) builds the numpy
  instance.
* augmented state dimension >= 2: a deep-cut ellipsoid method over the
  decision vector (free entries of P, lambda) with cutting planes from the
  most-positive eigenvector of a violated block.

"<= 0" is implemented strictly as "<= -eps_feas * I" with a data-scaled
default eps_feas, and P is kept away from singularity by P >= delta_pd * I;
both tolerances are explicit options.

Importing this module loads numpy, ``linalg``, ``iqc`` and ``ellipsoid``.
``search`` imports it the first time a certification needs it: a dynamic
probe, a dynamic witness's ``cond_p``, ``Certificate.slack``, or the P of
a sector witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import (
    EllipsoidOptions,
    MatrixConstraint,
    ellipsoid_feasibility,
)
from .iqc import (
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
from .linalg import SymMatrix, eig_sym, cond_spd, max_eigenvalue
from .model import FunctionClass, StepSizeInterval
# The rate search and the certificate types, re-exported: ``search`` runs
# the bisection and calls back into this module through its attributes.
from .search import (  # noqa: F401
    KINDS,
    RHO_HI,
    RHO_LO,
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
    Certificate,
    CertifyOptions,
    InvalidInput,
    SolverBudgetExceeded,
    Witness,
    certify,
    closed_form_rate,
    default_eps_feas,
    lambda_interval_sector,
    sector_lambda,
    top_rate,
)


@dataclass(frozen=True, eq=False)
class LmiInstance:
    """One feasibility question: the block family at a fixed candidate rho."""

    rho: float
    interval: StepSizeInterval
    aug: AugmentedSystem
    quad: SymMatrix
    fc: FunctionClass

    def __post_init__(self):
        if not self.rho > 0.0:
            raise InvalidInput(f"need rho > 0, got {self.rho}")


def assemble_lmi_block(
    aug: AugmentedSystem,
    quad: SymMatrix,
    rho: float,
    alpha: float,
    p: SymMatrix,
    lam: float,
) -> SymMatrix:
    """The symmetric block of the family at one step size, for given
    (rho, P, lambda)."""
    s = aug.state_dim
    if p.order != s:
        raise InvalidInput(f"P has order {p.order}, expected {s}")
    if quad.order != s + 1:
        raise InvalidInput(f"quad has order {quad.order}, expected {s + 1}")
    if lam < 0.0:
        raise InvalidInput(f"need lambda >= 0, got {lam}")
    pm = p.mat
    a = aug.a
    b = aug.b(alpha)
    pa = pm @ a
    pb = pm @ b
    top_left = a.T @ pa - (rho * rho) * pm
    top_right = a.T @ pb
    bottom_right = float(b @ pb)
    block = np.empty((s + 1, s + 1))
    block[:s, :s] = top_left
    block[:s, s] = top_right
    block[s, :s] = top_right
    block[s, s] = bottom_right
    block += lam * quad.mat
    return SymMatrix(block, symmetrize=True)


# P of every sector witness: immutable, so one instance serves them all.
_P_ONE = SymMatrix([[1.0]])


def _family_slack(inst: LmiInstance, p: SymMatrix, lam: float) -> float:
    """Largest block eigenvalue over the interval endpoints."""
    worst = -math.inf
    for alpha in inst.interval.endpoints:
        block = assemble_lmi_block(inst.aug, inst.quad, inst.rho, alpha, p, lam)
        worst = max(worst, max_eigenvalue(block))
    return worst


def _p_basis(s: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unit-trace parameterization of symmetric P: the last diagonal entry
    absorbs the trace constraint.  Returns (P0, [basis matrices]) so that
    P(v) = P0 + sum_i v_i * basis[i]; the lambda variable is appended by the
    caller and has no P component."""
    p0 = np.zeros((s, s))
    p0[s - 1, s - 1] = 1.0
    basis = []
    for i in range(s - 1):
        e = np.zeros((s, s))
        e[i, i] = 1.0
        e[s - 1, s - 1] = -1.0
        basis.append(e)
    for i in range(s):
        for j in range(i + 1, s):
            e = np.zeros((s, s))
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
    return p0, basis


def _matrix_backend(
    inst: LmiInstance, eps: float, opts: CertifyOptions
) -> Witness | None:
    s = inst.aug.state_dim
    p0, basis = _p_basis(s)
    # A 1x1 P is fixed by its unit trace; a zero direction keeps v_dim >= 2.
    basis = basis or [np.zeros((1, 1))]
    v_dim = len(basis) + 1

    def top_part(pmat: np.ndarray, alpha: float) -> np.ndarray:
        p_sym = SymMatrix(pmat, symmetrize=True)
        return assemble_lmi_block(inst.aug, inst.quad, inst.rho, alpha, p_sym, 0.0).mat

    constraints: list[MatrixConstraint] = []
    # lambda >= 0, as a 1x1 block.
    lam_coeffs = np.zeros((v_dim, 1, 1))
    lam_coeffs[-1, 0, 0] = -1.0
    constraints.append(
        MatrixConstraint(s0=np.zeros((1, 1)), coeffs=lam_coeffs, bound=0.0)
    )
    # P >= delta_pd * I  <=>  lambda_max(-P(v)) <= -delta_pd.
    pd_coeffs = np.stack([-b for b in basis] + [np.zeros((s, s))])
    constraints.append(
        MatrixConstraint(s0=-p0, coeffs=pd_coeffs, bound=-opts.delta_pd)
    )
    # One block per interval endpoint.
    for alpha in inst.interval.endpoints:
        s0 = top_part(p0, alpha)
        coeffs = np.stack(
            [top_part(b, alpha) for b in basis] + [inst.quad.mat]
        )
        constraints.append(MatrixConstraint(s0=s0, coeffs=coeffs, bound=-eps))

    point = ellipsoid_feasibility(
        constraints, v_dim, EllipsoidOptions(max_iters=opts.max_iters)
    )
    if point is None:
        return None
    pmat = p0 + sum(v * b for v, b in zip(point[:-1], basis))
    p = SymMatrix(pmat, symmetrize=True)
    return Witness(p=p, lam=float(point[-1]))


def feasible_at_rho(inst: LmiInstance, opts: CertifyOptions | None = None) -> Witness | None:
    """Decide joint feasibility of the block family at ``inst.rho``.

    Returns a Witness, or None when infeasible.  Raises SolverBudgetExceeded
    (distinct from infeasibility) if the ellipsoid backend runs out of
    iterations before reaching a verdict.
    """
    opts = opts or CertifyOptions()
    eps = opts.eps_feas if opts.eps_feas is not None else default_eps_feas(inst.fc.kappa())
    if inst.aug.state_dim == 1:
        lam = sector_lambda(inst.rho, inst.interval.endpoints, inst.fc, eps)
        return None if lam is None else Witness(p=_P_ONE, lam=lam)
    return _matrix_backend(inst, eps, opts)


def _build_multiplier(
    fc: FunctionClass,
    kind: str,
    rho: float,
    zf_order: int,
    weights: tuple[float, ...] | None,
) -> IqcMultiplier:
    if kind == SECTOR:
        return sector(fc)
    if kind == WEIGHTED_OFF_BY_1:
        h1 = weights[0] if weights else default_weights(kind, rho, 1)[0]
        return weighted_off_by_1(fc, rho, h1)
    if kind == ZAMES_FALB:
        h = weights if weights else default_weights(kind, rho, zf_order)
        return zames_falb(fc, rho, h)
    raise InvalidInput(f"unknown multiplier kind {kind!r}; expected one of {KINDS}")


def _instance(
    fc: FunctionClass,
    interval: StepSizeInterval,
    kind: str,
    rho: float,
    zf_order: int,
    weights: tuple[float, ...] | None,
) -> LmiInstance:
    """Build the feasibility instance in reduced units.

    The whole certification problem depends on (m, L, steps) only through
    the condition number and the products step*m: rescaling the class to
    modulus 1 and the steps by m leaves every contraction factor, hence the
    certified rate, unchanged, while keeping the block entries at unit scale
    so the strictness tolerances mean the same thing for every input.  The
    witness therefore refers to the reduced system; for m == 1 the reduction
    is the identity.
    """
    m = fc.m
    fc_n = FunctionClass(1.0, fc.L / m)
    mult = _build_multiplier(fc_n, kind, rho, zf_order, weights)
    aug = augment(mult)
    return LmiInstance(
        rho=rho,
        interval=StepSizeInterval(interval.lo * m, interval.hi * m),
        aug=aug,
        quad=quad_form(aug, mult),
        fc=fc_n,
    )


def _replay_instance(cert: Certificate) -> LmiInstance:
    """The certificate's instance at ``rho_star``, rebuilt from its own
    fields in reduced units (matching the witness)."""
    return _instance(cert.fc, cert.interval, cert.iqc_kind, cert.rho_star,
                     cert.zf_order or 1, cert.weights or None)


def verify_certificate(cert: Certificate, slack_tol: float | None = None) -> bool:
    """Replay the certificate: re-assemble the block at both endpoints of the
    stored interval at the stored (rho_star, P, lambda) and check them
    against ``slack_tol`` (default: the same data-scaled tolerance used for
    feasibility).  The slack is recomputed here, never read from
    ``cert.slack``."""
    if cert.rho_star is None or cert.witness is None:
        raise InvalidInput("certificate has no witness to verify")
    wit = cert.witness
    if wit.lam < 0.0:
        return False
    if eig_sym(wit.p).eigenvalues[0] <= 0.0:
        return False
    try:
        inst = _replay_instance(cert)
    except WeightOutOfRange:
        return False
    tol = slack_tol if slack_tol is not None else default_eps_feas(inst.fc.kappa())
    return _family_slack(inst, wit.p, wit.lam) <= tol

