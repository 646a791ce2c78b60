"""Rate certification: assemble the parameterized matrix inequality at the
endpoints of a step-size interval, decide joint feasibility in (P, lambda),
and bisect on the contraction rate rho.

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
  floats; only replay (``Certificate.slack``, ``verify_certificate``)
  builds the numpy instance.
* augmented state dimension >= 2: a deep-cut ellipsoid method over the
  decision vector (free entries of P, lambda) with cutting planes from the
  most-positive eigenvector of a violated block.

"<= 0" is implemented strictly as "<= -eps_feas * I" with a data-scaled
default eps_feas, and P is kept away from singularity by P >= delta_pd * I;
both tolerances are explicit options.  The bisection runs over the fixed
bracket [RHO_LO, RHO_HI] down to a width of ``rho_tol``; one solve where
it would end if all rates above the exact rate were feasible settles a
tight certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    KINDS,
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

# The bisection bracket.  The top stays at 1 because discounted multiplier
# validity is only claimed below 1: infeasibility there means "no
# convergence certificate".
RHO_LO = 1e-3
RHO_HI = 1.0


class InvalidInput(ValueError):
    pass


@dataclass(frozen=True)
class CertifyOptions:
    """Numerical knobs for feasibility tests and the rate bisection.

    ``rho_tol`` is the width of the final bracket, in (0, RHO_HI - RHO_LO].
    ``eps_feas = None`` selects the data-scaled default 1e-9 * (1 + 2L/m),
    which is 1e-9 * (1 + max |Qf entries|) of the reduced instance.
    ``max_iters`` caps the ellipsoid's iterations (None: its own default).
    A ``rho_tol`` outside its range (NaN included), a negative or
    non-finite ``eps_feas``, or a ``delta_pd`` that is not finite and
    positive raises InvalidInput.
    """

    rho_tol: float = 1e-4
    eps_feas: float | None = None
    delta_pd: float = 1e-8
    max_iters: int | None = None

    def __post_init__(self):
        if not 0.0 < self.rho_tol <= RHO_HI - RHO_LO:
            raise InvalidInput(
                f"need 0 < rho_tol <= {RHO_HI - RHO_LO}, got {self.rho_tol}"
            )
        if self.eps_feas is not None and not 0.0 <= self.eps_feas < math.inf:
            raise InvalidInput(f"need eps_feas None or finite >= 0, got {self.eps_feas}")
        if not 0.0 < self.delta_pd < math.inf:
            raise InvalidInput(f"need finite delta_pd > 0, got {self.delta_pd}")


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


@dataclass(frozen=True, eq=False)
class Witness:
    """Feasible pair for the whole family: P (unit trace) and lambda >= 0."""

    p: SymMatrix
    lam: float


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of certification.  ``rho_star`` is None when no rate below
    one could be certified; otherwise the stored witness re-verifies at
    ``rho_star`` by direct block re-assembly.  ``bisection_iters`` counts
    the trial rates on the bisection's path, however each was decided
    (solver, exact rate, or a feasible solve below it)."""

    rho_star: float | None
    witness: Witness | None
    cond_p: float | None
    fc: FunctionClass
    interval: StepSizeInterval
    iqc_kind: str
    zf_order: int | None
    weights: tuple[float, ...]
    bisection_iters: int
    rho_tol: float

    @property
    def feasible(self) -> bool:
        return self.rho_star is not None

    @property
    def grid(self) -> tuple[float, ...]:
        """The step sizes the certificate was checked at."""
        return self.interval.endpoints

    @cached_property
    def slack(self) -> float | None:
        """Largest block eigenvalue of the witness over the interval
        endpoints (<= 0), computed on first read; None without a witness."""
        if self.witness is None:
            return None
        return _family_slack(_replay_instance(self), self.witness.p, self.witness.lam)


def closed_form_rate(alpha: float, fc: FunctionClass) -> float:
    """Exact worst-case contraction factor of one constant-step iteration:
    max(|1 - alpha*m|, |1 - alpha*L|)."""
    if alpha < 0.0:
        raise InvalidInput(f"need alpha >= 0, got {alpha}")
    return max(abs(1.0 - alpha * fc.m), abs(1.0 - alpha * fc.L))


def default_eps_feas(kappa: float) -> float:
    """The data-scaled tolerance 1e-9 * (1 + max |Qf entries|) of every
    instance ``_instance`` builds, without reading its Qf.  In reduced
    units its largest entry is the 2k of entry (0, 0), for k = L/m >= 1:
    the others are k + 1, 2 and the filter weights, each at most 1 + 1e-9.
    Past k ~ 9e307 it is inf, silently, where the numpy Qf overflows."""
    return 1e-9 * (1.0 + 2.0 * kappa)


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


def lambda_interval_sector(
    rho: float, alpha: float, fc: FunctionClass, eps: float
) -> tuple[float, float] | None:
    """Exact set of lambda >= 0 making the scalar-P sector block <= -eps*I.

    With P normalized to 1 the block is 2x2:

        [ (1 - rho^2) - 2mL*lam    -alpha + (L+m)*lam ]
        [ -alpha + (L+m)*lam        alpha^2 - 2*lam   ]

    Negative semidefiniteness (after the eps shift) is two diagonal
    half-line conditions plus a determinant condition that is concave
    quadratic in lambda (linear when L == m).  Returns the closed interval
    (upper end may be inf), or None when empty.
    """
    m, L = fc.m, fc.L
    u = 1.0 - rho * rho + eps
    w = alpha * alpha + eps
    lo = max(u / (2.0 * m * L), w / 2.0, 0.0)
    hi = math.inf

    a_coef = -((L - m) ** 2)
    b_coef = 2.0 * alpha * (L + m) - 2.0 * u - 2.0 * m * L * w
    c_coef = u * w - alpha * alpha

    if a_coef == 0.0:
        # kappa == 1: determinant condition is linear in lambda.
        if b_coef > 0.0:
            lo = max(lo, -c_coef / b_coef)
        elif b_coef < 0.0:
            hi = -c_coef / b_coef
        elif c_coef < 0.0:
            return None
    else:
        disc = b_coef * b_coef - 4.0 * a_coef * c_coef
        # A double root makes disc a difference of nearly equal numbers;
        # clamp round-off-negative values so tangent cases stay feasible.
        disc_scale = b_coef * b_coef + abs(4.0 * a_coef * c_coef)
        if disc < 0.0 and disc >= -1e-12 * disc_scale:
            disc = 0.0
        if disc < 0.0:
            return None
        sq = math.sqrt(disc)
        r1 = (-b_coef + sq) / (2.0 * a_coef)
        r2 = (-b_coef - sq) / (2.0 * a_coef)
        lo = max(lo, min(r1, r2))
        hi = max(r1, r2)

    if lo > hi:
        return None
    return (lo, hi)


# P of every sector witness: immutable, so one instance serves them all.
_P_ONE = SymMatrix([[1.0]])


def sector_lambda(
    rho: float, alphas: tuple[float, ...], fc: FunctionClass, eps: float
) -> float | None:
    """The sector family's lambda (P = 1) at ``rho`` over the step sizes
    ``alphas``, or None when their admissible intervals do not meet: the
    midpoint of the intersection, or one past its lower end if unbounded."""
    lo, hi = -math.inf, math.inf
    for alpha in alphas:
        iv = lambda_interval_sector(rho, alpha, fc, eps)
        if iv is None:
            return None
        lo, hi = max(lo, iv[0]), min(hi, iv[1])
    if lo > hi:
        return None
    return lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)


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


def certify(
    fc: FunctionClass,
    interval: StepSizeInterval,
    iqc_kind: str = SECTOR,
    zf_order: int = 2,
    weights: tuple[float, ...] | None = None,
    options: CertifyOptions | None = None,
) -> Certificate:
    """Bisect on rho for the smallest certifiable rate over the interval.

    Sector probes never build the numpy instance: P is 1, the reduced class
    and interval and the default tolerance are plain floats computed once
    per call, and each probe is ``sector_lambda`` at its rho.  The dynamic
    multipliers are re-instantiated at every trial rho because admissible
    weights depend on rho (pass ``weights``, one per filter tap, to pin them
    instead; trial rates at which pinned weights are inadmissible count as
    infeasible).  Weights of any other length, or any for sector, raise
    InvalidInput.  The returned rate is the upper end of the final bracket,
    so it is always backed by a stored witness; ``rho_star`` is None when
    even the top of the bracket is infeasible.  Trial rates below the exact
    worst-case rate ``r_exact = max(closed_form_rate(lo),
    closed_form_rate(hi))`` are infeasible without a solve.

    After the probes at both ends, a float-only walk finds the rate g where
    the bisection would end if every trial rate at or above r_exact were
    feasible, and g is solved once.  Feasible: by monotonicity in rho every
    rate on the path above g is feasible too, so the search ends at g.
    Infeasible: rates at or below g are rejected without a solve and the
    bisection runs as before (a budget error at g changes nothing).  Either
    way the rate, witness and ``bisection_iters`` are the plain bisection's.
    ``Certificate.slack`` is computed on demand, on its first read.
    """
    opts = options or CertifyOptions()
    if iqc_kind not in KINDS:
        raise InvalidInput(f"unknown multiplier kind {iqc_kind!r}")
    if zf_order < 1:
        raise InvalidInput(f"zf_order must be >= 1, got {zf_order}")
    n_weights = {SECTOR: 0, WEIGHTED_OFF_BY_1: 1}.get(iqc_kind, zf_order)
    if weights is not None and len(weights) != n_weights:
        raise InvalidInput(f"{iqc_kind} takes {n_weights} weight(s), got {len(weights)}")
    evals = 0
    # No witness exists below the exact worst-case rate: the constant step
    # at the worse endpoint attains it on a quadratic.  Trial rates below
    # ``floor`` are rejected without a solve.
    r_exact = max(closed_form_rate(interval.lo, fc), closed_form_rate(interval.hi, fc))
    floor = r_exact

    if iqc_kind == SECTOR:
        # The reduced units of _instance, in floats.
        fc_n = FunctionClass(1.0, fc.L / fc.m)
        alphas = StepSizeInterval(interval.lo * fc.m, interval.hi * fc.m).endpoints
        eps = opts.eps_feas if opts.eps_feas is not None else default_eps_feas(fc_n.kappa())

    # A found rate is (rho, lambda) for sector, (rho, Witness) otherwise.
    def probe(rho: float) -> tuple[float, float | Witness] | None:
        nonlocal evals
        evals += 1
        return None if rho < floor else solve(rho)

    def solve(rho: float) -> tuple[float, float | Witness] | None:
        if iqc_kind == SECTOR:
            verdict = sector_lambda(rho, alphas, fc_n, eps)
        else:
            try:
                inst = _instance(fc, interval, iqc_kind, rho, zf_order, weights)
            except WeightOutOfRange:
                return None
            verdict = feasible_at_rho(inst, opts)
        return None if verdict is None else (rho, verdict)

    def finish(found: tuple[float, float | Witness] | None) -> Certificate:
        rho_star = wit = cond_p = None
        used: tuple[float, ...] = ()
        if found is not None:
            rho_star, verdict = found
            if iqc_kind == SECTOR:
                # P is _P_ONE, of condition number 1.
                wit, cond_p = Witness(p=_P_ONE, lam=verdict), 1.0
            else:
                wit, cond_p = verdict, cond_spd(verdict.p)
            if n_weights:
                used = tuple(weights or default_weights(iqc_kind, rho_star, n_weights))
        return Certificate(
            rho_star=rho_star,
            witness=wit,
            cond_p=cond_p,
            fc=fc,
            interval=interval,
            iqc_kind=iqc_kind,
            zf_order=zf_order if iqc_kind == ZAMES_FALB else None,
            weights=used,
            bisection_iters=evals,
            rho_tol=opts.rho_tol,
        )

    hi = top_rate(opts.rho_tol)
    found_hi = probe(hi)
    if found_hi is None:
        return finish(None)
    found_lo = probe(RHO_LO)
    if found_lo is not None:
        return finish(found_lo)

    def bisect(decide) -> tuple[float, object, int]:
        """Shrink [RHO_LO, hi]: (final top, last truthy verdict, trial rates)."""
        lo, top, found, n = RHO_LO, hi, None, 0
        while top - lo > opts.rho_tol:
            mid = 0.5 * (lo + top)
            if not lo < mid < top:
                break  # adjacent floats: the bracket cannot shrink further
            n += 1
            verdict = decide(mid)
            if verdict:
                top, found = mid, verdict
            else:
                lo = mid
        return top, found, n

    # Where the bisection ends if every rate at or above r_exact is feasible.
    g, _, n = bisect(lambda rho: rho >= r_exact)
    try:
        found_g = found_hi if g == hi else solve(g)
    except SolverBudgetExceeded:
        found_g = False  # no verdict at g: the bisection decides every rate
    if found_g:
        # Feasibility is monotone in rho, so every rate on the path above g
        # is feasible and the bisection ends at g with this witness.
        evals += n
        return finish(found_g)
    if found_g is None:
        floor = math.nextafter(g, math.inf)  # g and every rate below fail
    _, found, _ = bisect(probe)
    return finish(found or found_hi)


def top_rate(rho_tol: float) -> float:
    """The first and highest rate ``certify`` tries: 1 - rho_tol.  Rate 1 is
    no certificate, and below rho_tol ~1.1e-16, 1 - rho_tol rounds to 1, so
    the rate is capped at the float below 1."""
    return min(RHO_HI - rho_tol, math.nextafter(RHO_HI, 0.0))


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

