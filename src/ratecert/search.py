"""The rate search in plain floats: ``certify``'s bisection on rho, the
sector family's closed-form probes, and the types a certificate is made of.

This module imports no numpy, so a sector ``certify`` (and with it a
sector sweep) runs from start to end without it.  The numpy layer,
``certifier`` (the ellipsoid backend, replay and ``verify_certificate``),
is imported the first time the search needs it:
a probe of a dynamic multiplier (wob1, zf:k), the condition number of a
dynamic witness, ``Certificate.slack``, or the P of a sector witness.  The
search calls those names through the module (``certifier.feasible_at_rho``),
so a name replaced there is the one called.

The bisection runs over the fixed bracket [RHO_LO, RHO_HI] down to a width
of ``rho_tol``; one solve where it would end if all rates above the exact
rate were feasible settles a tight certificate.  See ``certifier`` for the
inequality family and its two backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .model import FunctionClass, StepSizeInterval, reduced

if TYPE_CHECKING:
    import numpy as np

# The multiplier kinds (``iqc`` builds them).
SECTOR = "sector"
WEIGHTED_OFF_BY_1 = "wob1"
ZAMES_FALB = "zf"

KINDS = (SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB)

# The largest zf filter order ``certify`` accepts.  A k-tap probe has
# (k+1)(k+2)/2 + 1 decision variables, so the inequality's data grows as
# k^4 and the ellipsoid's cut budget as k^4 cuts of (k+2)-order eigen-solves:
# zf:6 takes seconds at (10, 1.2), and zf:200 would need about 13 GB of data
# per certification before its first cut.
MAX_ZF_ORDER = 6

# The bisection bracket.  The top stays at 1 because discounted multiplier
# validity is only claimed below 1: infeasibility there means "no
# convergence certificate".
RHO_LO = 1e-3
RHO_HI = 1.0


class InvalidInput(ValueError):
    pass


class SolverBudgetExceeded(RuntimeError):
    """Iteration cap reached before a feasible point or a volume certificate."""


def _numpy_layer():
    """The ``certifier`` module, imported (with numpy) on first use."""
    from . import certifier

    return certifier


@dataclass(frozen=True)
class CertifyOptions:
    """Numerical knobs for feasibility tests and the rate bisection.

    ``rho_tol`` is the width of the final bracket, in (0, RHO_HI - RHO_LO].
    ``eps_feas = None`` selects the data-scaled default 1e-9 * (1 + 2L/m),
    which is 1e-9 * (1 + max |Qf entries|) of the reduced data.
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


class _WitnessP:
    """``Witness.p``: the P given, or for a sector witness (given
    ``p=None``) its P = [[1.0]], ``certifier._P_ONE``, fetched by the first
    read."""

    def __get__(self, wit, owner=None):
        if wit is None:
            raise AttributeError("p")  # no class-level default: p is required
        if wit.__dict__["p"] is None:
            wit.__dict__["p"] = _numpy_layer()._P_ONE
        return wit.__dict__["p"]

    def __set__(self, wit, p):
        wit.__dict__["p"] = p


@dataclass(frozen=True, eq=False)
class Witness:
    """Feasible pair for the whole family: P (unit trace, read-only and
    exactly symmetric) and lambda >= 0.  ``p=None`` makes a sector witness,
    whose P is [[1.0]]."""

    p: np.ndarray = _WitnessP()
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
        return _numpy_layer()._slack(self)


def closed_form_rate(alpha: float, fc: FunctionClass) -> float:
    """Exact worst-case contraction factor of one constant-step iteration:
    max(|1 - alpha*m|, |1 - alpha*L|)."""
    if alpha < 0.0:
        raise InvalidInput(f"need alpha >= 0, got {alpha}")
    return max(abs(1.0 - alpha * fc.m), abs(1.0 - alpha * fc.L))


def default_eps_feas(kappa: float) -> float:
    """The data-scaled tolerance 1e-9 * (1 + max |Qf entries|) of every
    kind's reduced Qf = ``iqc.quad_form``, without reading it.  In
    reduced units its largest entry is the 2k of entry (0, 0), for
    k = L/m >= 1: the others are k + 1, 2 and the filter weights, each at
    most 1 + 1e-9.  Past k ~ 9e307 it is inf, silently, where the numpy Qf
    overflows."""
    return 1e-9 * (1.0 + 2.0 * kappa)


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


def certify(
    fc: FunctionClass,
    interval: StepSizeInterval,
    iqc_kind: str = SECTOR,
    zf_order: int = 2,
    weights: tuple[float, ...] | None = None,
    options: CertifyOptions | None = None,
) -> Certificate:
    """Bisect on rho for the smallest certifiable rate over the interval.

    Sector probes never build numpy data: P is 1, the reduced class and
    interval and the default tolerance are plain floats computed once per
    call, and each probe is ``sector_lambda`` at its rho.  A dynamic
    multiplier's data (``certifier.augment``) is built once, at the first
    dynamic solve; its weights are validated again at every trial rho
    because admissible weights depend on rho (pass ``weights``, one per
    filter tap, to pin them instead; trial rates at which pinned weights are
    inadmissible count as infeasible).  Weights of any other length, or any
    for sector, raise InvalidInput, as does a zf order above MAX_ZF_ORDER.
    The returned rate is the upper end of the final bracket,
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
    if iqc_kind == ZAMES_FALB and zf_order > MAX_ZF_ORDER:
        raise InvalidInput(f"zf_order must be <= {MAX_ZF_ORDER}, got {zf_order}")
    n_weights = taps(iqc_kind, zf_order)
    if weights is not None and len(weights) != n_weights:
        raise InvalidInput(f"{iqc_kind} takes {n_weights} weight(s), got {len(weights)}")
    evals = 0
    # No witness exists below the exact worst-case rate: the constant step
    # at the worse endpoint attains it on a quadratic.  Trial rates below
    # ``floor`` are rejected without a solve.
    r_exact = max(closed_form_rate(interval.lo, fc), closed_form_rate(interval.hi, fc))
    floor = r_exact

    fc_n, alphas = reduced(fc, interval)
    eps = opts.eps_feas if opts.eps_feas is not None else default_eps_feas(fc_n.kappa())
    lmi = None  # a dynamic multiplier's data, built by the first solve

    # A found rate is (rho, lambda) for sector, (rho, Witness) otherwise.
    def probe(rho: float) -> tuple[float, float | Witness] | None:
        nonlocal evals
        evals += 1
        return None if rho < floor else solve(rho)

    def solve(rho: float) -> tuple[float, float | Witness] | None:
        nonlocal lmi
        if iqc_kind == SECTOR:
            verdict = sector_lambda(rho, alphas, fc_n, eps)
        else:
            certifier = _numpy_layer()
            if lmi is None:
                lmi = certifier.augment(fc_n.kappa(), alphas, n_weights)
            try:
                h = certifier._weights(iqc_kind, rho, n_weights, weights)
            except certifier.WeightOutOfRange:
                return None
            verdict = certifier.feasible_at_rho(lmi, rho, h, opts)
        return None if verdict is None else (rho, verdict)

    def finish(found: tuple[float, float | Witness] | None) -> Certificate:
        rho_star = wit = cond_p = None
        used: tuple[float, ...] = ()
        if found is not None:
            rho_star, verdict = found
            if iqc_kind == SECTOR:
                # P is [[1.0]], of condition number 1.
                wit, cond_p = Witness(p=None, lam=verdict), 1.0
            else:
                certifier = _numpy_layer()
                wit, cond_p = verdict, certifier.cond_spd(verdict.p)
                used = tuple(weights or certifier.default_weights(
                    iqc_kind, rho_star, n_weights))
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


def taps(kind: str, zf_order: int | None) -> int:
    """The filter taps k of a multiplier kind: 0 for sector, 1 for wob1,
    the zf order for zf.  Each tap has one weight."""
    return {SECTOR: 0, WEIGHTED_OFF_BY_1: 1}.get(kind, zf_order)


def top_rate(rho_tol: float) -> float:
    """The first and highest rate ``certify`` tries: 1 - rho_tol.  Rate 1 is
    no certificate, and below rho_tol ~1.1e-16, 1 - rho_tol rounds to 1, so
    the rate is capped at the float below 1."""
    return min(RHO_HI - rho_tol, math.nextafter(RHO_HI, 0.0))
