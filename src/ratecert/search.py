"""The rate search in plain floats: ``certify``'s bisection on rho, the
sector family's closed-form probes, and the types a certificate is made of.

This module imports no numpy, so a sector ``certify`` (and with it a
sector sweep) runs from start to end without it.  The numpy layer,
``certifier`` (the barrier backend, replay and ``verify_certificate``),
is imported the first time the search needs it: the set-up of a dynamic
(wob1, zf:k) ``certify``, the condition number of a dynamic witness,
``Certificate.slack``, or the P of a sector witness.  The search calls
those names through the module (``certifier.feasible_at_rho``), so a name
replaced there is the one called.

The bisection runs over the fixed bracket [RHO_LO, RHO_HI] down to a width
of ``rho_tol``, and every trial rate goes through one oracle: a rate below
the floor fails (the floor starts at the exact rate, or just above a rate
the caller knows to be infeasible, and rises past each rate solved
infeasible), a rate at or above the lowest rate solved feasible passes
with that rate's witness, and any other rate is solved once.  A threshold
estimate (the floor; for sector the closed form ``sector_threshold``,
where the endpoints' lambda intervals touch or else their own thresholds)
predicts the path, and two checks through the oracle confirm it, or the
plain bisection runs over the same oracle.  A settled sector certify makes
one or two solves; wob1 and zf:k solve the top rate first.
See ``certifier`` for the inequality family and the barrier backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
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
# k^4, and so does each Newton step's Gram product: zf:200 would need about
# 13 GB of data per certification before its first step.
MAX_ZF_ORDER = 6

# The bisection bracket.  The top stays at 1 because discounted multiplier
# validity is only claimed below 1: infeasibility there means "no
# convergence certificate".
RHO_LO = 1e-3
RHO_HI = 1.0


class InvalidInput(ValueError):
    pass


class SolverBudgetExceeded(RuntimeError):
    """Step budget reached before a feasible point or a proof of infeasibility."""


def _numpy_layer():
    """The ``certifier`` module, imported (with numpy) on first use."""
    from . import certifier

    return certifier


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
    the trial rates of the plain bisection (the top, the bottom of the
    bracket, then the path), however each was decided: by a solve, below
    the floor, or at or above a rate solved feasible; a path settled by
    its two checks counts the trial rates it predicted."""

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
        """The step sizes the certificate was checked at, the interval's
        endpoints; read by the benchmark harness (``perfbench/run.py``)."""
        return self.interval.endpoints

    @cached_property
    def slack(self) -> float | None:
        """Largest block eigenvalue of the witness over the interval
        endpoints (<= 0; inf where ``certifier._slack`` cannot evaluate it),
        computed on first read; None without a witness."""
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


def sector_threshold(
    alphas: tuple[float, ...], fc: FunctionClass, eps: float, floor: float
) -> float:
    """``certify``'s estimate of the rate at which ``sector_lambda`` over
    ``alphas`` turns feasible, never below ``floor``: where the endpoints'
    lambda intervals (``lambda_interval_sector``) touch, if that lies above
    ``floor``; else the larger of ``floor`` and each endpoint's own
    threshold, below which its interval is empty (eps lifts it a little
    above the exact rate).  One step size and ``floor=0.0`` give that
    endpoint's own threshold.  Closed forms that never raise: no real root,
    a zero denominator or overflow gives no rate.

    Touching: the upper root of one endpoint's determinant quadratic is the
    lower root of the other's.  With ``v = rho^2 - eps`` (``u = 1 - v``)
    their difference gives ``lambda = s*v / (2(L+m) - 2mL*s)``, ``s`` the sum
    of the step sizes, which in the lower endpoint's quadratic leaves a
    quadratic in v.  Its largest root at which lambda is an upper root of
    one and a lower root of the other gives ``sqrt(v + eps)``.

    Own threshold: the discriminant of the endpoint's quadratic, over 4, is
    ``u^2 + p*u + q`` with ``p = (L-m)^2 * w - b0`` and ``q = b0^2/4 -
    (L-m)^2 * alpha^2``, where ``b_coef = b0 - 2u``.  Its smaller root (at
    eps = 0, ``1 - (1 - alpha*m)^2`` or ``1 - (1 - alpha*L)^2``, which give
    ``closed_form_rate``) is the u of the threshold ``sqrt(1 + eps - u)``.
    """
    m, L = fc.m, fc.L
    s = sum(alphas)
    den = 2.0 * (L + m) - 2.0 * m * L * s
    try:
        # ``** 2`` here and ``d * d`` below can differ in the last bit; the
        # pinned witness digests hold each form where it is.
        a_coef = -((L - m) ** 2)
    except OverflowError:  # past kappa ~1e154: no touching rate
        den = 0.0
    v_touch = -math.inf  # the largest v at which the intervals touch
    if len(alphas) == 2 and den != 0.0:
        k = s / den
        alpha = alphas[0]
        w = alpha * alpha + eps
        # f_lo(k*v) = qa*v^2 + qb*v + eps, the constant being w - alpha^2.
        qa = a_coef * k * k + 2.0 * k
        qb = k * (2.0 * alpha * (L + m) - 2.0 - 2.0 * m * L * w) - w
        disc = qb * qb - 4.0 * qa * eps
        if disc >= 0.0:
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))  # roots q/qa, eps/q
            for num, div in ((q, qa), (eps, q)):
                if div == 0.0:
                    continue
                v = num / div
                # f'(lam) = 2*a*lam + b at each endpoint, lam = k*v: <= 0 at
                # an upper root, >= 0 at a lower one.
                slopes = [2.0 * a_coef * (k * v) + 2.0 * al * (L + m) - 2.0 * (1.0 - v)
                          - 2.0 * m * L * (al * al + eps) for al in alphas]
                if slopes[0] * slopes[1] <= 0.0 and v > v_touch:
                    v_touch = v
    rho2 = v_touch + eps
    touch = math.sqrt(rho2) if 0.0 < rho2 < math.inf else 0.0
    if touch > floor:
        return touch
    d = L - m
    best = floor
    for alpha in alphas:
        w = alpha * alpha + eps
        half_b0 = alpha * (L + m) - m * L * w
        p = d * d * w - 2.0 * half_b0
        # b0^2/4 - (L-m)^2 alpha^2, factored: no cancellation near kappa 1.
        q = (half_b0 - d * alpha) * (half_b0 + d * alpha)
        disc = p * p - 4.0 * q
        if not disc >= 0.0:
            continue
        r = -0.5 * (p + math.copysign(math.sqrt(disc), p))  # roots r and q/r
        if r == 0.0:
            continue
        rho2 = 1.0 + eps - min(r, q / r)
        if 0.0 < rho2 < math.inf:
            best = max(best, math.sqrt(rho2))
    return best


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
    known_infeasible: float | None = None,
    *,
    rho_tol: float = 1e-4,
    eps_feas: float | None = None,
) -> Certificate:
    """Bisect on rho for the smallest certifiable rate over the interval.

    ``rho_tol`` is the width of the final bracket, in (0, RHO_HI - RHO_LO].
    ``eps_feas`` makes "<= 0" strict, as "<= -eps_feas * I", and is finite
    and >= 0; None selects ``default_eps_feas``, 1e-9 * (1 + 2L/m), here
    alone: every probe is handed this eps.  A value out of its range (NaN
    included) raises InvalidInput.

    Sector probes never build numpy data: P is 1, the reduced class and
    interval and eps are plain floats computed once per call, and each
    probe is ``sector_lambda`` at its rho.  A dynamic multiplier's data
    (``certifier.augment``) is built once, at set-up; its
    weights are validated again at every trial rho because admissible
    weights depend on rho (pass ``weights``, one per filter tap, to pin them
    instead; trial rates at which pinned weights are inadmissible count as
    infeasible), and the certificate records the weights its rate was
    solved with.  ``taps`` checks the spec once: weights of any other
    length, or any for sector, raise InvalidInput, as does an order, for
    any kind, that is not an integer in 1..MAX_ZF_ORDER (bool included);
    only zf records it.  Dynamic solves hold P >=
    ``certifier.DELTA_PD`` * I and take the barrier solver's step budget,
    ``ellipsoid.MAX_STEPS``.  The returned rate is the upper end of the final
    bracket, so it is always backed by a stored witness; ``rho_star`` is
    None when even the top of the bracket is infeasible.  Trial rates below the exact
    worst-case rate ``r_exact = max(closed_form_rate(lo),
    closed_form_rate(hi))`` are infeasible without a solve, and so are
    rates at or below ``known_infeasible``: the highest rate the caller
    already knows to be infeasible over this interval (``sweep-c`` passes
    the top rate on once a smaller, nested interval had no certificate).

    Every trial rate goes through one oracle, ``feasible``: a rate below
    the floor (at first the larger of r_exact and just above
    ``known_infeasible``) is rejected; a rate at or above the ceiling (the
    lowest rate solved feasible) takes the ceiling's verdict; any other is
    solved once (a dynamic solve starts from the ceiling's witness when
    there is one), and an infeasible verdict raises the floor past it, a
    feasible one lowers the ceiling to it.  A budget error
    (SolverBudgetExceeded) leaves both where they were.

    An estimate t of the threshold predicts the whole path: a float-only
    walk bisects as if every trial rate at or above t were feasible, and
    ends with top g and lower end ``below``.  t is the floor, the lowest
    rate not rejected without a solve; for sector it is ``sector_threshold``
    at that floor: the rate at which the endpoints' lambda intervals touch
    where it lies above the floor, else the larger of the floor and the
    endpoints' own thresholds.  wob1 and zf:k solve the top rate first (wob1
    is not monotone near rate 1).  When the bottom of the bracket is below
    the floor, g and then ``below`` go through the oracle; if g holds and
    ``below`` does not (free when it lies under the floor, as it always does
    for the dynamic kinds), monotonicity in rho decides every rate on the
    path as the bisection would, and the search ends at g.  A budget error
    at a check is no verdict.  Otherwise the plain bisection runs over the
    same oracle: the top rate (none: no certificate), the bottom of the
    bracket (feasible: it is the rate), then the path.  A top rate below the
    floor ends the search before any set-up.  Where feasibility is monotone
    in rho, as it is for sector, the rate, witness and ``bisection_iters``
    are those of the plain bisection that solves every rate it tries at or
    above r_exact.
    ``Certificate.slack`` is computed on demand, on its first read.
    """
    if not 0.0 < rho_tol <= RHO_HI - RHO_LO:
        raise InvalidInput(f"need 0 < rho_tol <= {RHO_HI - RHO_LO}, got {rho_tol}")
    if eps_feas is not None and not 0.0 <= eps_feas < math.inf:
        raise InvalidInput(f"need eps_feas None or finite >= 0, got {eps_feas}")
    n_weights = taps(iqc_kind, zf_order, weights)
    # No witness exists below the exact worst-case rate: the constant step
    # at the worse endpoint attains it on a quadratic.  Trial rates below
    # ``floor`` are rejected without a solve.
    r_exact = max(closed_form_rate(interval.lo, fc), closed_form_rate(interval.hi, fc))
    floor = r_exact
    if known_infeasible is not None:
        floor = max(floor, math.nextafter(known_infeasible, math.inf))

    def finish(found: tuple[float, float | Witness, tuple[float, ...]] | None,
               evals: int) -> Certificate:
        rho_star = wit = cond_p = None
        used: tuple[float, ...] = ()
        if found is not None:
            rho_star, verdict, used = found
            if iqc_kind == SECTOR:
                # P is [[1.0]], of condition number 1.
                wit, cond_p = Witness(p=None, lam=verdict), 1.0
            else:
                wit, cond_p = verdict, _numpy_layer().cond_spd(verdict.p)
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
            rho_tol=rho_tol,
        )

    hi = top_rate(rho_tol)
    if hi < floor:
        return finish(None, 1)  # the top probe, rejected without a solve

    fc_n, alphas = reduced(fc, interval)
    eps = eps_feas if eps_feas is not None else default_eps_feas(fc_n.kappa())
    if iqc_kind != SECTOR:
        certifier = _numpy_layer()
        lmi = certifier.augment(fc_n.kappa(), alphas, n_weights)
    ceiling = None  # (rho, verdict, h) of the lowest rate solved feasible

    # The oracle (see above).  A found rate is (rho, lambda, ()) for sector,
    # (rho, Witness, h) otherwise, with the weights h it was solved with.
    def feasible(rho: float) -> tuple[float, float | Witness, tuple[float, ...]] | None:
        nonlocal floor, ceiling
        if rho < floor:
            return None
        if ceiling is not None and rho >= ceiling[0]:
            return ceiling
        verdict, h = None, ()
        if iqc_kind == SECTOR:
            verdict = sector_lambda(rho, alphas, fc_n, eps)
        else:
            try:
                h = certifier._weights(iqc_kind, rho, n_weights, weights)
            except certifier.WeightOutOfRange:
                pass
            else:
                verdict = certifier.feasible_at_rho(
                    lmi, rho, h, eps, start=None if ceiling is None else ceiling[1])
        if verdict is None:
            floor = math.nextafter(rho, math.inf)
            return None
        ceiling = (rho, verdict, h)
        return ceiling

    def bisect(decide) -> tuple[float, float, object, int]:
        """Shrink [RHO_LO, hi]: (final top, final lower end, last truthy
        verdict, trial rates)."""
        lo, top, found, n = RHO_LO, hi, None, 0
        while top - lo > rho_tol:
            mid = 0.5 * (lo + top)
            if not lo < mid < top:
                break  # adjacent floats: the bracket cannot shrink further
            n += 1
            verdict = decide(mid)
            if verdict:
                top, found = mid, verdict
            else:
                lo = mid
        return top, lo, found, n

    # The estimate t of the threshold: the lowest rate not rejected without
    # a solve, raised for sector by the closed form.
    t = sector_threshold(alphas, fc_n, eps, floor) if iqc_kind == SECTOR else floor

    # Sector feasibility is monotone in rho (rho enters only through
    # u = 1 - rho^2 + eps, and a smaller u widens each endpoint's lambda
    # interval), so a feasible check decides the top.  wob1 is not monotone
    # near rate 1: the dynamic kinds solve the top first.
    if iqc_kind != SECTOR:
        feasible(hi)
    if RHO_LO < floor:
        # The path t predicts: g its final top, below its final lower end.
        g, below, _, n = bisect(lambda rho: rho >= t)
        try:
            found = feasible(g)
            if found and not feasible(below):
                return finish(found, 2 + n)  # the top and bottom, and the path
        except SolverBudgetExceeded:
            pass  # no verdict: the bisection decides
    found_hi = feasible(hi)
    if found_hi is None:
        return finish(None, 1)
    found_lo = feasible(RHO_LO)
    if found_lo is not None:
        return finish(found_lo, 2)
    _, _, found, n = bisect(feasible)
    return finish(found or found_hi, 2 + n)


def taps(kind: str, zf_order: int | None, weights: tuple[float, ...] | None = None) -> int:
    """The filter taps k of a multiplier kind: 0 for sector, 1 for wob1,
    the zf order for zf.  Each tap has one weight.  The one check of a
    multiplier spec, for ``certify`` and the replay alike: raises
    InvalidInput for a kind outside KINDS, for an order given (zf needs one)
    that is not an integer in 1..MAX_ZF_ORDER (bool included), or for
    ``weights`` given that are not k."""
    if kind not in KINDS:
        raise InvalidInput(f"unknown multiplier kind {kind!r}; expected one of {KINDS}")
    order_ok = (isinstance(zf_order, Integral) and not isinstance(zf_order, bool)
                and 1 <= zf_order <= MAX_ZF_ORDER)
    if not order_ok and (zf_order is not None or kind == ZAMES_FALB):
        raise InvalidInput(f"zf_order must be an integer in [1, {MAX_ZF_ORDER}], got {zf_order!r}")
    k = {SECTOR: 0, WEIGHTED_OFF_BY_1: 1}.get(kind, zf_order)
    if weights is not None and len(weights) != k:
        raise InvalidInput(f"{kind} takes {k} weight(s), got {len(weights)}")
    return k


def top_rate(rho_tol: float) -> float:
    """The first and highest rate ``certify`` tries: 1 - rho_tol.  Rate 1 is
    no certificate, and below rho_tol ~1.1e-16, 1 - rho_tol rounds to 1, so
    the rate is capped at the float below 1."""
    return min(RHO_HI - rho_tol, math.nextafter(RHO_HI, 0.0))
