"""Quadratic-constraint multipliers for the gradient nonlinearity, and the
affine data of the matrix inequality that certifies a rate with them.

Every multiplier is a k-tap shift register (k = 0 for the static sector
multiplier) whose state holds the last k values of u - L*y, with the
middle matrix M = [[0, 1], [1, 0]].  Its output row 0 is L*y - u plus the
taps weighted by h, row 1 is u - m*y, so z^T M z encodes the constraint
the gradient satisfies:

* sector           - no taps, no weights; holds pointwise at every step.
* off-by-k         - k taps with weights h_1..h_k satisfying 0 <= h_j <= 1
                      and sum rho^(-2j) h_j <= 1; holds in the rho-weighted
                      (exponentially discounted) sense.
* weighted off-by-1 - off-by-1: one tap with a weight h1 in [0, rho^2],
                      which is what the two conditions say for k = 1.

This module knows a multiplier only by its tap count k; the kind names a
certificate records (sector, wob1, zf) are ``search``'s.

Admissible weights depend on the candidate rate rho, so ``sector``,
``weighted_off_by_1`` and ``zames_falb`` validate a weight tuple h at each
rate; h enters the inequality only through the constraint's quadratic form
``Q(h) = q0 + sum_j h_j qh[j]``, since only row 0 of the output carries h.
Everything else (the plant and filter rows, the unit-trace basis of P) is
free of rho and h, and ``augment`` builds it once per certification.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Slack for validating weight bounds that are met with equality by the
# defaults (pure float round-off allowance).
_WEIGHT_TOL = 1e-9


class WeightOutOfRange(ValueError):
    """Multiplier weights violate their admissibility conditions."""


def sector() -> tuple[float, ...]:
    """The static multiplier's weights: none.  It encodes m*y <= grad(y) <=
    L*y pointwise at every step, hence at every discount rate."""
    return ()


def weighted_off_by_1(rho: float, h1: float) -> tuple[float]:
    """One-step-memory weights: the off-by-1 ``zames_falb`` weights (h1,),
    admissible for h1 in [0, rho^2]."""
    return zames_falb(rho, (h1,))


def zames_falb(rho: float, h) -> tuple[float, ...]:
    """Off-by-k weights h_1..h_k.

    Requires 0 <= h_j <= 1 for every j and sum_j rho^(-2j) h_j <= 1.
    """
    if not 0.0 < rho <= 1.0:
        raise WeightOutOfRange(f"need rho in (0, 1], got {rho}")
    h = tuple(float(x) for x in h)
    if not h:
        raise WeightOutOfRange("need at least one weight")
    for j, hj in enumerate(h, start=1):
        if not (0.0 <= hj <= 1.0 + _WEIGHT_TOL):
            raise WeightOutOfRange(f"need 0 <= h_{j} <= 1, got {hj}")
    discounted = sum(rho ** (-2 * j) * hj for j, hj in enumerate(h, start=1))
    if discounted > 1.0 + _WEIGHT_TOL:
        raise WeightOutOfRange(
            f"discounted weight sum {discounted} exceeds 1 at rho={rho}"
        )
    return h


def default_weights(rho: float, k: int) -> tuple[float, ...]:
    """Default weight vector h_j = rho^(2j) / k of a k-tap multiplier.

    Satisfies the box condition and meets the discounted-sum condition with
    equality; for k = 1 it reproduces the strongest admissible off-by-1
    weight h1 = rho^2.  No inner search over weights is performed, and
    nothing is checked here: ``zames_falb`` checks the weights at ``rho``.
    """
    return tuple(rho ** (2 * j) / k for j in range(1, k + 1))


@dataclass(frozen=True, eq=False)
class LmiData:
    """The inequality family of a k-tap multiplier in reduced units (class
    modulus 1), free of rho and h.  The system is x+ = a x + b[c] u at the
    c-th step size, with s = k + 1 states.  With P written as sum_i x_i
    p[i] (p[0] = P0, x_0 = trace(P)), its block is

        sum_i x_i (g[i, c] - rho^2 * diag(p[i], 0)) + lambda * Q(h).

    ``a`` is (s, s), ``b`` is (steps, s), ``p`` is (d, s, s) for
    d = s(s+1)/2, ``g`` is (d, steps, s+1, s+1), ``q0`` is (s+1, s+1) and
    ``qh`` is (k, s+1, s+1).
    """

    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    g: np.ndarray
    q0: np.ndarray
    qh: np.ndarray


@functools.lru_cache(maxsize=None)
def free_entries(s: int) -> np.ndarray:
    """The flat indices, read-only, of an s x s P's free coordinates, the
    one layout in which P is read and written: the diagonal without its
    last entry, then the upper triangle row by row."""
    rows, cols = np.triu_indices(s, 1)
    index = np.concatenate((np.arange(s - 1) * (s + 1), rows * s + cols))
    index.setflags(write=False)
    return index


def _unit_trace_basis(s: int) -> np.ndarray:
    """P0 = e_s e_s^T, then for each free entry (i, j) in turn e_i e_i^T -
    P0 if i = j, else e_i e_j^T + e_j e_i^T: P = trace(P) P0 + sum_i v_i
    basis[i], so a unit-trace P is P0 plus free coordinates v."""
    rows, cols = np.divmod(free_entries(s), s)
    n = np.arange(1, 1 + len(rows))
    p = np.zeros((1 + len(rows), s, s))
    p[0, -1, -1] = 1.0
    p[n, rows, cols] = p[n, cols, rows] = 1.0
    p[n[:s - 1], -1, -1] = -1.0  # i = j
    return p


def augment(kappa: float, alphas: tuple[float, ...], k: int) -> LmiData:
    """The family's data for condition number ``kappa``, the reduced step
    sizes ``alphas`` and a k-tap multiplier.

    The state is (plant, filter taps).  The plant row is gradient descent,
    x+ = x - alpha*u with output y = x, so the filter sees the plant state
    unscaled and the step size enters only the plant row of the input
    column b.  The filter rows shift the taps down and feed u - kappa*y into
    the first.  Each block's P-part [a b]^T P [a b] is formed as
    a^T (P a), a^T (P b) and b . (P b).
    """
    s = k + 1
    p = _unit_trace_basis(s)
    a = np.eye(s, s, -1)
    a[0, 0] = 1.0
    a[1:2, 0] = -kappa
    b = np.zeros((len(alphas), s))
    b[:, 0] = np.negative(alphas)
    b[:, 1:2] = 1.0
    g = np.zeros((len(p), len(alphas), s + 1, s + 1))
    for c, bc in enumerate(b):
        for i, pm in enumerate(p):
            pb = pm @ bc
            g[i, c, :s, :s] = a.T @ (pm @ a)
            g[i, c, :s, s] = g[i, c, s, :s] = a.T @ pb
            g[i, c, s, s] = bc @ pb
    # [C D]^T M [C D] with [C D] = [[kappa, h, -1], [-1, 0, 1]].
    q0 = np.zeros((s + 1, s + 1))
    q0[0, 0], q0[s, s] = -2.0 * kappa, -2.0
    q0[0, s] = q0[s, 0] = 1.0 + kappa
    qh = np.zeros((k, s + 1, s + 1))
    for j in range(k):
        qh[j, j + 1, 0] = qh[j, 0, j + 1] = -1.0
        qh[j, j + 1, s] = qh[j, s, j + 1] = 1.0
    return LmiData(a=a, b=b, p=p, g=g, q0=q0, qh=qh)


def quad_form(lmi: LmiData, h: tuple[float, ...]) -> np.ndarray:
    """Q(h) = q0 + sum_j h_j qh[j], lambda's coefficient in every block."""
    return lmi.q0 + np.tensordot(h, lmi.qh, axes=1)
