"""Quadratic-constraint multipliers for the gradient nonlinearity, and the
augmented system (gradient descent in series with the multiplier filter)
whose matrix inequality certifies a rate.

Three multiplier families are provided.  Each is a pair (Psi, M): a filter
in state-space form producing an auxiliary output z from the plant output y
and input u, and an indefinite middle matrix M, always [[0, 1], [1, 0]]
here, so that z^T M z encodes the constraint the gradient satisfies.

* sector           - static, no filter state; holds pointwise at every step.
* weighted off-by-1 - one-step memory with a weight h1 in [0, rho^2]; holds
                      in the rho-weighted (exponentially discounted) sense.
* off-by-k         - k-step shift-register memory with weights h_1..h_k
                      satisfying 0 <= h_j <= 1 and sum rho^(-2j) h_j <= 1.

Because admissible weights depend on the candidate rate rho, the dynamic
multipliers are re-instantiated per rho by the certifier; the sector
multiplier is rho-independent, and the certifier builds it only to replay a
certificate (its probes are closed-form).  Every call
returns fresh filter arrays, so no caller can alter another's multiplier; the
middle matrix, read-only, is one shared instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix
from .model import FunctionClass

SECTOR = "sector"
WEIGHTED_OFF_BY_1 = "wob1"
ZAMES_FALB = "zf"

KINDS = (SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB)

# Slack for validating weight bounds that are met with equality by the
# defaults (pure float round-off allowance).
_WEIGHT_TOL = 1e-9


class WeightOutOfRange(ValueError):
    """Multiplier weights violate their admissibility conditions."""


class DimensionMismatch(ValueError):
    """Inconsistent block dimensions when assembling systems."""


# The middle matrix of every multiplier: immutable, so one instance serves
# them all.
_MID = SymMatrix([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class IqcMultiplier:
    """Filter state-space blocks (psi_*), middle matrix, and provenance.

    ``psi_a`` is (k, k) for filter order k (k = 0 for the static sector
    multiplier), ``psi_by``/``psi_bu`` are the input columns from y and u,
    ``psi_c`` is (2, k), and ``psi_dy``/``psi_du`` are the feedthrough
    columns.  ``params`` holds the weight vector h (empty for sector).
    """

    psi_a: np.ndarray
    psi_by: np.ndarray
    psi_bu: np.ndarray
    psi_c: np.ndarray
    psi_dy: np.ndarray
    psi_du: np.ndarray
    mid: SymMatrix
    kind: str
    params: tuple[float, ...]

    @property
    def filter_order(self) -> int:
        return self.psi_a.shape[0]

    def __post_init__(self):
        k = self.psi_a.shape[0]
        if self.psi_a.shape != (k, k):
            raise DimensionMismatch("psi_a must be square")
        if self.psi_by.shape != (k,) or self.psi_bu.shape != (k,):
            raise DimensionMismatch("filter input columns must have length k")
        if self.psi_c.shape != (2, k):
            raise DimensionMismatch("psi_c must be 2 x k")
        if self.psi_dy.shape != (2,) or self.psi_du.shape != (2,):
            raise DimensionMismatch("feedthrough columns must have length 2")
        if self.mid.order != 2:
            raise DimensionMismatch("middle matrix must be 2 x 2")


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """Gradient descent + filter dynamics x_{k+1} = A x_k + B(alpha) u_k,
    z_k = C x_k + D u_k, with B(alpha) = b0 + alpha*b1 affine in the step
    size.  Only the plant-state row of b1 is nonzero."""

    a: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    c: np.ndarray
    d: np.ndarray
    state_dim: int

    def b(self, alpha: float) -> np.ndarray:
        return self.b0 + alpha * self.b1


def _shift_register(fc: FunctionClass, kind: str, h: tuple[float, ...]) -> IqcMultiplier:
    """The k-tap filter of every kind, k = len(h): its state holds the last
    k values of u - L*y, and the first output row weights them by h."""
    k = len(h)
    by, bu, c = np.zeros(k), np.zeros(k), np.zeros((2, k))
    by[:1] = -fc.L
    bu[:1] = 1.0
    c[0] = h
    return IqcMultiplier(
        psi_a=np.eye(k, k, -1),
        psi_by=by,
        psi_bu=bu,
        psi_c=c,
        psi_dy=np.array([fc.L, -fc.m]),
        psi_du=np.array([-1.0, 1.0]),
        mid=_MID,
        kind=kind,
        params=h,
    )


def sector(fc: FunctionClass) -> IqcMultiplier:
    """Static multiplier encoding m*y <= grad(y) <= L*y in quadratic form;
    holds pointwise at every step, hence at every discount rate."""
    return _shift_register(fc, SECTOR, ())


def weighted_off_by_1(fc: FunctionClass, rho: float, h1: float) -> IqcMultiplier:
    """One-step-memory multiplier, admissible for any h1 in [0, rho^2]."""
    if not 0.0 < rho <= 1.0:
        raise WeightOutOfRange(f"need rho in (0, 1], got {rho}")
    cap = rho * rho
    if not (0.0 <= h1 <= cap + _WEIGHT_TOL * max(1.0, cap)):
        raise WeightOutOfRange(f"need h1 in [0, rho^2] = [0, {cap}], got {h1}")
    return _shift_register(fc, WEIGHTED_OFF_BY_1, (float(h1),))


def zames_falb(fc: FunctionClass, rho: float, h) -> IqcMultiplier:
    """Off-by-k multiplier with shift-register filter and weights h_1..h_k.

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
    return _shift_register(fc, ZAMES_FALB, h)


def default_weights(kind: str, rho: float, k: int) -> tuple[float, ...]:
    """Default weight vector h_j = rho^(2j) / k.

    Satisfies the box condition and meets the discounted-sum condition with
    equality; for k = 1 it reproduces the strongest admissible off-by-1
    weight h1 = rho^2.  No inner search over weights is performed.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"need rho in (0, 1], got {rho}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return tuple(rho ** (2 * j) / k for j in range(1, k + 1))


def augment(iqc: IqcMultiplier) -> AugmentedSystem:
    """Series interconnection of gradient descent with the multiplier filter.

    State x = (plant state, filter state).  The plant row is gradient
    descent, x+ = x - alpha*u with output y = x, so the filter sees the
    plant state unscaled; the step size enters only that row of the input
    matrix, preserving the affine structure B(alpha) = b0 + alpha*b1.
    """
    k = iqc.filter_order
    s = 1 + k
    a = np.zeros((s, s))
    a[0, 0] = 1.0
    a[1:, 0] = iqc.psi_by
    a[1:, 1:] = iqc.psi_a
    b0 = np.zeros(s)
    b0[1:] = iqc.psi_bu
    b1 = np.zeros(s)
    b1[0] = -1.0
    c = np.zeros((2, s))
    c[:, 0] = iqc.psi_dy
    c[:, 1:] = iqc.psi_c
    d = iqc.psi_du.copy()
    return AugmentedSystem(a=a, b0=b0, b1=b1, c=c, d=d, state_dim=s)


def quad_form(aug: AugmentedSystem, iqc: IqcMultiplier) -> SymMatrix:
    """The symmetric matrix [C D]^T M [C D] of order state_dim + 1."""
    if aug.c.shape != (2, aug.state_dim) or aug.d.shape != (2,):
        raise DimensionMismatch("augmented output blocks have wrong shape")
    w = np.concatenate((aug.c, aug.d[:, None]), axis=1)
    g = w.T @ iqc.mid.mat @ w
    return SymMatrix(g, symmetrize=True)
