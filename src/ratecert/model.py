"""Problem data: function class and step-size intervals.

The system studied is gradient descent, x+ = x - alpha*u with output y = x
and input u the gradient, with scalar blocks (state dimension 1);
``iqc.augment`` writes its plant row into the inequality's data.  Every
block of that system is a multiple of the identity, so the rate
certificates decouple coordinate-wise and are independent of the ambient
dimension; the test suite cross-checks this against explicit simulations in
higher dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidC(ValueError):
    """Step-size interval constant produces an empty or inverted interval."""


@dataclass(frozen=True)
class FunctionClass:
    """Strongly convex functions with Lipschitz gradients: modulus ``m``,
    gradient Lipschitz constant ``L``, condition number ``kappa = L/m``."""

    m: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.L)):
            raise ValueError("m and L must be finite")
        if not (0.0 < self.m <= self.L):
            raise ValueError(f"need 0 < m <= L, got m={self.m}, L={self.L}")

    def kappa(self) -> float:
        return self.L / self.m


@dataclass(frozen=True)
class StepSizeInterval:
    """Closed interval [lo, hi] of admissible step sizes, 0 < lo <= hi.

    The degenerate case lo == hi models a constant step size.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def endpoints(self) -> tuple[float, ...]:
        """The step sizes a certificate is checked at: ``(lo, hi)``, or
        ``(lo,)`` when the interval is degenerate.

        The endpoints suffice for the whole interval.  Each block of the
        rate inequality is ``[A B(alpha)]^T P [A B(alpha)] - diag(rho^2 P, 0)
        + lambda*Q`` with ``A`` and ``Q`` independent of alpha, ``B(alpha)``
        affine and ``P > 0``, so the block is matrix-convex in alpha: being
        negative semidefinite at ``lo`` and ``hi`` implies it on all of
        ``[lo, hi]`` (the vertex argument for parameterized LMIs).
        """
        return (self.lo,) if self.degenerate else (self.lo, self.hi)


def interval_from_c(fc: FunctionClass, c: float) -> StepSizeInterval:
    """The interval [1/(c*L), c/L] around the step size 1/L; requires c >= 1.

    Values c in (0, 1) would invert the endpoints and are rejected rather
    than silently swapped.
    """
    if not (math.isfinite(c) and c >= 1.0):
        raise InvalidC(f"need c >= 1, got {c}")
    return StepSizeInterval(1.0 / (c * fc.L), c / fc.L)


def interval_asymmetric(fc: FunctionClass, c1: float, c2: float) -> StepSizeInterval:
    """Asymmetric variant [1/(c1*L), c2/L]; rejected when empty."""
    if not (math.isfinite(c1) and math.isfinite(c2) and c1 > 0.0 and c2 > 0.0):
        raise InvalidC(f"need positive finite c1, c2, got c1={c1}, c2={c2}")
    lo = 1.0 / (c1 * fc.L)
    hi = c2 / fc.L
    if lo > hi:
        raise InvalidC(f"empty interval: 1/(c1*L)={lo} > c2/L={hi}")
    return StepSizeInterval(lo, hi)


def reduced(
    fc: FunctionClass, interval: StepSizeInterval
) -> tuple[FunctionClass, tuple[float, ...]]:
    """The class and the step sizes to check, in reduced units.

    The whole certification problem depends on (m, L, steps) only through
    the condition number and the products step*m: rescaling the class to
    modulus 1 and the steps by m leaves every contraction factor, hence the
    certified rate, unchanged, while keeping the block entries at unit scale
    so the strictness tolerances mean the same thing for every input.  A
    witness therefore refers to the reduced system; for m == 1 the reduction
    is the identity.
    """
    m = fc.m
    return (FunctionClass(1.0, fc.L / m),
            StepSizeInterval(interval.lo * m, interval.hi * m).endpoints)
