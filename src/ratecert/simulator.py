"""Empirical validation of certificates on quadratic problems.

Quadratics with Hessian spectrum inside [m, L] are the verifiable extreme
family for the function class: the quadratic constraints the certificates
rely on are tight at the spectrum endpoints.  A trajectory is run under a
step-size policy confined to the certified interval and every prefix norm
is compared against the certified envelope

    ||xi_k|| <= sqrt(cond(P)) * rho_star^k * ||xi_0||.

Runs are reproducible across platforms: randomness comes from numpy's PCG64
generator seeded with the integer recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certifier import Certificate
from .model import StepSizeInterval

# A trajectory is flagged only when it beats the bound by more than this
# relative slack (pure float round-off allowance).
VIOLATION_SLACK = 1e-9


class UnknownPolicy(ValueError):
    pass


class CertificateMissing(ValueError):
    """Simulation requested against a certificate with no certified rate."""


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = 1/2 sum_i q_i x_i^2 with spectrum q; the minimizer is the
    origin and the gradient is coordinate-wise q_i * x_i."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.eigenvalues) < 1:
            raise ValueError("need at least one eigenvalue")
        for q in self.eigenvalues:
            if not (math.isfinite(q) and q > 0.0):
                raise ValueError(f"spectrum must be positive and finite, got {q}")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def within(self, m: float, L: float) -> bool:
        return all(m <= q <= L for q in self.eigenvalues)


@dataclass(frozen=True)
class Uniform:
    """Independent uniform draw from the interval at every step."""

    label = "uniform"


@dataclass(frozen=True)
class Endpoints:
    """Independent fair coin flip between the interval endpoints."""

    label = "endpoints"


@dataclass(frozen=True)
class Alternating:
    """Deterministic lo, hi, lo, hi, ..."""

    label = "alternating"


@dataclass(frozen=True)
class Constant:
    alpha: float

    @property
    def label(self) -> str:
        return f"constant:{self.alpha:.12g}"


@dataclass(frozen=True)
class AdversarialGreedy:
    """Per step, the endpoint with the larger worst-coordinate contraction
    factor max_i |1 - alpha*q_i| for the given spectrum (ties pick hi)."""

    spectrum: tuple[float, ...]

    label = "adversarial"


Policy = Uniform | Endpoints | Alternating | Constant | AdversarialGreedy


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    norms: np.ndarray
    bound: np.ndarray
    violated: bool
    max_ratio: float
    seed: int
    policy: str


def step(xi: np.ndarray, alphas: np.ndarray, prob: QuadraticProblem) -> np.ndarray:
    """All gradient-descent iterates as rows: row 0 is ``xi`` and row k+1 is
    (1 - alphas[k]*q) * row k.  ``cumprod`` is a left fold, so each row is
    bit-identical to applying the updates one at a time."""
    if np.any(alphas < 0.0):
        raise ValueError(f"need alpha >= 0, got {alphas[alphas < 0.0][0]}")
    q = np.asarray(prob.eigenvalues)
    return np.cumprod(np.vstack([xi[None, :], 1.0 - alphas[:, None] * q]), axis=0)


def sample_alpha(
    policy: Policy,
    interval: StepSizeInterval,
    steps: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """The policy's whole step sequence.  Random policies draw it in one call,
    which consumes the PCG64 stream exactly as one scalar draw per step; the
    others never read ``rng``, which may be None for them."""
    lo, hi = interval.lo, interval.hi
    if isinstance(policy, Uniform):
        return rng.uniform(lo, hi, size=steps)
    if isinstance(policy, Endpoints):
        return np.where(rng.integers(0, 2, size=steps), hi, lo)
    if isinstance(policy, Alternating):
        return np.where(np.arange(steps) % 2, hi, lo)
    if isinstance(policy, Constant):
        if not lo <= policy.alpha <= hi:
            raise ValueError(
                f"constant step {policy.alpha} outside [{lo}, {hi}]"
            )
        return np.full(steps, policy.alpha)
    if isinstance(policy, AdversarialGreedy):
        q = np.asarray(policy.spectrum)
        score_lo = float(np.max(np.abs(1.0 - lo * q)))
        score_hi = float(np.max(np.abs(1.0 - hi * q)))
        return np.full(steps, lo if score_lo > score_hi else hi)
    raise UnknownPolicy(f"unknown policy {policy!r}")


def run(
    prob: QuadraticProblem,
    interval: StepSizeInterval,
    policy: Policy,
    steps: int,
    xi0=None,
    cert: Certificate = None,
    seed: int = 0,
) -> TrajectoryReport:
    """Simulate ``steps`` iterations and compare against the certificate.

    ``xi0`` defaults to the all-ones vector.  The trajectory is one array
    pass, bit-identical to stepping.  Deterministic: identical (seed, policy,
    inputs) produce a bit-identical report.  ``violated`` is set when any
    prefix norm exceeds its envelope by more than the round-off slack.
    """
    if cert is None or cert.rho_star is None:
        raise CertificateMissing("certificate carries no certified rate")
    if not prob.within(cert.fc.m, cert.fc.L):
        raise ValueError(
            f"problem spectrum {prob.eigenvalues} outside "
            f"[{cert.fc.m}, {cert.fc.L}]"
        )
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    xi = np.ones(prob.dim) if xi0 is None else np.array(xi0, dtype=float)
    if xi.shape != (prob.dim,):
        raise ValueError(f"xi0 must have shape ({prob.dim},), got {xi.shape}")

    draws = isinstance(policy, (Uniform, Endpoints))
    rng = np.random.Generator(np.random.PCG64(seed)) if draws else None
    traj = step(xi, sample_alpha(policy, interval, steps, rng), prob)
    # Bit-identical to a 1-D np.linalg.norm per row; norm(axis=1) and einsum are not.
    norms = np.sqrt(np.matmul(traj[:, None, :], traj[:, :, None]))[:, 0, 0]

    factor = math.sqrt(cert.cond_p)
    powers = cert.rho_star ** np.arange(steps + 1)
    bound = factor * powers * norms[0]
    max_ratio = float(np.max(norms / bound)) if norms[0] != 0.0 else 0.0
    return TrajectoryReport(
        norms=norms,
        bound=bound,
        violated=max_ratio > 1.0 + VIOLATION_SLACK,
        max_ratio=max_ratio,
        seed=seed,
        policy=policy.label,
    )


def policy_from_name(name: str, spectrum: tuple[float, ...] | None = None) -> Policy:
    """Parse a policy spec: uniform | endpoints | alternating |
    constant:<alpha> | adversarial (the last needs the problem spectrum)."""
    if name == "uniform":
        return Uniform()
    if name == "endpoints":
        return Endpoints()
    if name == "alternating":
        return Alternating()
    if name.startswith("constant:"):
        try:
            return Constant(alpha=float(name.split(":", 1)[1]))
        except ValueError as exc:
            raise UnknownPolicy(f"bad constant policy {name!r}") from exc
    if name == "adversarial":
        if spectrum is None:
            raise UnknownPolicy("adversarial policy needs a problem spectrum")
        return AdversarialGreedy(spectrum=tuple(spectrum))
    raise UnknownPolicy(f"unknown policy {name!r}")


def trial_seed(master_seed: int, index: int) -> int:
    """Derived integer seed for one trial; hashed so nearby masters and
    indices give unrelated streams, and recorded verbatim in reports."""
    ss = np.random.SeedSequence([master_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])
