"""Empirical validation of certificates on quadratic problems.

Quadratics with Hessian spectrum inside [m, L] are the verifiable extreme
family for the function class: the quadratic constraints the certificates
rely on are tight at the spectrum endpoints.  A trajectory is run under a
step-size policy confined to the certified interval and every prefix norm
is compared against the certified envelope

    ||xi_k|| <= sqrt(cond(P)) * rho_star^k * ||xi_0||.

A batch of trials of one dimension under one policy is simulated in one
array pass, bit-identical to stepping each trial alone; callers size their
batches with ``chunk_trials`` so that no pass holds more than
``CHUNK_FLOATS`` floats.  Where the envelope underflows to 0 the comparison
is made in log space.

Runs are reproducible across platforms: the random policies draw from the
numpy ``Generator`` the caller passes, one 64-bit stream word per step, so a
batch's (trials, steps) step sizes are consecutive words of the stream, row
by row.  ``simulate`` keeps one PCG64 stream per purpose and dimension group
for a whole command (see ``cli.cmd_simulate``), so that one trial replays
alone by ``PCG64.advance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .search import Certificate
from .model import StepSizeInterval

# A trajectory is flagged only when it beats the bound by more than this
# relative slack (pure float round-off allowance).
VIOLATION_SLACK = 1e-9

# Floats the arrays of one batch sized by ``chunk_trials`` may hold: each
# trial's (steps + 1, dim) trajectory plus three rows of steps + 1 for its
# step sizes, norms and ratios.  A batch has at least one trial.
CHUNK_FLOATS = 1 << 20


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


@dataclass(frozen=True)
class Uniform:
    """Independent uniform draw from the interval at every step."""


@dataclass(frozen=True)
class Endpoints:
    """Independent fair coin flip between the interval endpoints."""


@dataclass(frozen=True)
class Alternating:
    """Deterministic lo, hi, lo, hi, ..."""


@dataclass(frozen=True)
class Constant:
    alpha: float


@dataclass(frozen=True)
class AdversarialGreedy:
    """Per step, the endpoint with the larger worst-coordinate contraction
    factor max_i |1 - alpha*q_i| for the trial's spectrum (ties pick hi)."""


Policy = Uniform | Endpoints | Alternating | Constant | AdversarialGreedy


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    norms: np.ndarray
    envelope: np.ndarray   # sqrt(cond_p) * rho_star^k, shared by a batch
    violated: bool
    max_ratio: float

    @property
    def bound(self) -> np.ndarray:
        """The certified bound on each norm: the envelope scaled by the
        starting norm."""
        return self.envelope * self.norms[0]


def step(xi: np.ndarray, alphas: np.ndarray, q: np.ndarray) -> np.ndarray:
    """All gradient-descent iterates as rows: row 0 is ``xi`` and row k+1 is
    (1 - alphas[k]*q) * row k for the spectrum ``q``.  For a batch of trials
    of one dimension, computed in one array pass, ``q`` is their (trials,
    dim) spectra and ``xi``, ``alphas`` and the result gain a leading trial
    axis.  ``cumprod`` is a left fold along the step axis, so each row is
    bit-identical to applying the updates one at a time."""
    if np.any(alphas < 0.0):
        raise ValueError(f"need alpha >= 0, got {alphas[alphas < 0.0][0]}")
    traj = np.empty(alphas.shape[:-1] + (alphas.shape[-1] + 1, q.shape[-1]))
    traj[..., 0, :] = xi
    rest = traj[..., 1:, :]
    np.multiply(alphas[..., :, None], q[..., None, :], out=rest)
    np.subtract(1.0, rest, out=rest)
    return np.cumprod(traj, axis=-2, out=traj)


def sample_alpha(
    policy: Policy,
    interval: StepSizeInterval,
    steps: int | tuple[int, int],
    rng: np.random.Generator | None,
    spectrum: tuple[float, ...] = (),
) -> np.ndarray:
    """The policy's step sequence for a trial of the given spectrum.  Random
    policies draw ``steps``, a count or a (trials, steps) shape, in one
    call that takes one word of ``rng``'s stream per step size, row by row;
    the others return one row and never read ``rng``, which may be None for
    them.  Only ``AdversarialGreedy`` reads ``spectrum``."""
    lo, hi = interval.lo, interval.hi
    if isinstance(policy, Uniform):
        return rng.uniform(lo, hi, size=steps)
    if isinstance(policy, Endpoints):
        # random() takes one word per value; integers(0, 2) packs two.
        return np.where(rng.random(steps) < 0.5, hi, lo)
    if isinstance(policy, Alternating):
        alphas = np.full(steps, lo)
        alphas[1::2] = hi
        return alphas
    if isinstance(policy, Constant):
        if not lo <= policy.alpha <= hi:
            raise ValueError(
                f"constant step {policy.alpha} outside [{lo}, {hi}]"
            )
        return np.full(steps, policy.alpha)
    if isinstance(policy, AdversarialGreedy):
        score_lo = max(abs(1.0 - lo * q) for q in spectrum)
        score_hi = max(abs(1.0 - hi * q) for q in spectrum)
        return np.full(steps, lo if score_lo > score_hi else hi)
    raise UnknownPolicy(f"unknown policy {policy!r}")


def run(
    prob,
    interval: StepSizeInterval,
    policy: Policy,
    steps: int,
    xi0=None,
    cert: Certificate = None,
    rng: np.random.Generator | None = None,
):
    """Simulate ``steps`` iterations under ``policy`` and compare against the
    certificate.

    Given one ``QuadraticProblem`` this runs one trial and returns its
    report; ``xi0`` defaults to the all-ones vector.  Given a sequence of
    problems of one dimension, every trial follows ``policy``, ``xi0`` is
    None or one start per trial, and the result is one report per trial, in
    order; a single trial is the batch of one.  A random policy draws the
    batch's step sizes from ``rng`` in one call, trial by trial, so trial j
    of the batch takes stream words [j*steps, (j+1)*steps); the other
    policies never read ``rng``.  The batch runs as one array pass,
    bit-identical to stepping each trial alone on its own step sizes, and
    holds all its trials' arrays at once: callers size batches with
    ``chunk_trials``.  Deterministic: identical (generator state, policy,
    inputs) produce a bit-identical report.  ``violated`` is set when any
    prefix norm exceeds its envelope by more than the round-off slack.
    """
    if isinstance(prob, QuadraticProblem):
        return run([prob], interval, policy, steps,
                   None if xi0 is None else [xi0], cert, rng)[0]
    if cert is None or cert.rho_star is None:
        raise CertificateMissing("certificate carries no certified rate")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    probs = list(prob)
    if not probs:
        raise ValueError("need a problem")
    if len({p.dim for p in probs}) > 1:
        raise ValueError("a batch needs problems of one dimension")
    q = np.array([p.eigenvalues for p in probs])
    outside = np.any((q < cert.fc.m) | (q > cert.fc.L), axis=1)
    if outside.any():
        raise ValueError(
            f"problem spectrum {probs[int(np.argmax(outside))].eigenvalues} outside "
            f"[{cert.fc.m}, {cert.fc.L}]"
        )
    trials, dim = q.shape
    xi = np.ones((trials, dim)) if xi0 is None else np.array(xi0, dtype=float)
    if xi.shape != (trials, dim):
        raise ValueError(f"xi0 must have shape ({dim},) per trial, got {xi.shape[1:]}")

    if isinstance(policy, (Uniform, Endpoints)):
        if rng is None:
            raise ValueError(f"policy {policy!r} draws from rng, which is None")
        alphas = sample_alpha(policy, interval, (trials, steps), rng)
    else:
        # The other rows are one row for the whole call, or for the
        # adversarial policy one per pair of spectrum extremes: its scores
        # max |1 - alpha*q| are convex in q, so the extremes attain them.
        alphas = np.empty((trials, steps))
        rows = {}
        for row, p in zip(alphas, probs):
            ends = ((min(p.eigenvalues), max(p.eigenvalues))
                    if isinstance(policy, AdversarialGreedy) else ())
            if ends not in rows:
                rows[ends] = sample_alpha(policy, interval, steps, None, ends)
            row[:] = rows[ends]
    traj = step(xi, alphas, q)
    # Bit-identical to a 1-D np.linalg.norm per row; norm(axis=-1) and einsum are not.
    norms = np.matmul(traj[..., None, :], traj[..., :, None])[..., 0, 0]
    np.sqrt(norms, out=norms)
    del traj, alphas  # free the stack before the ratio arrays are made

    envelope = math.sqrt(cert.cond_p) * cert.rho_star ** np.arange(steps + 1)
    bound = envelope * norms[:, :1]
    tail = bound == 0.0
    if tail.any():
        # The envelope underflowed to 0 (or the start is 0): compare
        # logarithms there, where a positive norm beats the bound by a
        # factor the envelope cannot show.
        ratio = np.divide(norms, bound, out=np.zeros_like(bound), where=~tail)
        t, k = np.nonzero(tail & (norms > 0.0) & (norms[:, :1] > 0.0))
        log_bound = (math.log(math.sqrt(cert.cond_p)) + k * math.log(cert.rho_star)
                     + np.log(norms[t, 0]))
        with np.errstate(over="ignore"):
            ratio[t, k] = np.exp(np.log(norms[t, k]) - log_bound)
    else:
        ratio = norms / bound
    # A row with a zero start has a zero bound, hence all-zero ratios.
    max_ratio = ratio.max(axis=1).tolist()
    return [
        TrajectoryReport(n, envelope, r > 1.0 + VIOLATION_SLACK, r)
        for n, r in zip(norms, max_ratio)
    ]


def chunk_trials(steps: int, dim: int) -> int:
    """Trials of one dimension that one array pass of ``steps`` steps holds
    within ``CHUNK_FLOATS`` floats (at least one)."""
    return max(1, CHUNK_FLOATS // ((steps + 1) * (dim + 3)))


def policy_from_name(name: str) -> Policy:
    """Parse a policy spec: uniform | endpoints | alternating |
    constant:<alpha> | adversarial."""
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
        return AdversarialGreedy()
    raise UnknownPolicy(f"unknown policy {name!r}")
