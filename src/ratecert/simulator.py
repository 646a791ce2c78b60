"""Empirical validation of certificates on quadratic problems.

Quadratics with Hessian spectrum inside [m, L] are the verifiable extreme
family for the function class: the quadratic constraints the certificates
rely on are tight at the spectrum endpoints.  A trial is the quadratic
f(x) = 1/2 sum_i q_i x_i^2, given by its spectrum q alone (its minimizer is
the origin and its gradient is coordinate-wise q_i * x_i).  A trajectory is
run under a step-size policy confined to the certified interval and every
prefix norm is compared against the certified envelope

    ||xi_k|| <= sqrt(cond(P)) * rho_star^k * ||xi_0||.

A batch of trials of one dimension, one spectrum per row of a (trials, dim)
array, is simulated under one policy in one array pass, bit-identical to
stepping each trial alone; callers size their batches with
``chunk_trials`` so that no pass holds more than ``CHUNK_FLOATS`` floats.
Where the envelope underflows to 0 the comparison is made in log space.

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
# The most steps at which one trial of dimension 5, the CLI's largest, fits
# the default budget; ``simulate --steps`` rejects more.
MAX_STEPS = CHUNK_FLOATS // (5 + 3) - 1


class UnknownPolicy(ValueError):
    pass


class CertificateMissing(ValueError):
    """Simulation requested against a certificate with no certified rate."""


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
# The policies that draw their step sizes from an ``rng``; the others never
# read one.
RANDOM_POLICIES = (Uniform, Endpoints)


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
    spectrum: tuple[float, ...] | np.ndarray = (),
) -> np.ndarray:
    """The policy's step sizes in the shape ``steps``: a count for one
    trial or (trials, steps) for a batch, one row per trial.  Random
    policies draw them in one call that takes one word of ``rng``'s stream
    per step size, row by row, and raise ValueError if ``rng`` is None; the
    others never read ``rng``.  ``Alternating`` alternates lo, hi, ... along
    each row.  Only ``AdversarialGreedy`` reads ``spectrum``: one trial's
    eigenvalues, or a (trials, dim) array of each row's."""
    lo, hi = interval.lo, interval.hi
    if rng is None and isinstance(policy, RANDOM_POLICIES):
        raise ValueError(f"policy {policy!r} draws from rng, which is None")
    if isinstance(policy, Uniform):
        return rng.uniform(lo, hi, size=steps)
    if isinstance(policy, Endpoints):
        # random() takes one word per value; integers(0, 2) packs two.
        return np.where(rng.random(steps) < 0.5, hi, lo)
    if isinstance(policy, Alternating):
        alphas = np.full(steps, lo)
        alphas[..., 1::2] = hi
        return alphas
    if isinstance(policy, Constant):
        if not lo <= policy.alpha <= hi:
            raise ValueError(
                f"constant step {policy.alpha} outside [{lo}, {hi}]"
            )
        return np.full(steps, policy.alpha)
    if isinstance(policy, AdversarialGreedy):
        q = np.asarray(spectrum)
        score_lo = np.abs(1.0 - lo * q).max(axis=-1)
        score_hi = np.abs(1.0 - hi * q).max(axis=-1)
        alphas = np.empty(steps)
        alphas[...] = np.where(score_lo > score_hi, lo, hi)[..., None]
        return alphas
    raise UnknownPolicy(f"unknown policy {policy!r}")


def run(spectra, cert: Certificate, policy: Policy, steps: int, xi0=None,
        rng: np.random.Generator | None = None) -> list[TrajectoryReport]:
    """Simulate ``steps`` iterations of one trial per row of ``spectra``, a
    (trials, dim) array-like of Hessian eigenvalues, under ``policy``, with
    step sizes from the interval the certificate bounds, ``cert.interval``,
    and compare each trial against the certificate (CertificateMissing if
    it has no rate): one report per row, in order.  ``xi0`` is None (all-ones
    starts) or finite starts in the spectra's shape.  Spectra that are not 2-D,
    are empty or ragged, or have an entry outside the class [m, L] (NaN and
    infinities included) raise ValueError.

    Every policy's (trials, steps) step sizes come from one ``sample_alpha``
    call given the spectra.  A random policy draws them from ``rng``, row
    by row, so trial j takes stream words [j*steps, (j+1)*steps), and needs
    an ``rng``; the other policies never read it.  The batch runs as one
    array pass, bit-identical to stepping each trial alone on its own step
    sizes, and holds all its trials' arrays at once: callers size batches
    with ``chunk_trials``.  Deterministic: identical (generator state,
    policy, inputs) produce bit-identical reports.  ``violated`` is set
    when any prefix norm exceeds its envelope by more than the round-off
    slack.
    """
    if cert.rho_star is None:
        raise CertificateMissing("certificate carries no certified rate")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    q = np.asarray(spectra, dtype=float)
    if q.ndim != 2 or q.size == 0:
        raise ValueError(f"need a non-empty (trials, dim) array of spectra, got {q.shape}")
    # Written so that NaN fails too: every comparison with NaN is False.
    inside = (q >= cert.fc.m) & (q <= cert.fc.L)
    if not inside.all():
        raise ValueError(f"spectrum entry {q[~inside][0]} outside [{cert.fc.m}, {cert.fc.L}]")
    trials, dim = q.shape
    xi = np.ones((trials, dim)) if xi0 is None else np.array(xi0, dtype=float)
    if xi.shape != (trials, dim) or not np.isfinite(xi).all():
        raise ValueError(f"xi0 must be finite, of shape {q.shape}; got shape {xi.shape}")

    alphas = sample_alpha(policy, cert.interval, (trials, steps), rng, q)
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
