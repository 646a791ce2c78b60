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

Runs are reproducible across platforms: randomness comes from numpy's PCG64
generator seeded with the integer recorded in the report.  Seeds and
generator states are numpy's ``SeedSequence`` values, hashed for a whole
batch in one array pass by ``seed_words`` (the hash is fixed 32-bit
arithmetic) and handed to PCG64 by ``HashedSeed``; the tests keep numpy's
class as the reference.
"""

from __future__ import annotations

import functools
import math
import operator
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
    seed: int

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
    steps: int,
    rng: np.random.Generator | None,
    spectrum: tuple[float, ...] = (),
) -> np.ndarray:
    """The policy's whole step sequence for a trial of the given spectrum.
    Random policies draw it in one call, which consumes the PCG64 stream
    exactly as one scalar draw per step; the others never read ``rng``,
    which may be None for them.  Only ``AdversarialGreedy`` reads
    ``spectrum``."""
    lo, hi = interval.lo, interval.hi
    if isinstance(policy, Uniform):
        return rng.uniform(lo, hi, size=steps)
    if isinstance(policy, Endpoints):
        return np.where(rng.integers(0, 2, size=steps), hi, lo)
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
    seed=0,
):
    """Simulate ``steps`` iterations under ``policy`` and compare against the
    certificate.

    Given one ``QuadraticProblem`` this runs one trial and returns its
    report; ``xi0`` defaults to the all-ones vector.  Given a sequence of
    problems of one dimension, every trial follows ``policy``, ``seed`` is a
    sequence with one entry per trial, ``xi0`` is None or one start per
    trial, and the result is one report per trial, in order; a single trial
    is the batch of one.  The batch runs as one array pass, bit-identical to
    stepping each trial alone, and holds all its trials' arrays at once:
    callers size batches with ``chunk_trials``.  Deterministic: identical
    (seed, policy, inputs) produce a bit-identical report.  ``violated`` is
    set when any prefix norm exceeds its envelope by more than the
    round-off slack.
    """
    if isinstance(prob, QuadraticProblem):
        return run([prob], interval, policy, steps,
                   None if xi0 is None else [xi0], cert, [seed])[0]
    if cert is None or cert.rho_star is None:
        raise CertificateMissing("certificate carries no certified rate")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    probs, seeds = list(prob), list(seed)
    if not probs or len(probs) != len(seeds):
        raise ValueError("need a problem, and one seed per problem")
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

    alphas = np.empty((trials, steps))
    if isinstance(policy, (Uniform, Endpoints)):
        # The random policies' generators, PCG64(seed) each, from one hash.
        for row, state in zip(alphas, seed_words([seeds], 4, np.uint64)):
            row[:] = sample_alpha(policy, interval, steps, pcg64_generator(state))
    else:
        # The other rows are one row for the whole call, or for the
        # adversarial policy one per pair of spectrum extremes: its scores
        # max |1 - alpha*q| are convex in q, so the extremes attain them.
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
        TrajectoryReport(n, envelope, r > 1.0 + VIOLATION_SLACK, r, s)
        for n, r, s in zip(norms, max_ratio, seeds)
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over a pool of
# four 32-bit words.  The multiplier of each hash step depends only on how
# many steps came before it, never on the data, so all rows share them.
_POOL = 4
_FILL_STEPS = _POOL * _POOL  # one step per word, then three into each word
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, one per row: the multiplier a
    SeedSequence hash holds at its k-th step.  Read-only, as the cache
    shares it."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _fold_consts() -> tuple[np.ndarray, np.ndarray]:
    """The pool's all-pairs round folds each word s in turn into the three
    others, in ascending order, one hash step each (steps 4 to 15).  Done as
    whole-pool updates: row d of entry s holds the (xor, mult) constants of
    the step into word d, and row s zeros, whose result is discarded."""
    a = _hash_consts(_INIT_A, _MULT_A, _FILL_STEPS + 1)
    xor, mult = np.zeros((2, _POOL, _POOL, 1), dtype=np.uint32)
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                xor[src, dst], mult[src, dst] = a[k], a[k + 1]
                k += 1
    return xor, mult


_FOLD_XOR, _FOLD_MULT = _fold_consts()


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> 16
    return result


def _word_count(n: int) -> int:
    """The 32-bit words SeedSequence splits a non-negative int into; 0 is
    one word."""
    return max(1, -(-n.bit_length() // 32))


def _limbs(values) -> tuple[np.ndarray, int | np.ndarray]:
    """Each int split as SeedSequence splits it, into little-endian 32-bit
    words: the (len(values), width) words, zero-padded, and the word counts,
    one int when they are all equal.  A negative value raises as numpy
    does."""
    values = [operator.index(v) for v in values]
    least, width = min(values, default=0), _word_count(max(values, default=0))
    if least < 0:
        raise ValueError("expected non-negative integer")
    raw = b"".join(v.to_bytes(4 * width, "little") for v in values)
    words = np.frombuffer(raw, "<u4").reshape(len(values), width)
    if _word_count(least) == width:
        return words, width
    return words, np.array([_word_count(v) for v in values])


def seed_words(columns, n_words: int, dtype=np.uint32) -> np.ndarray:
    """Row r is ``np.random.SeedSequence(entropy_r).generate_state(n_words,
    dtype)``, bit for bit, where ``entropy_r`` lists the r-th value of each
    column: a column is one int shared by every row, or one int per row.

    All rows are hashed at once in uint32 arrays, at a cost of about 60
    array operations whatever the row count.  Entropy shorter than the pool
    is zero-padded to it, which is what SeedSequence's mixing does; longer
    entropy takes its extra mixing rounds only in the rows that have them.
    A negative value raises ``ValueError`` as numpy does."""
    if np.dtype(dtype) not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise ValueError("only support uint32 or uint64")
    shared = [isinstance(c, int | np.integer) for c in columns]
    parts = [_limbs([c] if one else c) for c, one in zip(columns, shared)]
    rows = {len(words) for (words, _), one in zip(parts, shared) if not one}
    if len(rows) > 1:
        raise ValueError("per-row entropy columns differ in length")
    rows = rows.pop() if rows else 1

    # Row r's entropy is column r of ``entropy``: each column's words after
    # those of the columns before it.
    lengths = sum(counts for _, counts in parts)
    entropy = np.zeros((max(_POOL, np.max(lengths)), rows), dtype=np.uint32)
    if np.ndim(lengths) == 0:  # each column takes the same words in every row
        start = 0
        for words, counts in parts:
            entropy[start:start + counts] = words.T
            start += counts
    else:
        start = np.zeros(rows, dtype=int)
        for words, counts in parts:
            words = np.broadcast_to(words, (rows, words.shape[1]))
            counts = np.broadcast_to(counts, rows)
            r, k = np.nonzero(np.arange(words.shape[1]) < counts[:, None])
            entropy[start[r] + k, r] = words[r, k]
            start += counts

    a = _hash_consts(_INIT_A, _MULT_A, _FILL_STEPS + 1 + _POOL * (len(entropy) - _POOL))
    pool = _hashmix(entropy[:_POOL], a[:_POOL], a[1:_POOL + 1])
    for src in range(_POOL):
        folded = _mix(pool, _hashmix(pool[src], _FOLD_XOR[src], _FOLD_MULT[src]))
        folded[src] = pool[src]
        pool = folded
    for src in range(_POOL, len(entropy)):
        k = _FILL_STEPS + _POOL * (src - _POOL)  # hash steps taken
        mixed = _mix(pool, _hashmix(entropy[src], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
        pool = np.where(src < lengths, mixed, pool)

    wide = np.dtype(dtype) == np.dtype(np.uint64)
    n32 = 2 * n_words if wide else n_words
    b = _hash_consts(_INIT_B, _MULT_B, n32 + 1)
    # Output word i hashes pool word i % 4.
    state = np.ascontiguousarray(_hashmix(pool[np.arange(n32) % _POOL], b[:-1], b[1:]).T)
    if not wide:
        return state
    # Joined pairwise, low word first, as generate_state joins them.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class HashedSeed:
    """A SeedSequence reduced to the one ``generate_state`` call a bit
    generator makes when seeded, precomputed by ``seed_words``: PCG64 reads
    ``seed_words(entropy, 4, np.uint64)[r]``.  ``pcg64_generator`` registers
    it as numpy's ``ISeedSequence``, which bit generators require."""

    def __init__(self, state: np.ndarray):
        self.state = np.ascontiguousarray(state)  # the bit generator reads its buffer

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (len(self.state), self.state.dtype):
            raise ValueError(f"holds {len(self.state)} {self.state.dtype} words only")
        return self.state


@functools.cache
def _register_hashed_seed() -> None:
    # On first use: importing numpy.random costs about 2.4 MiB and 20 ms,
    # which commands that draw nothing do not pay.
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(HashedSeed)


def pcg64_generator(state: np.ndarray) -> np.random.Generator:
    """The generator of ``PCG64(SeedSequence(entropy))`` from that sequence's
    row of ``seed_words(entropy, 4, np.uint64)``."""
    _register_hashed_seed()
    return np.random.Generator(np.random.PCG64(HashedSeed(state)))


def trial_seeds(master_seed: int, indices) -> list[int]:
    """Derived integer seeds of the trials ``indices``, the first uint64 of
    ``SeedSequence([master_seed, index])``: hashed so that nearby masters and
    indices give unrelated streams, and recorded verbatim in reports."""
    return seed_words([master_seed, indices], 1, np.uint64)[:, 0].tolist()


def trial_seed(master_seed: int, index: int) -> int:
    """The derived seed of one trial: the batch of one of ``trial_seeds``."""
    return trial_seeds(master_seed, [index])[0]
