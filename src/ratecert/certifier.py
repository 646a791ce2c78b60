"""Rate certification, numpy layer: decide joint feasibility in (P, lambda)
of the matrix inequality at the endpoints of a step-size interval, replay
certificates, and the symmetric eigen-solves both need.  The bisection on
the contraction rate rho (``certify``) and the sector closed form live in
``search``, which imports no numpy; they are re-exported here.

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
It is affine in (P, lambda), rho enters it only as -rho^2 P, and the
multiplier's weights h only through Qf = Q(h).  ``iqc.augment`` builds the
rest, each block's coefficients over the unit-trace basis of P, once per
``certify`` (at its first dynamic probe) and once per replay; a probe at rho
is coefficient arithmetic on that data.  Everything is in reduced units
(``model.reduced``): rates are invariant under that rescaling and the block
entries stay at unit scale, so the strictness tolerances below mean the same
thing for every input.  Stored witnesses refer to the reduced system; the
rate bound itself needs only rho_star and cond(P), both of which are
reduction-invariant for the plant state.  Two backends decide feasibility:

* state dimension 1 (static multiplier): P is the scalar 1, and the
  admissible lambda set at each endpoint is an interval computed in closed
  form from the 2x2 block's diagonal and determinant conditions; the
  family is feasible iff the intervals intersect (``sector_lambda``).
  ``certify`` decides its sector probes with that function alone, in plain
  floats, without importing this module; only replay
  (``Certificate.slack``, ``verify_certificate``) builds the numpy data.
* state dimension >= 2: a log-det barrier (interior-point) solver over the
  decision vector (free coordinates of P, lambda), which takes Newton steps
  over all blocks at once (see ``ellipsoid``).  ``_runs`` hands it the
  family as three runs of stacked blocks: lambda >= 0, P >= DELTA_PD * I,
  and the endpoint blocks.  Each solve starts from ``_start``, P = I/s and
  lambda = R/2.  "Infeasible" means that no (P, lambda) in the solver's
  ball meets every block with margin 2e-12 beyond -eps_feas.

"<= 0" is implemented strictly as "<= -eps_feas * I", where eps_feas is
``certify``'s keyword (default: the data-scaled ``default_eps_feas``), and
P is kept away from singularity by P >= DELTA_PD * I, a fixed constant.

All eigen work goes through numpy's LAPACK drivers: ``eigh`` when
eigenvectors are needed and ``eigvalsh`` when only eigenvalues are.  The
solver's yes/no acceptance scan calls the ``eigvalsh`` gufunc unwrapped
and raises LinAlgError when an eigenvalue is not finite.

Importing this module loads numpy, ``iqc`` and ``ellipsoid``.  ``search``
imports it the first time a certification needs it: a dynamic probe, a
dynamic witness's ``cond_p``, ``Certificate.slack``, or the P of a sector
witness.
"""

from __future__ import annotations

import functools

import numpy as np

from .ellipsoid import ellipsoid_feasibility, initial_radius
from .iqc import (
    LmiData,
    WeightOutOfRange,
    augment,
    default_weights,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from .model import FunctionClass, reduced
# The rate search and the certificate types, re-exported: ``search`` runs
# the bisection and calls back into this module through its attributes.
from .search import (  # noqa: F401
    KINDS,
    RHO_HI,
    RHO_LO,
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
    Certificate,
    InvalidInput,
    SolverBudgetExceeded,
    Witness,
    certify,
    closed_form_rate,
    default_eps_feas,
    lambda_interval_sector,
    sector_lambda,
    taps,
    top_rate,
)


class NotPositiveDefinite(ValueError):
    """Raised when an SPD-only operation receives a non-PD matrix."""


def eig_sym(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition (LAPACK ``syevd`` via numpy):
    eigenvalues sorted ascending, and eigenvectors whose column i pairs with
    eigenvalue i.

    Deterministic for a given input.  Satisfies, for random test matrices,
    ``||Q diag(w) Q^T - S||_F <= 1e-10 * max(1, ||S||_F)`` and
    ``||Q^T Q - I||_F <= 1e-10``.
    """
    vals, vecs = np.linalg.eigh(s)
    return vals, vecs


def max_eigenvalue(s: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, or of a stack of them."""
    return float(np.linalg.eigvalsh(s)[..., -1].max())


def cond_spd(s: np.ndarray) -> float:
    """Condition number lambda_max / lambda_min of a positive definite matrix."""
    vals = np.linalg.eigvalsh(s)
    if vals[0] <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {vals[0]:g})"
        )
    return float(vals[-1] / vals[0])


# The floor of P's spectrum in a dynamic solve: P >= DELTA_PD * I.
DELTA_PD = 1e-8

# P of every sector witness: read-only, so one array serves them all.
_P_ONE = np.ones((1, 1))
_P_ONE.setflags(write=False)


def _weights(kind: str, rho: float, k: int,
             pinned: tuple[float, ...] | None) -> tuple[float, ...]:
    """The weights h of a k-tap ``kind`` multiplier at rate ``rho``:
    ``pinned``, or the defaults.  Raises WeightOutOfRange when they are
    inadmissible at ``rho`` or do not fit the k taps."""
    if pinned is not None and len(pinned) != k:
        raise WeightOutOfRange(f"{kind} takes {k} weight(s), got {len(pinned)}")
    if kind == SECTOR:
        return sector()
    h = pinned or default_weights(kind, rho, k)
    if kind == WEIGHTED_OFF_BY_1:
        return weighted_off_by_1(rho, h[0])
    if kind == ZAMES_FALB:
        return zames_falb(rho, h)
    raise InvalidInput(f"unknown multiplier kind {kind!r}; expected one of {KINDS}")


@functools.lru_cache(maxsize=None)
def _start(s: int) -> np.ndarray:
    """The solver's start for P of order s, read-only: P = I/s, the
    center of the unit-trace P >= 0, in P's free coordinates (the first s - 1
    diagonal entries, then the off-diagonal ones), and lambda = R/2, inside
    the segment 0 <= lambda <= R of the solver's ball of radius R."""
    p = s * (s + 1) // 2 - 1
    center = np.array([1.0 / s] * (s - 1) + [0.0] * (p - s + 1) + [0.5 * initial_radius(p + 1)])
    center.setflags(write=False)
    return center


def _runs(lmi: LmiData, rho: float, h: tuple[float, ...], eps: float) -> list[tuple]:
    """The family at ``rho`` as the solver's runs of stacked blocks over the
    decision vector (free coordinates of P, lambda): lambda >= 0, P >=
    DELTA_PD * I, and one block per interval endpoint.  A 1x1 P is fixed by
    its unit trace."""
    d, s = lmi.p.shape[:2]
    blocks = lmi.g.copy()
    blocks[..., :s, :s] -= (rho * rho) * lmi.p[:, None]

    def run(s0, p_coeffs, lam_coeff, bound):
        """The blocks s0 + sum_i v_i p_coeffs[i] + lambda lam_coeff <= bound."""
        coeffs = np.zeros((d, *s0.shape))
        coeffs[:d - 1] = p_coeffs
        coeffs[-1] = lam_coeff
        return s0, coeffs, (bound,) * len(s0)

    return [
        run(np.zeros((1, 1, 1)), 0.0, -1.0, 0.0),
        # P >= DELTA_PD * I  <=>  lambda_max(-P(v)) <= -DELTA_PD.
        run(-lmi.p[:1], -lmi.p[1:, None], 0.0, -DELTA_PD),
        run(blocks[0], blocks[1:], quad_form(lmi, h), -eps),
    ]


def _matrix_backend(lmi: LmiData, rho: float, h: tuple[float, ...],
                    eps: float) -> Witness | None:
    d, s = lmi.p.shape[:2]
    point = ellipsoid_feasibility(_runs(lmi, rho, h, eps), start=_start(s))
    if point is None:
        return None
    pmat = lmi.p[0] + sum(v * b for v, b in zip(point[:d - 1], lmi.p[1:]))
    # Halving before the sum cannot overflow, and float addition commutes,
    # so P is exactly symmetric.
    p = 0.5 * pmat + 0.5 * pmat.T
    p.setflags(write=False)
    return Witness(p=p, lam=float(point[-1]))


def feasible_at_rho(lmi: LmiData, rho: float, h: tuple[float, ...],
                    eps: float | None = None) -> Witness | None:
    """Decide joint feasibility of the block family at ``rho`` with the
    multiplier weights ``h``, each block held to "<= -eps * I" (None:
    ``default_eps_feas`` of the data's kappa).

    Returns a Witness, or None when infeasible.  Raises SolverBudgetExceeded
    (distinct from infeasibility) if the barrier solver runs out of Newton
    steps before reaching a verdict.
    """
    if eps is None:
        eps = default_eps_feas(lmi.kappa)
    if len(lmi.p) == 1:
        lam = sector_lambda(rho, lmi.alphas, FunctionClass(1.0, lmi.kappa), eps)
        return None if lam is None else Witness(p=_P_ONE, lam=lam)
    return _matrix_backend(lmi, rho, h, eps)


def _blocks(lmi: LmiData, rho: float, h: tuple[float, ...], p: np.ndarray,
            lam: float) -> np.ndarray:
    """The family's blocks, one per step size, at (rho, h) and the pair
    (P, lambda): the data evaluated at P's coordinates over its basis."""
    s = lmi.p.shape[1]
    if p.shape != (s, s):
        raise InvalidInput(f"P has order {p.shape[0]}, expected {s}")
    x = np.concatenate(([np.trace(p)], np.diag(p)[:-1], p[np.triu_indices(s, 1)]))
    blocks = np.tensordot(x, lmi.g, axes=1)
    blocks[..., :s, :s] -= (rho * rho) * p
    return blocks + lam * quad_form(lmi, h)


def _slack(cert: Certificate) -> float:
    """Largest block eigenvalue of the certificate's witness over its step
    sizes, on data rebuilt from the certificate's own fields in reduced
    units (matching the witness); inf for a lambda or P that is not finite,
    which no eigen-solve can bound."""
    wit = cert.witness
    if not (np.isfinite(wit.lam) and np.isfinite(wit.p).all()):
        return np.inf
    fc_n, alphas = reduced(cert.fc, cert.interval)
    k = taps(cert.iqc_kind, cert.zf_order)
    h = _weights(cert.iqc_kind, cert.rho_star, k, cert.weights or None)
    lmi = augment(fc_n.kappa(), alphas, k)
    return max_eigenvalue(_blocks(lmi, cert.rho_star, h, wit.p, wit.lam))


def verify_certificate(cert: Certificate) -> bool:
    """Replay the certificate: rebuild the inequality's data from its own
    fields, evaluate the blocks at both endpoints of the stored interval at
    the stored (rho_star, P, lambda) and check their largest eigenvalue
    against the data-scaled ``default_eps_feas`` of its class.  The
    slack is recomputed here, never read from ``cert.slack``.  A lambda that
    is negative or not finite, or a P that is not a finite positive definite
    matrix of order k + 1 for the multiplier's k taps, fails the check."""
    if cert.rho_star is None or cert.witness is None:
        raise InvalidInput("certificate has no witness to verify")
    wit = cert.witness
    if not 0.0 <= wit.lam < np.inf:
        return False
    s = taps(cert.iqc_kind, cert.zf_order) + 1
    if np.shape(wit.p) != (s, s) or not np.isfinite(wit.p).all():
        return False
    vals, _ = eig_sym(wit.p)
    if vals[0] <= 0.0:
        return False
    try:
        slack = _slack(cert)
    except WeightOutOfRange:
        return False
    return slack <= default_eps_feas(cert.fc.kappa())
