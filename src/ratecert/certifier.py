"""Rate certification, numpy layer: decide joint feasibility in (P, lambda)
of the matrix inequality at the endpoints of a step-size interval, replay
certificates (``_slack``), and the symmetric eigen-solves both need.  The
bisection on the contraction rate rho (``certify``), the sector closed form
and the certificate types live in ``search``, which imports no numpy.

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
dynamic ``certify`` (at its set-up) and once per replay; a probe at rho is
coefficient arithmetic on that data.  Everything is in reduced units
(``model.reduced``): rates are invariant under that rescaling and the block
entries stay at unit scale, so the strictness tolerances below mean the same
thing for every input.  Stored witnesses refer to the reduced system; the
rate bound itself needs only rho_star and cond(P), both of which are
reduction-invariant for the plant state.

The numpy layer knows a multiplier only by its tap count k (``search.taps``:
0 for sector, 1 for wob1 and zf:1, k for zf:k); the kind name is kept only
in the certificate's record.  Two backends decide feasibility:

* k = 0, sector (state dimension 1): P is the scalar 1, and the admissible
  lambda set at each endpoint is an interval computed in closed form from
  the 2x2 block's diagonal and determinant conditions; the family is
  feasible iff the intervals intersect.  ``certify`` decides its sector
  probes with ``search.sector_lambda`` alone, in plain floats, without
  importing this module; only replay (``Certificate.slack``,
  ``verify_certificate``) builds the numpy data.
* k >= 1 (state dimension k + 1): ``feasible_at_rho``, a log-det barrier
  (interior-point) solver over the decision vector (P's free entries,
  ``iqc.free_entries``, then lambda), which takes Newton steps over all
  blocks at once (see ``ellipsoid``).
  ``_runs`` hands it the family as two runs of stacked blocks: P >=
  DELTA_PD * I and the endpoint blocks, whose diagonal entries b_c^T P b_c
  - 2 lambda <= -eps_feas imply lambda > 0.  A ``certify``'s first
  solve starts from ``_start``, P = I/s and lambda = R/2; each later one
  from the witness of the lowest rate solved feasible so far, which at the
  nearby trial rate misses feasibility only by a little.  That witness is
  the point the solver returned, strictly inside its ball, so it is a
  valid start as it stands.  "Infeasible" means that no (P, lambda) in the
  solver's ball meets every block with margin 2e-12 beyond -eps_feas, from
  whichever start.

"<= 0" is implemented strictly as "<= -eps_feas * I", where eps_feas is
``certify``'s keyword (default: the data-scaled ``default_eps_feas``), and
P is kept away from singularity by P >= DELTA_PD * I, a fixed constant.

All eigen work goes through numpy's LAPACK drivers: ``eigh`` when
eigenvectors are needed and ``eigvalsh`` when only eigenvalues are.  The
solver's yes/no acceptance scan calls the ``eigvalsh`` gufunc unwrapped
and raises LinAlgError when an eigenvalue is not finite.

Importing this module loads numpy, ``iqc`` and ``ellipsoid``.  ``search``
imports it the first time a certification needs it: a dynamic
``certify``'s set-up, a dynamic witness's ``cond_p``, ``Certificate.slack``,
or the P of a sector witness.
"""

from __future__ import annotations

import functools
import math
from numbers import Real

import numpy as np

from .ellipsoid import ellipsoid_feasibility, initial_radius
from .iqc import (
    LmiData,
    WeightOutOfRange,
    augment,
    default_weights,
    free_entries,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from .model import FunctionClass, StepSizeInterval, reduced
from .search import Certificate, InvalidInput, Witness, taps

# Read here by the benchmark (perfbench/oracle.py and run.py), which takes
# its modules from ``cli``, ``certifier``, ``ellipsoid`` and ``simulator``.
from .search import closed_form_rate  # noqa: F401


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


def _weights(rho: float, k: int, pinned: tuple[float, ...] | None) -> tuple[float, ...]:
    """The weights h of a k-tap multiplier at rate ``rho``: ``pinned``, or
    the defaults.  The one place that chooses between them, by the tap
    count alone (wob1 is zf:1); ``taps`` has checked the kind, k and the
    count of ``pinned``.  Raises WeightOutOfRange when they are
    inadmissible at ``rho``."""
    if k == 0:
        return sector()
    h = pinned or default_weights(rho, k)
    if k == 1:
        return weighted_off_by_1(rho, h[0])
    return zames_falb(rho, h)


@functools.lru_cache(maxsize=None)
def _start(s: int) -> np.ndarray:
    """The solver's start for P of order s, read-only: P = I/s, the center
    of the unit-trace P >= 0, in P's free entries, and lambda = R/2, a
    positive lambda well inside the solver's ball of radius R."""
    d = s * (s + 1) // 2
    center = np.concatenate((np.eye(s).take(free_entries(s)) / s, [0.5 * initial_radius(d)]))
    center.setflags(write=False)
    return center


def _runs(lmi: LmiData, rho: float, h: tuple[float, ...], eps: float) -> list[tuple]:
    """The family at ``rho`` as the solver's two runs of stacked blocks over
    the decision vector (free coordinates of P, lambda): P >= DELTA_PD * I,
    and one block per interval endpoint, which implies lambda > 0.  A 1x1 P
    is fixed by its unit trace."""
    d, s = lmi.p.shape[:2]
    p_coeffs = np.zeros((d, 1, s, s))
    np.negative(lmi.p[1:, None], out=p_coeffs[:-1])
    # One array: the endpoint blocks' constant term, then their
    # coefficients, lambda's last.
    blocks = np.empty((d + 1, *lmi.g.shape[1:]))
    blocks[:d] = lmi.g
    blocks[:d, :, :s, :s] -= (rho * rho) * lmi.p[:, None]
    blocks[d] = quad_form(lmi, h)
    return [
        # P >= DELTA_PD * I  <=>  lambda_max(-P(v)) <= -DELTA_PD.
        (-lmi.p[:1], p_coeffs, (-DELTA_PD,)),
        (blocks[0], blocks[1:], (-eps,) * len(blocks[0])),
    ]


def feasible_at_rho(lmi: LmiData, rho: float, h: tuple[float, ...], eps: float,
                    start: Witness | None = None) -> Witness | None:
    """Decide joint feasibility of the block family at ``rho`` with the
    multiplier weights ``h``, each block held to "<= -eps * I", by the
    barrier solve, at any order (``certify`` decides sector's in floats).
    It starts from the witness ``start``, which must lie strictly inside the
    solver's ball (``certify`` passes the one of the lowest rate solved
    feasible, a point the solver returned), or else from ``_start``; the
    verdict's claims do not depend on it.

    Returns a Witness, or None when infeasible.  Raises SolverBudgetExceeded
    (distinct from infeasibility) if the barrier solver runs out of Newton
    steps before reaching a verdict.
    """
    d, s = lmi.p.shape[:2]
    x0 = _start(s) if start is None else np.append(start.p.take(free_entries(s)), start.lam)
    point = ellipsoid_feasibility(_runs(lmi, rho, h, eps), start=x0)
    if point is None:
        return None
    # Every basis matrix is symmetric, so P is too, bit for bit.
    p = lmi.p[0] + sum(v * b for v, b in zip(point[:d - 1], lmi.p[1:]))
    p.setflags(write=False)
    return Witness(p=p, lam=float(point[-1]))


def _blocks(lmi: LmiData, rho: float, h: tuple[float, ...], p: np.ndarray,
            lam: float) -> np.ndarray:
    """The family's blocks, one per step size, at (rho, h) and the pair
    (P, lambda) for a P of the data's order: the data evaluated at P's
    trace and free coordinates over its basis."""
    s = len(p)
    x = np.concatenate(([np.trace(p)], p.take(free_entries(s))))
    blocks = np.tensordot(x, lmi.g, axes=1)
    blocks[..., :s, :s] -= (rho * rho) * p
    return blocks + lam * quad_form(lmi, h)


# Overflow shows as blocks that are not finite, so no flag becomes a warning.
@np.errstate(all="ignore")
def _slack(cert: Certificate) -> float:
    """The replay: the largest block eigenvalue of the certificate's witness
    over its step sizes, on data rebuilt in reduced units from its own
    fields, stored weights included.  It alone reads and checks them (the
    kind, zf order and count of weights through ``taps``), and is inf where
    it cannot evaluate them: an unknown kind or zf order, a ``rho_star``
    that is not a real number in (0, 1], a witness, ``fc`` or ``interval``
    not of its type, weights that do not fit the kind or are inadmissible
    there, a lambda that is not a real number, a P that is not an ndarray,
    is of the wrong order or is not exactly symmetric, a P or lambda that is
    not finite, or blocks that overflow."""
    wit = cert.witness
    if not (isinstance(wit, Witness) and isinstance(cert.rho_star, Real)
            and isinstance(cert.fc, FunctionClass)
            and isinstance(cert.interval, StepSizeInterval)):
        return math.inf
    try:
        rho = float(cert.rho_star)
        weights = tuple(cert.weights)
        k = taps(cert.iqc_kind, cert.zf_order, weights)
        h = _weights(rho, k, weights)
    except (TypeError, ValueError, OverflowError):  # InvalidInput and WeightOutOfRange too
        return math.inf
    # The multipliers are claimed valid only at rates in (0, 1].  One term of
    # the blocks reads P's upper triangle and another all of P, so a P that
    # is not exactly symmetric would stand for two matrices.
    if not (0.0 < rho <= 1.0 and isinstance(wit.lam, Real) and isinstance(wit.p, np.ndarray)
            and wit.p.shape == (k + 1, k + 1) and (wit.p == wit.p.T).all()):
        return math.inf
    fc_n, alphas = reduced(cert.fc, cert.interval)
    blocks = _blocks(augment(fc_n.kappa(), alphas, k), rho, h, wit.p, wit.lam)
    return max_eigenvalue(blocks) if np.isfinite(blocks).all() else math.inf


def verify_certificate(cert: Certificate) -> bool:
    """Check the replay (``_slack``, recomputed here, never read from
    ``cert.slack``): a slack <= 0, with no tolerance, lambda >= 0, P
    positive definite, and ``cond_p`` a real number at least ``cond_spd(P)``
    (what ``certify`` stores; the simulated bound sqrt(cond_p) * rho^k rests
    on it).  A certificate that the replay cannot evaluate, a wrong-typed
    field among them, has slack inf and fails.  Raises InvalidInput only for
    a certificate without a witness."""
    wit = cert.witness
    if wit is None:
        raise InvalidInput("certificate has no witness to verify")
    return bool(_slack(cert) <= 0.0 and wit.lam >= 0.0 and eig_sym(wit.p)[0][0] > 0.0
                and isinstance(cert.cond_p, Real) and cert.cond_p >= cond_spd(wit.p))
