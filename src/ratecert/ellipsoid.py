"""Deep-cut ellipsoid method for affine symmetric-matrix feasibility.

Decides whether a system of constraints

    lambda_max( S0_c + sum_i v_i * Si_c ) <= bound_c        (c = 1..K)

has a solution v in the ball B of radius 10 * sqrt(v_dim).  Either a point
satisfying every constraint is returned, or infeasibility is certified: the
cut sequence shrinks a bounding ellipsoid (B, or a start holding the
feasible set within B) until its volume is below that of a ball with radius
1e-7, proving that no ball of that radius fits in the feasible set within B.

The caller states the constraints as runs of blocks of one order n.  A run
is ``(s0, coeffs, bounds)``: ``s0`` has shape (B, n, n), ``coeffs`` is
C-contiguous with shape (v_dim, B, n, n), and ``bounds`` holds the B bounds.
Each cut scans the runs in order and cuts at the first violated block.

Cutting planes come from the eigenvector of the most positive eigenvalue of
a violated block: for unit q, the scalar function q^T S(v) q is affine in v
and separates the current center from the feasible set.  Deep cuts (using
the actual violation depth, not just the hyperplane through the center) are
used, which both accelerates volume decrease and detects empty intersections
outright when a cut excludes the whole ellipsoid.

A run of order 1 (scalar inequalities such as lambda >= 0) is decided from
its affine values and cut along its coefficients, with no
eigen-decomposition: a 1x1 block's unit eigenvector is exactly 1, so the
cut has the same bits.  A run of order >= 2 is decomposed as one batch by
``_jacobi_batch``, which calls LAPACK's ``eigh`` gufunc directly: the call
``np.linalg.eigh`` makes, with the same bits, without its wrapper.  It
raises numpy's LinAlgError when any eigenvalue of the batch is not finite,
which is how LAPACK's non-convergence and NaN or infinite entries show, and
emits no floating-point warning.

Each solve rejects non-finite data, flattens every run once, and a cut
updates the center and shape in place, in the arithmetic order of the
textbook update.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo

# Defined where the numpy-free rate search catches it.
from .search import SolverBudgetExceeded

# Radius of the smallest ball whose absence proves infeasibility.
_R_MIN = 1e-7


def initial_radius(d: int) -> float:
    """Radius of the ball B about 0 searched over ``d`` decision variables."""
    return 10.0 * math.sqrt(d)


# LAPACK reports non-convergence through the invalid flag; the finiteness
# check decides instead, so no flag becomes a warning.
@np.errstate(all="ignore")
def _jacobi_batch(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a (B, n, n) stack of
    symmetric blocks, read from their lower triangles, bit for bit as
    ``np.linalg.eigh``.  Raises LinAlgError if any eigenvalue is not finite.

    perfbench/tracing.py wraps this module-level name for its eigen-batch
    spans.
    """
    vals, vecs = eigh_lo(blocks, signature="d->dd")
    if not all(map(math.isfinite, vals.ravel().tolist())):
        raise LinAlgError("eigenvalues are not finite")
    return vals, vecs


def _prepare(runs) -> list[tuple]:
    """Each run ``(s0, coeffs, bounds)`` as the tuple the scan reads:
    ``(order, batch, s0 flat, coeffs as (v_dim, -1), bounds as a list,
    s0, coeffs)``.  Raises ValueError for an entry or bound that is not
    finite, which the scan would read as a satisfied constraint."""
    for s0, coeffs, bounds in runs:
        if not (np.isfinite(s0).all() and np.isfinite(coeffs).all()
                and all(map(math.isfinite, bounds))):
            raise ValueError("constraint data are not finite")
    return [
        (s0.shape[1], len(s0), s0.reshape(-1), coeffs.reshape(len(coeffs), -1),
         list(bounds), s0, coeffs)
        for s0, coeffs, bounds in runs
    ]


def _initial(start, d: int, radius: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Copies of the start's center and shape (the ball of ``radius`` when
    ``start`` is None) and the shape's log-determinant."""
    if start is None:
        return np.zeros(d), radius * radius * np.eye(d), 2.0 * d * math.log(radius)
    center, shape = (np.array(x, dtype=float) for x in start)
    try:
        if not (center.shape == (d,) and shape.shape == (d, d) and np.isfinite(center).all()
                and np.isfinite(shape).all() and (shape == shape.T).all()):
            raise LinAlgError
        chol = np.linalg.cholesky(shape)
    except LinAlgError:
        raise ValueError(f"start needs a finite center of length {d} and a symmetric "
                         f"positive definite {d}x{d} shape") from None
    return center, shape, 2.0 * float(np.log(np.diagonal(chol)).sum())


def ellipsoid_feasibility(runs, max_iters: int | None = None, start=None) -> np.ndarray | None:
    """Find a point satisfying every block of ``runs``, or certify
    infeasibility.

    ``start`` is an ellipsoid ``(center, shape)``, {v : (v - center)^T
    shape^-1 (v - center) <= 1}, to start from instead of the ball B of
    radius R = 10 * sqrt(v_dim); the caller guarantees that it holds the
    feasible set F within B.  So does every later ellipsoid, since a cut
    keeps a half-space holding F and the update holds E's part of it.

    Returns the point, or None when no ball of radius 1e-7 fits in the
    feasible set intersected with the initial ball B.  Raises
    SolverBudgetExceeded when ``max_iters`` (default
    ceil(10 * v_dim^2 * ln(R / 1e-7))) iterations reach no verdict, which
    callers must treat as "unknown", not as infeasible.  Raises ValueError
    for non-finite constraint data or a malformed start.
    """
    if not runs:
        raise ValueError("need at least one constraint run")
    d = runs[0][1].shape[0]
    if d < 2:
        # The deep-cut update divides by d^2 - 1.
        raise ValueError("need at least two decision variables")
    if any(coeffs.shape[0] != d for _, coeffs, _ in runs):
        raise ValueError("runs differ in their number of decision variables")
    radius = initial_radius(d)
    if max_iters is None:
        max_iters = int(math.ceil(10.0 * d * d * math.log(radius / _R_MIN)))
    prepared = _prepare(runs)
    center, shape, logdet = _initial(start, d, radius)  # E = {x : (x-c)^T Q^-1 (x-c) <= 1}
    logdet_floor = 2.0 * d * math.log(_R_MIN)

    for _ in range(max_iters):
        cut = _first_violated_cut(prepared, center)
        if cut is None:
            return center
        a, depth = cut
        qa = shape @ a
        norm_sq = float(a @ qa)
        if norm_sq <= 0.0:
            # No usable direction: the violated constraint is constant in v.
            return None
        norm = math.sqrt(norm_sq)
        alpha = depth / norm
        if alpha >= 1.0:
            # The half-space aligned with the cut misses the entire ellipsoid.
            return None
        # Deep-cut update, in place: center -= (tau * qa) / norm and
        # shape = delta * (shape - (sigma * qa qa^T) / norm_sq).
        tau = (1.0 + d * alpha) / (d + 1.0)
        sigma = 2.0 * (1.0 + d * alpha) / ((d + 1.0) * (1.0 + alpha))
        delta = (d * d / (d * d - 1.0)) * (1.0 - alpha * alpha)
        step = tau * qa
        step /= norm
        center -= step
        # Exactly symmetric whenever shape is: qa_i * qa_j == qa_j * qa_i.
        outer = qa[:, None] * qa
        outer *= sigma
        outer /= norm_sq
        shape -= outer
        shape *= delta
        logdet += d * math.log(delta) + math.log1p(-sigma)
        if logdet < logdet_floor:
            return None
    raise SolverBudgetExceeded(
        f"no decision after {max_iters} ellipsoid iterations"
    )


def _first_violated_cut(prepared, center) -> tuple[np.ndarray, float] | None:
    """Scan the runs' blocks in order (runs as ``_prepare`` returns them);
    return (cut normal a, violation depth) for the first violated one, or
    None if the center is feasible.

    The cut encodes: feasible set is contained in {v : a . v <= a . center - depth}.
    """
    for n, batch, s0_flat, coeffs_flat, bounds, s0, coeffs in prepared:
        top = s0_flat + center @ coeffs_flat
        if n > 1:
            vals, vecs = _jacobi_batch(top.reshape(batch, n, n))
            top = vals[:, -1]
        for i, (x, b) in enumerate(zip(top.tolist(), bounds)):
            if x > b:
                break
        else:
            continue
        if n == 1:
            # q = [1.0]; "+ 0.0" maps -0.0 to 0.0, as contracting with q does.
            a = coeffs[:, i, 0, 0] + 0.0
            g0 = float(s0[i, 0, 0])
        else:
            q = vecs[i, :, -1]
            a = np.einsum("i,dij,j->d", q, coeffs[:, i], q)
            g0 = float(q @ s0[i] @ q)
        # Affine value at the center; re-derive for consistency with the cut.
        depth = float(a @ center) + g0 - bounds[i]
        if depth <= 0.0:
            # Rayleigh quotient dipped below the bound (can happen within
            # round-off of the eigensolver); treat as a central cut.
            depth = 0.0
        return a, depth
    return None
