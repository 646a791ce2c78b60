"""Log-det barrier (phase-I interior-point) method for affine
symmetric-matrix feasibility: is there a v in the ball B of radius
R = 10 * sqrt(v_dim) about 0 with

    lambda_max( S0_c + sum_i v_i * Si_c ) <= bound_c        (c = 1..K)?

It minimizes t subject to G_c = (t + bound_c) * I - S_c(v) > 0 and |v| < R
by damped Newton steps x += dx / (1 + lambda) on tau * t - sum_c log det
G_c - log(R^2 - |v|^2), multiplying tau by 16 at each iterate whose Newton
decrement lambda is below 1/2 (Boyd, El Ghaoui, Feron & Balakrishnan 1994,
section 2.4; Vandenberghe & Boyd, SIAM Review 1996).  m is the total block
order plus one.  A run of blocks is ``(s0, coeffs, bounds)``, shaped
(B, n, n), (v_dim, B, n, n) and (B,).  All blocks go into one stack of order
N, the largest n, each padded with a constant identity (log det I = 0), so
each Newton step handles every block in a few array calls: about 40 steps
per feasible and 70 per infeasible dynamic solve.

* Feasible: the first iterate with t < 0 at which the yes/no scan
  ``_first_violated_cut`` finds every block of the runs held.  A step that
  the scan rejects, or after which G has no Cholesky factor or the Newton
  system is not positive definite, left the domain in rounding and is halved.
* None: at an iterate with lambda < 1/2, t - 2m/tau bounds the least t from
  below (Nesterov 2004, section 4.2), so t - 2m/tau > 0 shows that no v in B
  satisfies every block.  Failing that, the solve stops once 2m/tau < 1e-12
  and t > -1e-12: no v in B satisfies every block with margin 2e-12.  Both
  claims hold up to the rounding of the Newton system.
* Unknown: SolverBudgetExceeded at the step budget.

``ellipsoid_feasibility``, ``_first_violated_cut`` and ``_jacobi_batch`` are
named for an ellipsoid method; they stay because the benchmark's tracer wraps
them (perfbench/tracing.py; tests/test_benchmark_hooks.py checks them).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import cholesky_lo, eigvalsh_lo, inv, solve1

# Defined where the numpy-free rate search catches it.
from .search import SolverBudgetExceeded

_MU = 16.0  # tau's growth factor
_ETA = 1e-12  # the thin-set threshold


def initial_radius(d: int) -> float:
    """Radius of the ball B about 0 searched over ``d`` decision variables."""
    return 10.0 * math.sqrt(d)


# LAPACK reports non-convergence through the invalid flag; the finiteness
# check decides instead, so no flag becomes a warning.
@np.errstate(all="ignore")
def _jacobi_batch(blocks: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of each block of a (B, n, n) stack of
    symmetric blocks, read from their lower triangles, bit for bit as
    ``np.linalg.eigvalsh(blocks)[..., -1]`` (whose gufunc this calls
    without the wrapper).  Raises LinAlgError if any eigenvalue is not
    finite."""
    vals = eigvalsh_lo(blocks, signature="d->d")
    if not all(map(math.isfinite, vals.ravel().tolist())):
        raise LinAlgError("eigenvalues are not finite")
    return vals[:, -1]


def _stack(runs, d: int) -> tuple[tuple, int]:
    """The workspace ``_newton_system`` reads, and m.  The stack F, shape
    (d + 2, blocks, N, N), gives G(x) = x @ F at x = (1, v, t).  The
    Hessian is the Gram matrix of rows [vec M_k | C_k]: C C^T = q * I +
    q^2 v v^T, the ball's terms (q = 2 / (R^2 - |v|^2)), from sqrt(q) * I
    and a last column q * v.  ``weights`` maps the rows to the gradient,
    -tr M_k + (q * v)_k."""
    n_max = max(s0.shape[1] for s0, _, _ in runs)
    blocks = sum(len(s0) for s0, _, _ in runs)
    f = np.zeros((d + 2, blocks, n_max, n_max))
    f[0] = np.eye(n_max)
    i = 0
    for s0, coeffs, bounds in runs:
        b, n = s0.shape[:2]
        f[0, i:i + b, :n, :n] = np.multiply.outer(bounds, np.eye(n)) - s0
        f[1:-1, i:i + b, :n, :n] = -coeffs
        f[-1, i:i + b, :n, :n] = np.eye(n)
        i += b
    if not np.isfinite(f).all():
        # The scan would read a NaN bound as holding, and the steps would
        # read NaN blocks as leaving the domain until the budget ran out.
        raise ValueError("constraint data are not finite")
    k, size = d + 1, blocks * n_max * n_max
    # F_1.. F_k of each block side by side, for one batched matmul.
    by_block = np.ascontiguousarray(f[1:].transpose(1, 2, 0, 3)).reshape(blocks, n_max, -1)
    rows = np.zeros((k, size + k))
    weights = np.concatenate((-np.tile(np.eye(n_max).ravel(), blocks), np.zeros(d), [1.0]))
    work = (f.reshape(d + 2, -1), by_block, rows, rows[:, :size].reshape(k, blocks, n_max, n_max),
            rows.reshape(-1)[size:size + d * (size + k + 1):size + k + 1], rows[:d, -1], weights,
            initial_radius(d) ** 2)
    return work, int(f[-1].sum()) + 1


def _newton_system(x: np.ndarray, work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian over (v, t) of -sum log det G(x) - log(R^2 -
    |v|^2) at x = (1, v, t), ``work`` as ``_stack`` gives it; NaN outside
    the domain.  One call is one Newton step (tools/witness_digest.py
    counts them).  With G = L L^T, the Hessian is the Gram matrix of the
    M_k = L^-1 F_k L^-T, which stays positive semidefinite in rounding; the
    product form tr(W F_k W F_l), W = G^-1, lost that near tau ~ 1e10."""
    f_flat, by_block, rows, rows_m, diag, last, weights, radius_sq = work
    blocks, n, kn = by_block.shape
    v = x[1:-1]
    r = radius_sq - v @ v
    q = 2.0 / r if r > 0.0 else math.nan
    inv_l = inv(cholesky_lo((x @ f_flat).reshape(blocks, n, n), signature="d->d"),
                signature="d->d")
    m = np.matmul(np.matmul(inv_l, by_block).reshape(blocks, kn, n), inv_l.swapaxes(1, 2))
    rows_m[...] = m.reshape(blocks, n, kn // n, n).transpose(2, 0, 1, 3)
    diag[...] = math.sqrt(q)
    np.multiply(v, q, out=last)
    return rows @ weights, rows @ rows.T


# A failed Cholesky factor sets the invalid flag; its NaN decides instead.
@np.errstate(all="ignore")
def ellipsoid_feasibility(runs, max_iters: int = 500, start=None) -> np.ndarray | None:
    """A point of B satisfying every block of ``runs``, found from ``start``
    (a point of the open ball B; default 0), or None when no v in B
    satisfies every block with margin 2e-12 (the module docstring states the
    exact claim).  Raises SolverBudgetExceeded, "unknown" and never
    infeasible, when ``max_iters`` Newton steps (certifications take at most
    about 100) reach no verdict; ValueError for non-finite data, a start
    that is not a finite point of B, a run whose shapes disagree, or a
    non-positive-integer budget."""
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if not runs:
        raise ValueError("need at least one constraint run")
    d = runs[0][1].shape[0]
    for j, (s0, coeffs, bounds) in enumerate(runs):
        if coeffs.shape[0] != d:
            raise ValueError("runs differ in their number of decision variables")
        if not (s0.ndim == 3 and s0.shape[1] == s0.shape[2]
                and coeffs.shape == (d, *s0.shape) and len(bounds) == len(s0)):
            raise ValueError(f"run {j} needs shapes (B, n, n), ({d}, B, n, n) and B bounds, got "
                             f"{s0.shape}, {coeffs.shape} and {len(bounds)}")
    work, m = _stack(runs, d)
    x = np.zeros(d + 2)
    x[0] = 1.0
    if start is not None:
        start = np.asarray(start, dtype=float)
        if not (start.shape == (d,) and np.isfinite(start).all()
                and start @ start < initial_radius(d) ** 2):
            raise ValueError(f"start needs a finite point of length {d} inside the ball")
        x[1:-1] = start
    # t starts where every G_c is at least max(1, |lowest|) * I.
    blocks, n, _ = work[1].shape
    lowest = float(eigvalsh_lo((x @ work[0]).reshape(blocks, n, n), signature="d->d").min())
    x[-1] = max(1.0, abs(lowest)) - lowest
    tau = None
    step = np.zeros(d + 1)
    for _ in range(max_iters):
        grad, hess = _newton_system(x, work)
        if tau is None:  # the tau that minimizes the Newton decrement
            tau = max(-solve1(hess, grad, signature="dd->d")[-1]
                      / solve1(hess, np.eye(d + 1)[-1], signature="dd->d")[-1], 1e-8)
        grad[-1] += tau
        dx = solve1(hess, grad, signature="dd->d")
        lam_sq = float(grad @ dx)
        if 0.0 <= lam_sq < 0.25:
            t, gap = x[-1], 2.0 * m / tau
            if t > gap or (gap < _ETA and t > -_ETA):
                return None
            grad[-1] += (_MU - 1.0) * tau
            tau *= _MU
            dx = solve1(hess, grad, signature="dd->d")
            lam_sq = float(grad @ dx)
        if not 0.0 <= lam_sq < math.inf:
            # The last step left the domain: take half of it back.
            step *= 0.5
            x[1:] -= step
            continue
        step = dx * (-1.0 / (1.0 + math.sqrt(lam_sq)))
        while x[-1] + step[-1] < 0.0:
            point = x[1:-1] + step[:-1]
            if _first_violated_cut(runs, point) is None:
                return point
            step *= 0.5
        x[1:] += step
    raise SolverBudgetExceeded(f"no decision after {max_iters} Newton steps")


def _first_violated_cut(runs, point) -> tuple[int, int] | None:
    """The (run, block) index of the first block of ``runs`` whose largest
    eigenvalue at ``point`` exceeds its bound, or None when every block
    holds.  It reads the caller's runs, not ``_stack``'s padded stack or a
    Cholesky factor, so it checks a point against the solver's input
    independently of the steps that found it.  A 1x1 block goes through the
    same eigenvalue call, which returns its entry exactly."""
    for r, (s0, coeffs, bounds) in enumerate(runs):
        top = s0.reshape(-1) + point @ coeffs.reshape(len(coeffs), -1)
        for i, (x, b) in enumerate(zip(_jacobi_batch(top.reshape(s0.shape)).tolist(), bounds)):
            if x > b:
                return r, i
    return None
