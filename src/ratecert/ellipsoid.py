"""Deep-cut ellipsoid method for affine symmetric-matrix feasibility.

Decides whether a system of constraints

    lambda_max( S0_c + sum_i v_i * Si_c ) <= bound_c        (c = 1..K)

has a solution v in a ball of given radius.  Either a point satisfying every
constraint is returned, or infeasibility is certified: the cut sequence
shrinks a bounding ellipsoid until its volume is below that of a ball with
radius ``r_min``, proving that no ball of that radius fits inside the
feasible set.

Cutting planes come from the eigenvector of the most positive eigenvalue of
a violated block: for unit q, the scalar function q^T S(v) q is affine in v
and separates the current center from the feasible set.  Deep cuts (using
the actual violation depth, not just the hyperplane through the center) are
used, which both accelerates volume decrease and detects empty intersections
outright when a cut excludes the whole ellipsoid.

Order-1 constraints (scalar inequalities such as lambda >= 0) are decided
from their affine value and cut along their coefficients, with no
eigen-decomposition: a 1x1 block's unit eigenvector is exactly 1, so the
cut has the same bits.  Each run of consecutive blocks of one order >= 2
is decomposed as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps this module-level name for its eigen-batch spans.
_jacobi_batch = np.linalg.eigh


class SolverBudgetExceeded(RuntimeError):
    """Iteration cap reached before a feasible point or a volume certificate."""


@dataclass(frozen=True, eq=False)
class MatrixConstraint:
    """Require lambda_max(s0 + sum_i v_i coeffs[i]) <= bound.

    ``coeffs`` has shape (v_dim, n, n); scalar inequalities are expressed as
    1x1 blocks.
    """

    s0: np.ndarray
    coeffs: np.ndarray
    bound: float


@dataclass(frozen=True)
class EllipsoidOptions:
    radius: float | None = None     # default 10 * sqrt(v_dim)
    r_min: float = 1e-7
    max_iters: int | None = None    # default ceil(10 * v_dim^2 * ln(R / r_min))


class _Run:
    """Consecutive constraints of equal order, evaluated as one batch."""

    def __init__(self, constraints: list[MatrixConstraint]):
        self.n = constraints[0].s0.shape[0]
        self.batch = len(constraints)
        self.s0 = np.stack([c.s0 for c in constraints])                  # (B, n, n)
        self.coeffs = np.stack([c.coeffs for c in constraints], axis=1)  # (d, B, n, n)
        self.bounds = [float(c.bound) for c in constraints]
        d = self.coeffs.shape[0]
        self._s0_flat = self.s0.reshape(-1)
        self._coeffs_flat = np.ascontiguousarray(self.coeffs.reshape(d, -1))

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """All blocks at decision vector v, flattened to shape (B * n * n,)."""
        return self._s0_flat + v @ self._coeffs_flat


def _group_runs(constraints) -> list[_Run]:
    runs: list[_Run] = []
    start = 0
    while start < len(constraints):
        end = start + 1
        n = constraints[start].s0.shape[0]
        while end < len(constraints) and constraints[end].s0.shape[0] == n:
            end += 1
        runs.append(_Run(constraints[start:end]))
        start = end
    return runs


def ellipsoid_feasibility(
    constraints: list[MatrixConstraint],
    v_dim: int,
    opts: EllipsoidOptions | None = None,
) -> np.ndarray | None:
    """Find a point satisfying every constraint, or certify infeasibility.

    Returns the point, or None when no ball of radius ``opts.r_min`` fits in
    the feasible set intersected with the initial ball.  Raises
    SolverBudgetExceeded when the iteration cap is hit first, which callers
    must treat as "unknown", not as infeasible.
    """
    opts = opts or EllipsoidOptions()
    d = v_dim
    if d < 2:
        # The deep-cut update divides by d^2 - 1.
        raise ValueError("need at least two decision variables")
    for con in constraints:
        if con.coeffs.shape[0] != d:
            raise ValueError("constraint coefficient count != v_dim")
    radius = opts.radius if opts.radius is not None else 10.0 * math.sqrt(d)
    r_min = opts.r_min
    if not (0.0 < r_min < radius):
        raise ValueError("need 0 < r_min < radius")
    max_iters = (
        opts.max_iters
        if opts.max_iters is not None
        else int(math.ceil(10.0 * d * d * math.log(radius / r_min)))
    )

    runs = _group_runs(constraints)
    center = np.zeros(d)
    shape = radius * radius * np.eye(d)          # E = {x : (x-c)^T Q^-1 (x-c) <= 1}
    logdet = 2.0 * d * math.log(radius)
    logdet_floor = 2.0 * d * math.log(r_min)

    for _ in range(max_iters):
        cut = _first_violated_cut(runs, center)
        if cut is None:
            return center.copy()
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
        # Deep-cut update.
        tau = (1.0 + d * alpha) / (d + 1.0)
        sigma = 2.0 * (1.0 + d * alpha) / ((d + 1.0) * (1.0 + alpha))
        delta = (d * d / (d * d - 1.0)) * (1.0 - alpha * alpha)
        center = center - tau * qa / norm
        # Exactly symmetric whenever shape is: qa_i * qa_j == qa_j * qa_i.
        shape = delta * (shape - sigma * (qa[:, None] * qa) / norm_sq)
        logdet += d * math.log(delta) + math.log1p(-sigma)
        if logdet < logdet_floor:
            return None
    raise SolverBudgetExceeded(
        f"no decision after {max_iters} ellipsoid iterations"
    )


def _first_violated_cut(runs, center) -> tuple[np.ndarray, float] | None:
    """Scan constraints in order; return (cut normal a, violation depth) for
    the first violated one, or None if the center is feasible.

    The cut encodes: feasible set is contained in {v : a . v <= a . center - depth}.
    """
    for run in runs:
        top = run.evaluate(center)
        if run.n > 1:
            vals, vecs = _jacobi_batch(top.reshape(run.batch, run.n, run.n))
            top = vals[:, -1]
        pairs = zip(top.tolist(), run.bounds)
        i = next((k for k, (x, b) in enumerate(pairs) if x > b), None)
        if i is None:
            continue
        if run.n == 1:
            # q = [1.0]; "+ 0.0" maps -0.0 to 0.0, as contracting with q does.
            a = run.coeffs[:, i, 0, 0] + 0.0
            g0 = float(run.s0[i, 0, 0])
        else:
            q = vecs[i, :, -1]
            a = np.einsum("i,dij,j->d", q, run.coeffs[:, i], q)
            g0 = float(q @ run.s0[i] @ q)
        # Affine value at the center; re-derive for consistency with the cut.
        depth = float(a @ center) + g0 - run.bounds[i]
        if depth <= 0.0:
            # Rayleigh quotient dipped below the bound (can happen within
            # round-off of the eigensolver); treat as a central cut.
            depth = 0.0
        return a, depth
    return None
