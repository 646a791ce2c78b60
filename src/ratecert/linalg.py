"""Dense symmetric-matrix numerics used throughout the package.

All matrices that appear in the rate-certification pipeline are small
(order <= ~12), dense and symmetric.  The eigensolver is a cyclic Jacobi
iteration: at these sizes it is simple, robust, and accurate to machine
precision, with no tuning knobs beyond the sweep cap and the off-diagonal
convergence tolerance.

A batched variant of the same Jacobi kernel is provided for callers that
need eigenvalues of many equally-sized blocks at once (the feasibility
solver evaluates the block at every interval endpoint per iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Convergence contract for the Jacobi sweep: stop once the off-diagonal
# Frobenius norm drops below OFF_DIAG_TOL * ||S||_F, give up after MAX_SWEEPS.
OFF_DIAG_TOL = 1e-12
MAX_SWEEPS = 100


class NotPositiveDefinite(ValueError):
    """Raised when an SPD-only operation receives a non-PD matrix."""


class SymMatrix:
    """Immutable real symmetric matrix.

    The lower triangle is authoritative: the stored array is mirrored from
    it at construction, so ``entry(i, j) == entry(j, i)`` holds exactly, not
    merely up to a tolerance.  Non-finite entries are rejected.
    """

    __slots__ = ("_m",)

    def __init__(self, entries, symmetrize: bool = False):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("symmetric matrix entries must be finite")
        if symmetrize:
            a = 0.5 * (a + a.T)
        elif not np.array_equal(a, a.T):
            raise ValueError(
                "input is not exactly symmetric; pass symmetrize=True "
                "for matrices assembled in floating point"
            )
        lower = np.tril(a)
        a = lower + lower.T - np.diag(np.diag(a))
        a.setflags(write=False)
        self._m = a

    @property
    def order(self) -> int:
        return self._m.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only dense view."""
        return self._m

    def entry(self, i: int, j: int) -> float:
        return float(self._m[i, j])

    def frobenius(self) -> float:
        return float(np.linalg.norm(self._m))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix({self._m.tolist()!r})"


def sym_diag(values) -> SymMatrix:
    return SymMatrix(np.diag(np.asarray(values, dtype=float)))


def sym_identity(order: int) -> SymMatrix:
    return SymMatrix(np.eye(order))


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues sorted ascending; column i of ``eigenvectors`` pairs with
    ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _jacobi_batch(
    mats: np.ndarray,
    need_vectors: bool,
    off_diag_tol: float = OFF_DIAG_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic Jacobi on a stack of symmetric matrices, shape (B, n, n).

    Every batch member sees the identical sweep pattern; a rotation with a
    zero pivot degenerates to the identity, so results coincide with running
    the scalar algorithm per matrix.  Returns (eigenvalues (B, n) ascending,
    eigenvectors (B, n, n) or None).
    """
    a = np.array(mats, dtype=float)
    batch, n = a.shape[0], a.shape[1]
    vecs = None
    if need_vectors:
        vecs = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
    if n == 1:
        return a[:, :, 0].copy(), vecs

    # Off-diagonal target is relative to the input Frobenius norm.
    fro_sq = np.sum(a * a, axis=(1, 2))
    target_sq = (off_diag_tol * off_diag_tol) * fro_sq

    iu = _TRIU_CACHE.get(n)
    if iu is None:
        iu = _TRIU_CACHE.setdefault(n, np.triu_indices(n, k=1))
    rot = np.empty((batch, 2, 2))
    # A huge |theta| overflows to inf and yields t == 0, a no-op rotation,
    # which is the correct limit; silence that benign noise once.
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(max_sweeps):
            off_sq = 2.0 * np.sum(a[:, iu[0], iu[1]] ** 2, axis=1)
            if np.all(off_sq <= target_sq):
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[:, p, q]
                    zero = apq == 0.0
                    n_zero = np.count_nonzero(zero)
                    if n_zero == batch:
                        continue
                    if n_zero:
                        safe = np.where(zero, 1.0, apq)
                        theta = (a[:, q, q] - a[:, p, p]) / (2.0 * safe)
                    else:
                        theta = (a[:, q, q] - a[:, p, p]) / (2.0 * apq)
                    t = np.copysign(1.0, theta) / (
                        np.abs(theta) + np.sqrt(1.0 + theta * theta)
                    )
                    if n_zero:
                        t[zero] = 0.0
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = t * c
                    rot[:, 0, 0] = c
                    rot[:, 0, 1] = s
                    rot[:, 1, 0] = -s
                    rot[:, 1, 1] = c
                    # Similarity transform: columns p,q then rows p,q.
                    a[:, :, [p, q]] = a[:, :, [p, q]] @ rot
                    a[:, [p, q], :] = rot.transpose(0, 2, 1) @ a[:, [p, q], :]
                    # The rotation annihilates the pivot by construction.
                    if n_zero:
                        a[:, p, q] = np.where(zero, a[:, p, q], 0.0)
                        a[:, q, p] = a[:, p, q]
                    else:
                        a[:, p, q] = 0.0
                        a[:, q, p] = 0.0
                    if need_vectors:
                        vecs[:, :, [p, q]] = vecs[:, :, [p, q]] @ rot

    diag = np.einsum("bii->bi", a)
    order = np.argsort(diag, axis=1, kind="stable")
    vals = np.take_along_axis(diag, order, axis=1)
    if need_vectors:
        vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    return vals, vecs


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices (B, n, n)."""
    vals, _ = _jacobi_batch(mats, need_vectors=False)
    return vals


def eig_sym(
    s: SymMatrix,
    off_diag_tol: float = OFF_DIAG_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> EigenResult:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Deterministic for a given input.  Satisfies, for random test matrices,
    ``||Q diag(w) Q^T - S||_F <= 1e-10 * max(1, ||S||_F)`` and
    ``||Q^T Q - I||_F <= 1e-10``.
    """
    vals, vecs = _jacobi_batch(
        s.mat[None, :, :], need_vectors=True,
        off_diag_tol=off_diag_tol, max_sweeps=max_sweeps,
    )
    return EigenResult(eigenvalues=vals[0], eigenvectors=vecs[0])


def max_eigenpair(s: SymMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and an associated unit eigenvector.

    The eigenvector is what cutting-plane callers need: if ``q`` is returned
    for a violated block ``S``, then ``q^T S q`` equals the violation and is
    affine in the decision variables of an affine matrix family.
    """
    res = eig_sym(s)
    return float(res.eigenvalues[-1]), res.eigenvectors[:, -1].copy()


def max_eigenvalue(s: SymMatrix) -> float:
    return max_eigenpair(s)[0]


def is_neg_semidef(s: SymMatrix, slack: float = 0.0) -> bool:
    """True iff the largest eigenvalue does not exceed ``slack`` (>= 0)."""
    if slack < 0.0:
        raise ValueError("slack must be nonnegative")
    return max_eigenvalue(s) <= slack


def cond_spd(s: SymMatrix) -> float:
    """Condition number lambda_max / lambda_min of a positive definite matrix."""
    vals = eig_sym(s).eigenvalues
    if vals[0] <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {vals[0]:g})"
        )
    return float(vals[-1] / vals[0])
