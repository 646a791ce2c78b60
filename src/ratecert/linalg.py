"""Dense symmetric-matrix numerics used throughout the package.

All matrices that appear in the rate-certification pipeline are small
(order <= ~12), dense and symmetric.  All eigen work goes through numpy's
LAPACK drivers: ``eigh`` when eigenvectors are needed and ``eigvalsh`` when
only eigenvalues are.  Both accept a stack of equally-sized blocks, which the
feasibility solver uses to decompose the block at every interval endpoint
in one call per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices (B, n, n)."""
    return np.linalg.eigvalsh(mats)


def eig_sym(s: SymMatrix) -> EigenResult:
    """Full symmetric eigendecomposition (LAPACK ``syevd`` via numpy).

    Deterministic for a given input.  Satisfies, for random test matrices,
    ``||Q diag(w) Q^T - S||_F <= 1e-10 * max(1, ||S||_F)`` and
    ``||Q^T Q - I||_F <= 1e-10``.
    """
    vals, vecs = np.linalg.eigh(s.mat)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs)


def max_eigenpair(s: SymMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and an associated unit eigenvector.

    The eigenvector is what cutting-plane callers need: if ``q`` is returned
    for a violated block ``S``, then ``q^T S q`` equals the violation and is
    affine in the decision variables of an affine matrix family.
    """
    res = eig_sym(s)
    return float(res.eigenvalues[-1]), res.eigenvectors[:, -1].copy()


def max_eigenvalue(s: SymMatrix) -> float:
    return float(np.linalg.eigvalsh(s.mat)[-1])


def is_neg_semidef(s: SymMatrix, slack: float = 0.0) -> bool:
    """True iff the largest eigenvalue does not exceed ``slack`` (>= 0)."""
    if slack < 0.0:
        raise ValueError("slack must be nonnegative")
    return max_eigenvalue(s) <= slack


def cond_spd(s: SymMatrix) -> float:
    """Condition number lambda_max / lambda_min of a positive definite matrix."""
    vals = np.linalg.eigvalsh(s.mat)
    if vals[0] <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {vals[0]:g})"
        )
    return float(vals[-1] / vals[0])
