"""Dense symmetric-matrix numerics used throughout the package.

All matrices that appear in the rate-certification pipeline are small
(order <= ~12), dense and symmetric.  All eigen work goes through numpy's
LAPACK drivers: ``eigh`` when eigenvectors are needed and ``eigvalsh`` when
only eigenvalues are.  The helpers here serve the certifier's checks of a
finished witness; the feasibility solver calls ``eigh`` on a stack of
equally-sized blocks directly, to decompose the block at every interval
endpoint in one call per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPositiveDefinite(ValueError):
    """Raised when an SPD-only operation receives a non-PD matrix."""


class SymMatrix:
    """Immutable real symmetric matrix.

    Input must be exactly symmetric, or is averaged with its transpose when
    ``symmetrize`` is set, so ``entry(i, j) == entry(j, i)`` holds exactly,
    not merely up to a tolerance.  Non-finite entries are rejected.
    """

    __slots__ = ("_m",)

    def __init__(self, entries, symmetrize: bool = False):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("symmetric matrix entries must be finite")
        if symmetrize:
            # Halving before the sum cannot overflow, and float addition
            # commutes, so the result is exactly symmetric.
            a = 0.5 * a + 0.5 * a.T
        elif not np.array_equal(a, a.T):
            raise ValueError(
                "input is not exactly symmetric; pass symmetrize=True "
                "for matrices assembled in floating point"
            )
        a.setflags(write=False)
        self._m = a

    @property
    def order(self) -> int:
        return self._m.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only dense view."""
        return self._m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix({self._m.tolist()!r})"


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues sorted ascending; column i of ``eigenvectors`` pairs with
    ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_sym(s: SymMatrix) -> EigenResult:
    """Full symmetric eigendecomposition (LAPACK ``syevd`` via numpy).

    Deterministic for a given input.  Satisfies, for random test matrices,
    ``||Q diag(w) Q^T - S||_F <= 1e-10 * max(1, ||S||_F)`` and
    ``||Q^T Q - I||_F <= 1e-10``.
    """
    vals, vecs = np.linalg.eigh(s.mat)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs)


def max_eigenvalue(s: SymMatrix) -> float:
    return float(np.linalg.eigvalsh(s.mat)[-1])


def cond_spd(s: SymMatrix) -> float:
    """Condition number lambda_max / lambda_min of a positive definite matrix."""
    vals = np.linalg.eigvalsh(s.mat)
    if vals[0] <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {vals[0]:g})"
        )
    return float(vals[-1] / vals[0])
