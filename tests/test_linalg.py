import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert.linalg import (
    NotPositiveDefinite,
    SymMatrix,
    cond_spd,
    eig_sym,
    eigvals_batch,
    is_neg_semidef,
    max_eigenpair,
    max_eigenvalue,
    sym_diag,
    sym_identity,
)


def test_eig_diagonal():
    res = eig_sym(sym_diag([2.0, 3.0]))
    assert_allclose(res.eigenvalues, [2.0, 3.0], atol=0)


def test_eig_symmetric_swap():
    res = eig_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_hand_computed_2x2():
    # Characteristic polynomial gives exactly {-0.02, 0}.
    res = eig_sym(SymMatrix([[-0.01, 0.01], [0.01, -0.01]]))
    assert_allclose(res.eigenvalues, [-0.02, 0.0], atol=1e-14)


def test_max_eigenvalue_examples():
    assert max_eigenvalue(sym_diag([-1.0, -2.0])) == pytest.approx(-1.0, abs=1e-14)
    assert max_eigenvalue(SymMatrix([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)
    assert max_eigenvalue(SymMatrix([[-0.01, 0.01], [0.01, -0.01]])) == pytest.approx(
        0.0, abs=1e-14
    )


def test_max_eigenpair_gives_usable_cutting_direction():
    s = SymMatrix([[1.0, 2.0, 0.5], [2.0, -1.0, 0.0], [0.5, 0.0, 3.0]])
    val, q = max_eigenpair(s)
    assert_allclose(s.mat @ q, val * q, atol=1e-10)
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
    assert q @ s.mat @ q == pytest.approx(val, abs=1e-10)


def test_is_neg_semidef_examples():
    assert is_neg_semidef(sym_diag([0.0, -1.0]), 0.0)
    assert not is_neg_semidef(sym_diag([1e-3, -1.0]), 0.0)
    assert is_neg_semidef(SymMatrix([[-0.01, 0.01], [0.01, -0.01]]), 0.0)


def test_is_neg_semidef_rejects_negative_slack():
    with pytest.raises(ValueError):
        is_neg_semidef(sym_diag([0.0]), -1e-9)


def test_cond_spd_examples():
    for n in range(1, 6):
        assert cond_spd(sym_identity(n)) == pytest.approx(1.0, abs=1e-14)
    assert cond_spd(sym_diag([1.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(NotPositiveDefinite):
        cond_spd(sym_diag([0.0, 1.0]))


def test_symmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SymMatrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0], [2.1, 1.0]])  # asymmetric, no symmetrize


def test_symmatrix_structural_symmetry_and_immutability():
    s = SymMatrix([[1.0, 2.0], [2.2, 1.0]], symmetrize=True)
    assert s.entry(0, 1) == s.entry(1, 0) == 2.1
    with pytest.raises(ValueError):
        s.mat[0, 0] = 5.0


def test_symmatrix_keeps_large_finite_entries():
    # Entries near the top of the float range must be stored as given, not
    # overflow to inf (or inf - inf = nan) while symmetrizing.
    assert SymMatrix([[1e308]]).mat.tolist() == [[1e308]]
    s = SymMatrix([[1e308, 0.0], [0.0, 1.0]], symmetrize=True)
    assert s.mat.tolist() == [[1e308, 0.0], [0.0, 1.0]]
    big = SymMatrix([[1e308, 1.5e308], [1.7e308, -1e308]], symmetrize=True)
    assert np.all(np.isfinite(big.mat)) and big.entry(0, 1) == big.entry(1, 0)


def test_symmatrix_symmetrize_is_the_exact_mean():
    # Away from overflow and the subnormal range the stored entries are the
    # correctly rounded means, signed zeros included.
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        assert np.array_equal(SymMatrix(a, symmetrize=True).mat, 0.5 * (a + a.T))
    assert np.signbit(SymMatrix([[-0.0, 0.0], [0.0, 1.0]]).mat[0, 0])


def _random_sym(rng: np.random.Generator, n: int) -> SymMatrix:
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return SymMatrix(a, symmetrize=True)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_reconstruction_and_orthogonality(order, seed):
    rng = np.random.default_rng(seed)
    s = _random_sym(rng, order)
    res = eig_sym(s)
    q, w = res.eigenvectors, res.eigenvalues
    fro = s.frobenius()
    assert np.linalg.norm(q @ np.diag(w) @ q.T - s.mat) <= 1e-10 * max(1.0, fro)
    assert np.linalg.norm(q.T @ q - np.eye(order)) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)


def test_recovers_constructed_spectrum():
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.sort(rng.uniform(-5.0, 5.0, size=n))
        s = SymMatrix(q @ np.diag(lam) @ q.T, symmetrize=True)
        assert_allclose(eig_sym(s).eigenvalues, lam, atol=1e-8)


def test_neg_semidef_agrees_with_cholesky_oracle():
    # Independent route: S <= 0 iff -S + eps*I admits a Cholesky factor for
    # every eps > 0; checked for eps in {1e-6, 1e-9} outside the tolerance
    # band around the boundary.
    rng = np.random.default_rng(123)

    def chol_ok(mat):
        try:
            np.linalg.cholesky(mat)
            return True
        except np.linalg.LinAlgError:
            return False

    for _ in range(200):
        n = int(rng.integers(1, 7))
        s = _random_sym(rng, n)
        if rng.uniform() < 0.5:  # bias some cases toward NSD
            s = SymMatrix(s.mat - (max_eigenvalue(s) + rng.uniform(0, 1)) * np.eye(n),
                          symmetrize=True)
        top = max_eigenvalue(s)
        for eps in (1e-6, 1e-9):
            if abs(top) <= 10.0 * eps:
                continue  # inside the band the two routes may disagree
            assert chol_ok(-s.mat + eps * np.eye(n)) == is_neg_semidef(s, 0.0)


def test_eig_deterministic():
    s = _random_sym(np.random.default_rng(5), 6)
    r1, r2 = eig_sym(s), eig_sym(s)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_batch_matches_scalar():
    rng = np.random.default_rng(11)
    mats = np.stack([_random_sym(rng, 4).mat for _ in range(10)])
    batched = eigvals_batch(mats)
    for i in range(10):
        single = eig_sym(SymMatrix(mats[i])).eigenvalues
        assert_allclose(batched[i], single, atol=1e-12)
