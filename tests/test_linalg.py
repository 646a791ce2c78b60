import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert.certifier import (
    NotPositiveDefinite,
    cond_spd,
    eig_sym,
    max_eigenvalue,
)


def test_eig_diagonal():
    vals, _ = eig_sym(np.diag([2.0, 3.0]))
    assert_allclose(vals, [2.0, 3.0], atol=0)


def test_eig_symmetric_swap():
    vals, _ = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eig_hand_computed_2x2():
    # Characteristic polynomial gives exactly {-0.02, 0}.
    vals, _ = eig_sym(np.array([[-0.01, 0.01], [0.01, -0.01]]))
    assert_allclose(vals, [-0.02, 0.0], atol=1e-14)


def test_max_eigenvalue_examples():
    assert max_eigenvalue(np.diag([-1.0, -2.0])) == pytest.approx(-1.0, abs=1e-14)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert max_eigenvalue(swap) == pytest.approx(1.0)
    singular = np.array([[-0.01, 0.01], [0.01, -0.01]])
    assert max_eigenvalue(singular) == pytest.approx(0.0, abs=1e-14)
    # Over a stack: the largest eigenvalue of any matrix in it.
    assert max_eigenvalue(np.stack([np.diag([-1.0, -2.0]), singular])) == max_eigenvalue(
        singular)


def test_cond_spd_examples():
    for n in range(1, 6):
        assert cond_spd(np.eye(n)) == pytest.approx(1.0, abs=1e-14)
    assert cond_spd(np.diag([1.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(NotPositiveDefinite):
        cond_spd(np.diag([0.0, 1.0]))


def _random_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return 0.5 * a + 0.5 * a.T


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_reconstruction_and_orthogonality(order, seed):
    rng = np.random.default_rng(seed)
    s = _random_sym(rng, order)
    w, q = eig_sym(s)
    fro = np.linalg.norm(s)
    assert np.linalg.norm(q @ np.diag(w) @ q.T - s) <= 1e-10 * max(1.0, fro)
    assert np.linalg.norm(q.T @ q - np.eye(order)) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)


def test_recovers_constructed_spectrum():
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.sort(rng.uniform(-5.0, 5.0, size=n))
        s = q @ np.diag(lam) @ q.T
        assert_allclose(eig_sym(0.5 * s + 0.5 * s.T)[0], lam, atol=1e-8)


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
            s = s - (max_eigenvalue(s) + rng.uniform(0, 1)) * np.eye(n)
        top = max_eigenvalue(s)
        for eps in (1e-6, 1e-9):
            if abs(top) <= 10.0 * eps:
                continue  # inside the band the two routes may disagree
            assert chol_ok(-s + eps * np.eye(n)) == (max_eigenvalue(s) <= 0.0)


def test_eig_deterministic():
    s = _random_sym(np.random.default_rng(5), 6)
    (w1, q1), (w2, q2) = eig_sym(s), eig_sym(s)
    assert np.array_equal(w1, w2)
    assert np.array_equal(q1, q2)

