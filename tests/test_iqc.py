from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert.certifier import _weights
from ratecert.iqc import (
    WeightOutOfRange,
    _unit_trace_basis,
    augment,
    default_weights,
    free_entries,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from ratecert.model import FunctionClass

FC = FunctionClass(1.0, 10.0)
MID = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_sector_blocks():
    assert sector() == ()
    lmi = augment(10.0, (0.1, 0.2), 0)
    assert lmi.p.tolist() == [[[1.0]]]
    assert lmi.qh.shape == (0, 2, 2)
    assert lmi.g.shape == (1, 2, 2, 2)


def test_sector_multipliers_do_not_share_arrays():
    first = augment(10.0, (0.1,), 0)
    second = augment(10.0, (0.1,), 0)
    fields = ("a", "b", "p", "g", "q0", "qh")
    for name in fields:
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    first.q0[0, 0] = 99.0
    first.g[0, 0, 0, 0] = 99.0
    assert_allclose(quad_form(second, ()), [[-20.0, 11.0], [11.0, -2.0]], atol=0)
    assert_allclose(second.g[0, 0], [[1.0, -0.1], [-0.1, 0.01]], rtol=1e-15)


def test_sector_kappa_one_collapse():
    # Static map Psi = [[1, -1], [-1, 1]], so Q = Psi^T M Psi.
    psi = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(quad_form(augment(1.0, (1.0,), 0), ()), psi.T @ MID @ psi, atol=0)


def test_weighted_off_by_1_blocks():
    assert weighted_off_by_1(0.9, 0.81) == (0.81,)
    lmi = augment(10.0, (0.25,), 1)
    # Filter row: the tap takes u - L*y.
    assert_allclose(lmi.a, [[1.0, 0.0], [-10.0, 0.0]], atol=0)
    assert_allclose(lmi.b, [[-0.25, 1.0]], atol=0)
    assert_allclose(lmi.p, [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
                            [[0.0, 1.0], [1.0, 0.0]]], atol=0)
    # The weight enters only row 0 of [C D]: -1 against y, +1 against u.
    assert_allclose(lmi.qh, [[[0.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
                    atol=0)


def test_weighted_off_by_1_weight_range():
    with pytest.raises(WeightOutOfRange):
        weighted_off_by_1(0.5, 0.3)  # 0.3 > 0.25
    with pytest.raises(WeightOutOfRange):
        weighted_off_by_1(0.9, -0.1)
    with pytest.raises(WeightOutOfRange):
        weighted_off_by_1(-0.1, 0.0)
    weighted_off_by_1(0.9, 0.9 ** 2)  # boundary value admissible


def test_zames_falb_matches_off_by_1_at_order_one():
    assert zames_falb(0.9, [0.5]) == weighted_off_by_1(0.9, 0.5) == (0.5,)


def test_zames_falb_weight_conditions():
    # 0.405/0.81 + 0.328/0.6561 ~ 0.9999 <= 1: admissible.
    assert zames_falb(0.9, [0.405, 0.328]) == (0.405, 0.328)
    with pytest.raises(WeightOutOfRange):
        zames_falb(0.9, [0.9, 0.9])  # discounted sum > 1
    with pytest.raises(WeightOutOfRange):
        zames_falb(0.9, [1.5])  # box condition
    with pytest.raises(WeightOutOfRange):
        zames_falb(0.9, [])
    with pytest.raises(WeightOutOfRange):
        zames_falb(1.5, [0.1])


def test_default_weights():
    assert_allclose(default_weights(0.9, 1), [0.81], rtol=1e-15)
    assert_allclose(default_weights(0.9, 2), [0.405, 0.32805], rtol=1e-12)
    assert_allclose(default_weights(1.0, 2), [0.5, 0.5], atol=0)
    # Defaults always pass validation (discounted sum meets 1 with equality).
    for rho in (0.1, 0.5, 0.9, 0.9999, 1.0):
        for k in (1, 2, 3, 5):
            zames_falb(rho, default_weights(rho, k))
    # Above rate 1 no weights are admissible, the defaults included.
    for k in (1, 2, 3):
        with pytest.raises(WeightOutOfRange):
            _weights(1.2, k, None)


def test_augment_sector():
    lmi = augment(10.0, (0.1,), 0)
    # Gradient descent: x+ = x - alpha*u, y = x.
    assert_allclose(lmi.a, [[1.0]], atol=0)
    assert_allclose(lmi.b, [[-0.1]], atol=0)
    # P = 1: [a b]^T [a b] = [[1, -alpha], [-alpha, alpha^2]].
    assert_allclose(lmi.g[0, 0], [[1.0, -0.1], [-0.1, 0.01]], rtol=1e-15)


def test_augment_weighted_off_by_1():
    alphas = (0.25, 0.5)
    lmi = augment(10.0, alphas, 1)
    assert lmi.g.shape == (3, 2, 3, 3)
    a = np.array([[1.0, 0.0], [-10.0, 0.0]])
    for c, alpha in enumerate(alphas):
        ab = np.column_stack([a, [-alpha, 1.0]])
        for pm, g in zip(lmi.p, lmi.g[:, c]):
            assert np.array_equal(g, ab.T @ pm @ ab)
    # The step size enters only through the plant-state row.
    assert np.array_equal(lmi.b[0, 1:], lmi.b[1, 1:])


def test_quad_form_sector():
    assert_allclose(quad_form(augment(10.0, (0.1,), 0), ()),
                    [[-20.0, 11.0], [11.0, -2.0]], atol=0)
    assert_allclose(quad_form(augment(1.0, (1.0,), 0), ()),
                    [[-2.0, 2.0], [2.0, -2.0]], atol=0)


def test_quad_form_wob1_against_dense_product():
    h1 = 0.81
    got = quad_form(augment(10.0, (0.1,), 1), weighted_off_by_1(0.9, h1))
    # Independent dense product from the lemma blocks written out by hand.
    cd = np.array([[10.0, h1, -1.0], [-1.0, 0.0, 1.0]])
    expected = cd.T @ MID @ cd
    assert_allclose(got, expected, atol=0)
    assert np.array_equal(got, got.T)


def test_reduction_chain_exact():
    h1 = 0.3
    rho = 0.8
    alphas = (0.1,)
    q_w = quad_form(augment(10.0, alphas, 1), weighted_off_by_1(rho, h1))
    q_z = quad_form(augment(10.0, alphas, 3), zames_falb(rho, [h1, 0.0, 0.0]))
    # Coordinates: (plant, eta1, eta2, eta3, input); eta2, eta3 are inert.
    keep = [0, 1, 4]
    assert np.array_equal(q_z[np.ix_(keep, keep)], q_w)
    assert np.all(q_z[[2, 3], :] == 0.0) and np.all(q_z[:, [2, 3]] == 0.0)

    q_s = quad_form(augment(10.0, alphas, 0), sector())
    q_z0 = quad_form(augment(10.0, alphas, 2), zames_falb(rho, [0.0, 0.0]))
    assert np.array_equal(q_z0[np.ix_([0, 3], [0, 3])], q_s)
    q_w0 = quad_form(augment(10.0, alphas, 1), weighted_off_by_1(rho, 0.0))
    assert np.array_equal(q_w0[np.ix_([0, 2], [0, 2])], q_s)


def _exact(matrix):
    return [[Fraction(x) for x in row] for row in matrix.tolist()]


def _constraint_terms(lmi, h, ys, us):
    """z' M z along a signal pair of Fractions, starting at rest: the filter
    state runs on the filter rows of the data (a and b below the plant row),
    and each term is Q(h) at (y, filter state, u).  The arithmetic is exact:
    a quadratic form evaluated in floats cancels terms of order L * y^2."""
    quad = _exact(quad_form(lmi, h))
    rows = _exact(np.column_stack([lmi.a[1:], lmi.b[0, 1:]]))
    eta = [Fraction(0)] * len(h)
    terms = []
    for y, u in zip(ys, us):
        point = [y, *eta, u]
        terms.append(sum(pi * qij * pj for pi, row in zip(point, quad)
                         for qij, pj in zip(row, point)))
        eta = [sum(r * x for r, x in zip(row, point)) for row in rows]
    return terms


@settings(max_examples=100, deadline=None)
@given(
    qfrac=st.floats(0.0, 1.0),
    y=st.floats(-10.0, 10.0),
)
def test_pointwise_sector_property(qfrac, y):
    # For f(x) = q x^2 / 2 with q in [m, L]: z' M z = 2 (Ly - qy)(qy - my) >= 0,
    # exactly, with u = q y exact.
    m, L = Fraction(FC.m), Fraction(FC.L)
    q = Fraction(FC.m + qfrac * (FC.L - FC.m))
    y = Fraction(y)
    (val,) = _constraint_terms(augment(FC.L, (0.1,), 0), sector(), [y], [q * y])
    assert val == 2 * (L * y - q * y) * (q * y - m * y)
    assert val >= 0


@settings(max_examples=60, deadline=None)
@given(
    qfrac=st.floats(0.0, 1.0),
    rho=st.floats(0.3, 1.0),
    h1frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    length=st.integers(1, 50),
)
def test_rho_hard_property_weighted_off_by_1(qfrac, rho, h1frac, seed, length):
    # Discounted partial sums of z' M z stay nonnegative along any bounded
    # signal for a quadratic in the class, for any admissible weight.
    q = Fraction(FC.m + qfrac * (FC.L - FC.m))
    h = weighted_off_by_1(rho, h1frac * rho * rho)
    rng = np.random.default_rng(seed)
    ys = [Fraction(y) for y in rng.uniform(-1.0, 1.0, size=length)]
    us = [q * y for y in ys]
    total = 0.0
    scale = 1.0
    for k, val in enumerate(_constraint_terms(augment(FC.L, (0.1,), 1), h, ys, us)):
        term = rho ** (-2 * k) * float(val)
        total += term
        scale = max(scale, abs(term))
        assert total >= -1e-9 * scale


@pytest.mark.parametrize("s", range(1, 8))
def test_basis_and_coordinates_share_one_layout(s):
    # The layout written out: the diagonal without its last entry, then the
    # upper triangle row by row, and the basis matrix of each entry in turn.
    pairs = [(i, i) for i in range(s - 1)] + [(i, j) for i in range(s) for j in range(i + 1, s)]
    p = np.arange(s * s, dtype=float).reshape(s, s)
    assert p.take(free_entries(s)).tolist() == [p[i, j] for i, j in pairs]
    assert not free_entries(s).flags.writeable
    basis = _unit_trace_basis(s)
    assert basis.shape == (1 + len(pairs), s, s)
    p0 = np.zeros((s, s))
    p0[-1, -1] = 1.0
    assert np.array_equal(basis[0], p0)
    for n, (i, j) in enumerate(pairs, start=1):
        ref = np.zeros((s, s))
        ref[i, j] = ref[j, i] = 1.0
        if i == j:
            ref -= p0
        assert np.array_equal(basis[n], ref), (n, i, j)


def _reference_g_qh(lmi, k):
    """The blocks' P-part and the taps' forms, one basis matrix and step size
    at a time: ``augment``'s batched products must match it bit for bit."""
    s = k + 1
    g = np.zeros_like(lmi.g)
    for c, bc in enumerate(lmi.b):
        for i, pm in enumerate(lmi.p):
            pb = pm @ bc
            g[i, c, :s, :s] = lmi.a.T @ (pm @ lmi.a)
            g[i, c, :s, s] = g[i, c, s, :s] = lmi.a.T @ pb
            g[i, c, s, s] = bc @ pb
    qh = np.zeros((k, s + 1, s + 1))
    for j in range(k):
        qh[j, j + 1, 0] = qh[j, 0, j + 1] = -1.0
        qh[j, j + 1, s] = qh[j, s, j + 1] = 1.0
    return g, qh


@pytest.mark.parametrize("k", range(7))
def test_batched_augment_and_quad_form_match_the_loops(k):
    rng = np.random.default_rng(k)
    for _ in range(100):
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        alphas = tuple(10.0 ** rng.uniform(-8.0, 1.0, size=rng.integers(1, 4)))
        lmi = augment(kappa, alphas, k)
        g, qh = _reference_g_qh(lmi, k)
        assert np.array_equal(lmi.g, g) and np.array_equal(np.signbit(lmi.g), np.signbit(g))
        assert np.array_equal(lmi.qh, qh)
        h = tuple(rng.uniform(0.0, 1.0, size=k))
        assert np.array_equal(quad_form(lmi, h), lmi.q0 + np.tensordot(h, lmi.qh, axes=1))
