import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert.iqc import (
    WeightOutOfRange,
    augment,
    default_weights,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from ratecert.model import FunctionClass, gradient_descent_plant

FC = FunctionClass(1.0, 10.0)
MID = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_sector_blocks():
    s = sector(FC)
    assert s.filter_order == 0
    assert_allclose(s.psi_dy, [10.0, -1.0], atol=0)
    assert_allclose(s.psi_du, [-1.0, 1.0], atol=0)
    assert_allclose(s.mid.mat, MID, atol=0)


def test_sector_multipliers_do_not_share_arrays():
    first = sector(FunctionClass(1.0, 10.0))
    first.psi_dy[0] = 99.0
    first.psi_du[1] = 99.0
    second = sector(FunctionClass(1.0, 10.0))
    assert_allclose(second.psi_dy, [10.0, -1.0], atol=0)
    assert_allclose(second.psi_du, [-1.0, 1.0], atol=0)


def test_sector_kappa_one_collapse():
    s = sector(FunctionClass(1.0, 1.0))
    # Static map Psi = [[1, -1], [-1, 1]].
    assert_allclose(np.column_stack([s.psi_dy, s.psi_du]),
                    [[1.0, -1.0], [-1.0, 1.0]], atol=0)


def test_weighted_off_by_1_blocks():
    w = weighted_off_by_1(FC, 0.9, 0.81)
    assert w.filter_order == 1
    assert_allclose(w.psi_a, [[0.0]], atol=0)
    assert_allclose(w.psi_by, [-10.0], atol=0)
    assert_allclose(w.psi_bu, [1.0], atol=0)
    assert_allclose(w.psi_c, [[0.81], [0.0]], atol=0)
    assert_allclose(w.psi_dy, [10.0, -1.0], atol=0)
    assert_allclose(w.psi_du, [-1.0, 1.0], atol=0)
    assert_allclose(w.mid.mat, MID, atol=0)


def test_weighted_off_by_1_weight_range():
    with pytest.raises(WeightOutOfRange):
        weighted_off_by_1(FC, 0.5, 0.3)  # 0.3 > 0.25
    with pytest.raises(WeightOutOfRange):
        weighted_off_by_1(FC, 0.9, -0.1)
    weighted_off_by_1(FC, 0.9, 0.9 ** 2)  # boundary value admissible


def test_zames_falb_matches_off_by_1_at_order_one():
    w = weighted_off_by_1(FC, 0.9, 0.5)
    z = zames_falb(FC, 0.9, [0.5])
    for attr in ("psi_a", "psi_by", "psi_bu", "psi_c", "psi_dy", "psi_du"):
        assert_allclose(getattr(z, attr), getattr(w, attr), atol=0)


def test_zames_falb_weight_conditions():
    # 0.405/0.81 + 0.328/0.6561 ~ 0.9999 <= 1: admissible.
    zames_falb(FC, 0.9, [0.405, 0.328])
    with pytest.raises(WeightOutOfRange):
        zames_falb(FC, 0.9, [0.9, 0.9])  # discounted sum > 1
    with pytest.raises(WeightOutOfRange):
        zames_falb(FC, 0.9, [1.5])  # box condition
    with pytest.raises(WeightOutOfRange):
        zames_falb(FC, 0.9, [])


def test_default_weights():
    assert_allclose(default_weights("zf", 0.9, 1), [0.81], rtol=1e-15)
    assert_allclose(default_weights("zf", 0.9, 2), [0.405, 0.32805], rtol=1e-12)
    assert_allclose(default_weights("zf", 1.0, 2), [0.5, 0.5], atol=0)
    # Defaults always pass validation (discounted sum meets 1 with equality).
    for rho in (0.1, 0.5, 0.9, 0.9999, 1.0):
        for k in (1, 2, 3, 5):
            zames_falb(FC, rho, default_weights("zf", rho, k))
    with pytest.raises(ValueError):
        default_weights("zf", 1.2, 1)
    with pytest.raises(ValueError):
        default_weights("zf", 0.9, 0)


def test_augment_sector():
    aug = augment(gradient_descent_plant(), sector(FC))
    assert aug.state_dim == 1
    assert_allclose(aug.a, [[1.0]], atol=0)
    assert_allclose(aug.b(0.1), [-0.1], atol=0)
    assert_allclose(aug.c, [[10.0], [-1.0]], atol=0)
    assert_allclose(aug.d, [-1.0, 1.0], atol=0)


def test_augment_weighted_off_by_1():
    aug = augment(gradient_descent_plant(), weighted_off_by_1(FC, 0.9, 0.81))
    assert aug.state_dim == 2
    assert_allclose(aug.a, [[1.0, 0.0], [-10.0, 0.0]], atol=0)
    assert_allclose(aug.b(0.25), [-0.25, 1.0], atol=0)
    assert_allclose(aug.c, [[10.0, 0.81], [-1.0, 0.0]], atol=0)
    assert_allclose(aug.d, [-1.0, 1.0], atol=0)
    # The step size enters only through the plant-state row.
    assert aug.b1[1:] == pytest.approx(0.0)


def test_quad_form_sector():
    aug = augment(gradient_descent_plant(), sector(FC))
    q = quad_form(aug, sector(FC))
    assert_allclose(q.mat, [[-20.0, 11.0], [11.0, -2.0]], atol=0)

    fc1 = FunctionClass(1.0, 1.0)
    aug1 = augment(gradient_descent_plant(), sector(fc1))
    assert_allclose(quad_form(aug1, sector(fc1)).mat,
                    [[-2.0, 2.0], [2.0, -2.0]], atol=0)


def test_quad_form_wob1_against_dense_product():
    h1 = 0.81
    mult = weighted_off_by_1(FC, 0.9, h1)
    aug = augment(gradient_descent_plant(), mult)
    got = quad_form(aug, mult).mat
    # Independent dense product from the lemma blocks written out by hand.
    cd = np.array([[10.0, h1, -1.0], [-1.0, 0.0, 1.0]])
    expected = cd.T @ MID @ cd
    assert_allclose(got, expected, atol=0)
    assert np.array_equal(got, got.T)


def test_reduction_chain_exact():
    h1 = 0.3
    rho = 0.8
    q_w = quad_form(
        augment(gradient_descent_plant(), weighted_off_by_1(FC, rho, h1)),
        weighted_off_by_1(FC, rho, h1),
    ).mat
    z = zames_falb(FC, rho, [h1, 0.0, 0.0])
    q_z = quad_form(augment(gradient_descent_plant(), z), z).mat
    # Coordinates: (plant, eta1, eta2, eta3, input); eta2, eta3 are inert.
    keep = [0, 1, 4]
    assert np.array_equal(q_z[np.ix_(keep, keep)], q_w)
    assert np.all(q_z[[2, 3], :] == 0.0) and np.all(q_z[:, [2, 3]] == 0.0)

    s = sector(FC)
    q_s = quad_form(augment(gradient_descent_plant(), s), s).mat
    z0 = zames_falb(FC, rho, [0.0, 0.0])
    q_z0 = quad_form(augment(gradient_descent_plant(), z0), z0).mat
    assert np.array_equal(q_z0[np.ix_([0, 3], [0, 3])], q_s)
    w0 = weighted_off_by_1(FC, rho, 0.0)
    q_w0 = quad_form(augment(gradient_descent_plant(), w0), w0).mat
    assert np.array_equal(q_w0[np.ix_([0, 2], [0, 2])], q_s)


def _filter_output(mult, ys, us):
    """Run the multiplier filter over a signal pair, starting at rest."""
    k = mult.filter_order
    eta = np.zeros(k)
    zs = []
    for y, u in zip(ys, us):
        zs.append(mult.psi_c @ eta + mult.psi_dy * y + mult.psi_du * u)
        eta = mult.psi_a @ eta + mult.psi_by * y + mult.psi_bu * u
    return zs


@settings(max_examples=100, deadline=None)
@given(
    qfrac=st.floats(0.0, 1.0),
    y=st.floats(-10.0, 10.0),
)
def test_pointwise_sector_property(qfrac, y):
    # For f(x) = q x^2 / 2 with q in [m, L]: z' M z = 2 (Ly - qy)(qy - my) >= 0.
    m, L = FC.m, FC.L
    q = m + qfrac * (L - m)
    u = q * y
    (z,) = _filter_output(sector(FC), [y], [u])
    val = z @ MID @ z
    assert val == pytest.approx(2.0 * (L * y - q * y) * (q * y - m * y), rel=1e-12, abs=1e-12)
    assert val >= -1e-12


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
    m, L = FC.m, FC.L
    q = m + qfrac * (L - m)
    h1 = h1frac * rho * rho
    mult = weighted_off_by_1(FC, rho, h1)
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.0, 1.0, size=length)
    us = q * ys
    zs = _filter_output(mult, ys, us)
    total = 0.0
    scale = 1.0
    for k, z in enumerate(zs):
        term = rho ** (-2 * k) * (z @ MID @ z)
        total += term
        scale = max(scale, abs(term))
        assert total >= -1e-9 * scale
