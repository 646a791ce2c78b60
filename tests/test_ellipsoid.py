import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecert.ellipsoid import (
    EllipsoidOptions,
    MatrixConstraint,
    SolverBudgetExceeded,
    _first_violated_cut,
    _group_runs,
    ellipsoid_feasibility,
)


def _scalar_constraint(coeff: float, const: float, bound: float, v_dim: int, idx: int = 0):
    """coeff * v[idx] + const <= bound, as a 1x1 matrix block."""
    coeffs = np.zeros((v_dim, 1, 1))
    coeffs[idx, 0, 0] = coeff
    return MatrixConstraint(s0=np.array([[const]]), coeffs=coeffs, bound=bound)


def test_one_dimensional_toy():
    # v <= -0.1 inside a ball of radius 10.
    point = ellipsoid_feasibility(
        [_scalar_constraint(1.0, 0.0, -0.1, 1)], 1,
        EllipsoidOptions(radius=10.0),
    )
    assert point is not None and point[0] <= -0.1


def test_constant_infeasible_constraint():
    assert ellipsoid_feasibility([_scalar_constraint(0.0, 1.0, 0.0, 1)], 1) is None


def test_conflicting_halflines_infeasible():
    cons = [
        _scalar_constraint(1.0, 0.0, -1.0, 1),   # v <= -1
        _scalar_constraint(-1.0, 0.0, -1.0, 1),  # v >= 1
    ]
    assert ellipsoid_feasibility(cons, 1) is None


def test_two_dimensional_feasible():
    # diag(v1, v2) <= -I.
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    con = MatrixConstraint(s0=np.zeros((2, 2)), coeffs=coeffs, bound=-1.0)
    point = ellipsoid_feasibility([con], 2)
    assert point is not None
    assert point[0] <= -1.0 and point[1] <= -1.0


def test_exact_interval_arithmetic_finds_single_point_set():
    # v <= 0 and v >= 0: only the origin.  The 1-D specialization intersects
    # intervals exactly, so the boundary point itself is reachable.
    cons = [
        _scalar_constraint(1.0, 0.0, 0.0, 1),
        _scalar_constraint(-1.0, 0.0, 0.0, 1),
    ]
    point = ellipsoid_feasibility(cons, 1)
    assert point is not None and abs(point[0]) <= 1e-12


def test_thin_empty_slab_certified_infeasible():
    # v1 <= 0 and v1 >= 1e-12: empty, but the gap is far below r_min, so
    # only the volume certificate (or a full-depth cut) can decide.
    cons = [
        _scalar_constraint(1.0, 0.0, 0.0, 2, idx=0),
        _scalar_constraint(-1.0, 0.0, -1e-12, 2, idx=0),
    ]
    assert ellipsoid_feasibility(cons, 2) is None


def test_budget_exceeded_is_distinct_from_infeasible():
    cons = [
        _scalar_constraint(1.0, 0.0, 0.0, 2, idx=0),
        _scalar_constraint(-1.0, 0.0, -1e-12, 2, idx=0),
    ]
    with pytest.raises(SolverBudgetExceeded):
        ellipsoid_feasibility(cons, 2, EllipsoidOptions(max_iters=3))


def test_returned_point_satisfies_matrix_constraint_strictly():
    # [[v1, 0.3], [0.3, v2]] <= -0.5 I needs the off-diagonal absorbed.
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    s0 = np.array([[0.0, 0.3], [0.3, 0.0]])
    con = MatrixConstraint(s0=s0, coeffs=coeffs, bound=-0.5)
    point = ellipsoid_feasibility([con], 2)
    assert point is not None
    block = s0 + np.diag(point)
    assert np.linalg.eigvalsh(block).max() <= -0.5


def test_input_validation():
    with pytest.raises(ValueError):
        ellipsoid_feasibility([], 0)
    with pytest.raises(ValueError):
        ellipsoid_feasibility(
            [_scalar_constraint(1.0, 0.0, 0.0, 2)], 1
        )  # coeff count mismatch
    with pytest.raises(ValueError):
        ellipsoid_feasibility(
            [_scalar_constraint(1.0, 0.0, 0.0, 1)], 1,
            EllipsoidOptions(radius=1e-9),  # r_min >= radius
        )


def _lam_max(con: MatrixConstraint, v: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(con.s0 + np.tensordot(v, con.coeffs, axes=1))[-1])


def _random_affine(rng: np.random.Generator, order: int, v_dim: int, centre, margin):
    """Random affine family whose value at ``centre`` exceeds its bound by
    ``margin`` (violated when positive)."""
    mats = rng.normal(size=(v_dim + 1, order, order))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    con = MatrixConstraint(s0=mats[0], coeffs=mats[1:], bound=0.0)
    return dataclasses.replace(con, bound=_lam_max(con, centre) - margin)


@settings(max_examples=60, deadline=None)
@given(v_dim=st.integers(2, 6), first_violated=st.booleans(), seed=st.integers(0, 10_000))
def test_cut_depth_and_validity_on_random_affine_constraints(v_dim, first_violated, seed):
    # The cut must be exact at the centre (depth = lambda_max - bound) and
    # valid everywhere: q^T S(v) q <= lambda_max(S(v)) for the unit q it was
    # built from, so every feasible v lies on the kept side.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    sign = 1.0 if first_violated else -1.0
    cons = [
        _random_affine(rng, 3, v_dim, centre, sign * rng.uniform(0.05, 1.0)),
        _random_affine(rng, 4, v_dim, centre, rng.uniform(0.05, 1.0)),
    ]
    con = cons[0] if first_violated else cons[1]
    cut = _first_violated_cut(_group_runs(cons), centre)
    assert cut is not None
    a, depth = cut
    assert depth == pytest.approx(_lam_max(con, centre) - con.bound, rel=1e-9)
    for _ in range(50):
        v = centre + rng.normal(scale=3.0, size=v_dim)
        assert a @ v - (a @ centre - depth) <= _lam_max(con, v) - con.bound + 1e-9
