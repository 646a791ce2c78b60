import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecert import ellipsoid
from ratecert.certifier import certify
from ratecert.ellipsoid import (
    EllipsoidOptions,
    MatrixConstraint,
    SolverBudgetExceeded,
    _first_violated_cut,
    _group_runs,
    ellipsoid_feasibility,
)
from ratecert.model import FunctionClass, interval_from_c


def _scalar_constraint(coeff: float, const: float, bound: float, v_dim: int, idx: int = 0):
    """coeff * v[idx] + const <= bound, as a 1x1 matrix block."""
    coeffs = np.zeros((v_dim, 1, 1))
    coeffs[idx, 0, 0] = coeff
    return MatrixConstraint(s0=np.array([[const]]), coeffs=coeffs, bound=bound)


def test_one_dimensional_toy():
    # v1 <= -0.1 inside a ball of radius 10; v2 appears in no constraint.
    point = ellipsoid_feasibility(
        [_scalar_constraint(1.0, 0.0, -0.1, 2)], 2,
        EllipsoidOptions(radius=10.0),
    )
    assert point is not None and point[0] <= -0.1


def test_constant_infeasible_constraint():
    assert ellipsoid_feasibility([_scalar_constraint(0.0, 1.0, 0.0, 2)], 2) is None


def test_conflicting_halflines_infeasible():
    cons = [
        _scalar_constraint(1.0, 0.0, -1.0, 2),   # v1 <= -1
        _scalar_constraint(-1.0, 0.0, -1.0, 2),  # v1 >= 1
    ]
    assert ellipsoid_feasibility(cons, 2) is None


def test_two_dimensional_feasible():
    # diag(v1, v2) <= -I.
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    con = MatrixConstraint(s0=np.zeros((2, 2)), coeffs=coeffs, bound=-1.0)
    point = ellipsoid_feasibility([con], 2)
    assert point is not None
    assert point[0] <= -1.0 and point[1] <= -1.0


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
    with pytest.raises(ValueError, match="two decision variables"):
        # The deep-cut update divides by v_dim^2 - 1.
        ellipsoid_feasibility([_scalar_constraint(1.0, 0.0, 0.0, 1)], 1)
    with pytest.raises(ValueError):
        ellipsoid_feasibility(
            [_scalar_constraint(1.0, 0.0, 0.0, 3)], 2
        )  # coeff count mismatch
    with pytest.raises(ValueError):
        ellipsoid_feasibility(
            [_scalar_constraint(1.0, 0.0, 0.0, 2)], 2,
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
@given(v_dim=st.integers(2, 6), violated=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_cut_depth_and_validity_on_random_affine_constraints(v_dim, violated, seed):
    # The cut must be exact at the centre (depth = lambda_max - bound) and
    # valid everywhere: q^T S(v) q <= lambda_max(S(v)) for the unit q it was
    # built from, so every feasible v lies on the kept side.  Constraints of
    # orders 1, 3 and 4 in turn: those from index ``violated`` on are
    # violated at the centre, those before it hold.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    cons = [
        _random_affine(rng, order, v_dim, centre,
                       (1.0 if k >= violated else -1.0) * rng.uniform(0.05, 1.0))
        for k, order in enumerate((1, 3, 4))
    ]
    con = cons[violated]
    cut = _first_violated_cut(_group_runs(cons), centre)
    assert cut is not None
    a, depth = cut
    assert depth == pytest.approx(_lam_max(con, centre) - con.bound, rel=1e-9)
    for _ in range(50):
        v = centre + rng.normal(scale=3.0, size=v_dim)
        assert a @ v - (a @ centre - depth) <= _lam_max(con, v) - con.bound + 1e-9


def _reference_scan(runs, centre):
    """Reference scan that decomposes every block, order 1 included: one
    eigh per run, the first violated block cut along its top eigenvector."""
    for run in runs:
        blocks = run.evaluate(centre).reshape(run.batch, run.n, run.n)
        vals, vecs = np.linalg.eigh(blocks)
        violated = np.nonzero(vals[:, -1] > np.array(run.bounds))[0]
        if violated.size == 0:
            continue
        i = int(violated[0])
        q = vecs[i, :, -1]
        a = np.einsum("i,dij,j->d", q, run.coeffs[:, i], q)
        g0 = float(q @ run.s0[i] @ q)
        depth = float(a @ centre) + g0 - run.bounds[i]
        if depth <= 0.0:
            depth = 0.0
        return a, depth
    return None


@settings(max_examples=150, deadline=None)
@given(
    v_dim=st.integers(2, 6),
    leading=st.integers(0, 3),
    orders=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_scan_matches_eigh_every_block_reference(v_dim, leading, orders, seed):
    # ``leading`` scalar constraints come first, then random orders 1-4, so
    # scalar runs lead and sit between matrix runs.  Each constraint is
    # violated at the centre with probability 0.3; some scalar coefficients
    # are -0.0.  The cut (or None) must equal the reference bit for bit.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    cons = []
    for order in [1] * leading + orders:
        margin = (1.0 if rng.random() < 0.3 else -1.0) * rng.uniform(0.0, 1.0)
        con = _random_affine(rng, order, v_dim, centre, margin)
        if order == 1 and rng.random() < 0.5:
            con.coeffs[rng.random(v_dim) < 0.5] = -0.0
        cons.append(con)
    runs = _group_runs(cons)
    got, want = _first_violated_cut(runs, centre), _reference_scan(runs, centre)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tobytes() == want[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def test_scalar_constraints_skip_the_eigen_solve(monkeypatch):
    # wob1 at (kappa 10, c 1.2): lambda >= 0 is decided without eigh, so the
    # eigen batches per cut fall from about 2.5 to about 1.5.
    shapes, cuts = [], []
    eigh, scan = ellipsoid._jacobi_batch, ellipsoid._first_violated_cut

    def counting_eigh(blocks):
        shapes.append(blocks.shape)
        return eigh(blocks)

    def counting_scan(runs, centre):
        cuts.append(1)
        return scan(runs, centre)

    monkeypatch.setattr(ellipsoid, "_jacobi_batch", counting_eigh)
    monkeypatch.setattr(ellipsoid, "_first_violated_cut", counting_scan)
    fc = FunctionClass(1.0, 10.0)
    assert certify(fc, interval_from_c(fc, 1.2), iqc_kind="wob1").feasible
    assert shapes and all(shape[-1] >= 2 for shape in shapes)
    assert len(shapes) < 2 * len(cuts)
