import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecert import ellipsoid
from ratecert.certifier import certify
from ratecert.ellipsoid import (
    SolverBudgetExceeded,
    _first_violated_cut,
    _prepare,
    ellipsoid_feasibility,
)
from ratecert.model import FunctionClass, interval_from_c


def _scalars(*rows):
    """The scalar constraints a . v + const <= bound, one per row
    (a, const, bound), as one run of order 1."""
    a, const, bounds = zip(*rows)
    coeffs = np.array(a, dtype=float).T.reshape(-1, len(rows), 1, 1)
    return np.reshape(const, (-1, 1, 1)).astype(float), np.ascontiguousarray(coeffs), bounds


def _block(s0, coeffs, bound):
    """The block s0 + sum_i v_i coeffs[i] <= bound, as a run of one."""
    return s0[None], np.ascontiguousarray(coeffs[:, None]), (bound,)


# v1 <= 0 and v1 >= 1e-12: empty, but the gap is far below the 1e-7 ball,
# so only the volume certificate (or a full-depth cut) can decide.
THIN_SLAB = _scalars(([1.0, 0.0], 0.0, 0.0), ([-1.0, 0.0], 0.0, -1e-12))


def test_one_dimensional_toy():
    # v1 <= -0.1; v2 appears in no constraint.
    point = ellipsoid_feasibility([_scalars(([1.0, 0.0], 0.0, -0.1))])
    assert point is not None and point[0] <= -0.1


def test_constant_infeasible_constraint():
    assert ellipsoid_feasibility([_scalars(([0.0, 0.0], 1.0, 0.0))]) is None


def test_conflicting_halflines_infeasible():
    # v1 <= -1 and v1 >= 1, as one run and as two.
    below, above = ([1.0, 0.0], 0.0, -1.0), ([-1.0, 0.0], 0.0, -1.0)
    assert ellipsoid_feasibility([_scalars(below, above)]) is None
    assert ellipsoid_feasibility([_scalars(below), _scalars(above)]) is None


def test_two_dimensional_feasible():
    # diag(v1, v2) <= -I.
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    point = ellipsoid_feasibility([_block(np.zeros((2, 2)), coeffs, -1.0)])
    assert point is not None
    assert point[0] <= -1.0 and point[1] <= -1.0


def test_thin_empty_slab_certified_infeasible():
    assert ellipsoid_feasibility([THIN_SLAB]) is None


def test_budget_exceeded_is_distinct_from_infeasible():
    with pytest.raises(SolverBudgetExceeded):
        ellipsoid_feasibility([THIN_SLAB], max_iters=3)


def test_returned_point_satisfies_matrix_constraint_strictly():
    # [[v1, 0.3], [0.3, v2]] <= -0.5 I needs the off-diagonal absorbed.
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, 1] = 1.0
    s0 = np.array([[0.0, 0.3], [0.3, 0.0]])
    point = ellipsoid_feasibility([_block(s0, coeffs, -0.5)])
    assert point is not None
    block = s0 + np.diag(point)
    assert np.linalg.eigvalsh(block).max() <= -0.5


def test_input_validation():
    with pytest.raises(ValueError):
        ellipsoid_feasibility([])
    with pytest.raises(ValueError, match="two decision variables"):
        # The deep-cut update divides by v_dim^2 - 1.
        ellipsoid_feasibility([_scalars(([1.0], 0.0, 0.0))])
    with pytest.raises(ValueError, match="number of decision variables"):
        ellipsoid_feasibility(
            [_scalars(([1.0, 0.0], 0.0, 0.0)), _scalars(([1.0, 0.0, 0.0], 0.0, 0.0))]
        )


_NAN = float("nan")


@pytest.mark.parametrize("runs", [
    [_scalars(([1.0, 0.0], _NAN, 0.0))],
    [_scalars(([1.0, 0.0], 0.0, _NAN))],
    [_scalars(([_NAN, 0.0], 0.0, 0.0))],
    [_scalars(([1.0, 0.0], 0.0, 0.0)), _scalars(([0.0, 1.0], 0.0, float("-inf")))],
    [_block(np.full((2, 2), _NAN), np.zeros((2, 2, 2)), -1.0)],
    [_block(np.zeros((2, 2)), np.full((2, 2, 2), np.inf), -1.0)],
    [_block(np.zeros((2, 2)), np.zeros((2, 2, 2)), _NAN)],
], ids=["nan-scalar", "nan-scalar-bound", "nan-scalar-coeff", "inf-bound-second-run",
        "nan-block", "inf-block-coeffs", "nan-block-bound"])
def test_non_finite_constraints_are_rejected(runs):
    # A NaN scalar constraint or bound was read as satisfied (the first
    # case returned [0, 0]), while a NaN block raised LinAlgError.
    with pytest.raises(ValueError, match="not finite"):
        ellipsoid_feasibility(runs)


_HALF_LINE = _scalars(([1.0, 0.0], 0.0, -0.1))


@pytest.mark.parametrize("start", [
    (np.zeros(3), np.eye(3)),
    (np.zeros(2), np.eye(3)),
    (np.array([_NAN, 0.0]), np.eye(2)),
    (np.zeros(2), np.array([[1.0, np.inf], [np.inf, 1.0]])),
    (np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])),
    (np.zeros(2), np.diag([1.0, 0.0])),
    (np.zeros(2), -np.eye(2)),
], ids=["center-too-long", "shape-too-large", "nan-center", "inf-shape", "not-symmetric",
        "singular", "negative-definite"])
def test_malformed_start_is_rejected(start):
    with pytest.raises(ValueError, match="start"):
        ellipsoid_feasibility([_HALF_LINE], start=start)


def test_solve_from_a_start_ellipsoid():
    # A start that holds the feasible set within the ball reaches the
    # ball's verdicts, and is copied, not written to.
    center, shape = np.array([-1.0, 0.0]), 4.0 * np.eye(2)
    center.setflags(write=False)
    shape.setflags(write=False)
    point = ellipsoid_feasibility([_scalars(([1.0, 0.0], 0.0, -0.1)),
                                   _scalars(([-1.0, 0.0], 0.0, 1.5),
                                            ([0.0, 1.0], 0.0, 1.0),
                                            ([0.0, -1.0], 0.0, 1.0))], start=(center, shape))
    assert point is not None and -1.5 <= point[0] <= -0.1 and abs(point[1]) <= 1.0
    assert ellipsoid_feasibility([THIN_SLAB], start=(np.zeros(2), np.eye(2))) is None


@settings(max_examples=100, deadline=None)
@given(order=st.integers(2, 5), batch=st.integers(1, 3), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 10_000))
def test_eigen_batch_is_numpy_eigh_bit_for_bit(order, batch, scale, seed):
    mats = scale * np.random.default_rng(seed).normal(size=(batch, order, order))
    blocks = mats + mats.swapaxes(-1, -2)
    vals, vecs = ellipsoid._jacobi_batch(blocks)
    want_vals, want_vecs = np.linalg.eigh(blocks)
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()
    assert vals.shape == want_vals.shape and vecs.shape == want_vecs.shape


def _with(blocks, index, value):
    blocks = blocks.copy()
    blocks[index] = value
    return blocks


_EYES = np.stack([np.eye(3), 2.0 * np.eye(3)])


@pytest.mark.parametrize("blocks", [
    # np.linalg.eigh returns diag(1, nan, 1)'s top eigenvalue as 1.0.
    _with(_EYES, (0, 1, 1), np.nan),
    _with(_EYES, (1, 2, 0), np.nan),
    np.full((2, 3, 3), np.nan),
    _with(_EYES, (1, 1, 1), np.inf),
    _with(_EYES, (0, 2, 0), -np.inf),
], ids=["nan-diagonal", "nan-lower", "all-nan", "inf-diagonal", "inf-lower"])
def test_eigen_batch_rejects_non_finite_blocks(blocks):
    with pytest.raises(np.linalg.LinAlgError):
        ellipsoid._jacobi_batch(blocks)


def _lam_max(s0, coeffs, v):
    """Largest eigenvalue of each block s0[b] + sum_i v_i coeffs[i, b]."""
    return np.linalg.eigvalsh(s0 + np.tensordot(v, coeffs, axes=1))[..., -1]


def _random_run(rng, order, batch, v_dim, centre, margins):
    """Random run of ``batch`` affine blocks whose values at ``centre``
    exceed their bounds by ``margins`` (violated where positive)."""
    mats = rng.normal(size=(v_dim + 1, batch, order, order))
    mats = 0.5 * (mats + mats.swapaxes(-1, -2))
    s0, coeffs = mats[0], np.ascontiguousarray(mats[1:])
    return s0, coeffs, tuple((_lam_max(s0, coeffs, centre) - margins).tolist())


@settings(max_examples=60, deadline=None)
@given(v_dim=st.integers(2, 6), violated=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_cut_depth_and_validity_on_random_affine_constraints(v_dim, violated, seed):
    # The cut must be exact at the centre (depth = lambda_max - bound) and
    # valid everywhere: q^T S(v) q <= lambda_max(S(v)) for the unit q it was
    # built from, so every feasible v lies on the kept side.  Runs of one
    # block of orders 1, 3 and 4 in turn: those from index ``violated`` on
    # are violated at the centre, those before it hold.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    runs = [
        _random_run(rng, order, 1, v_dim, centre,
                    (1.0 if k >= violated else -1.0) * rng.uniform(0.05, 1.0))
        for k, order in enumerate((1, 3, 4))
    ]
    s0, coeffs, (bound,) = runs[violated]
    cut = _first_violated_cut(_prepare(runs), centre)
    assert cut is not None
    a, depth = cut
    assert depth == pytest.approx(_lam_max(s0, coeffs, centre)[0] - bound, rel=1e-9)
    for _ in range(50):
        v = centre + rng.normal(scale=3.0, size=v_dim)
        assert a @ v - (a @ centre - depth) <= _lam_max(s0, coeffs, v)[0] - bound + 1e-9


def _reference_scan(runs, centre):
    """Reference scan that decomposes every block, order 1 included: one
    eigh per run, the first violated block cut along its top eigenvector."""
    for s0, coeffs, bounds in runs:
        flat = s0.reshape(-1) + centre @ coeffs.reshape(len(centre), -1)
        vals, vecs = np.linalg.eigh(flat.reshape(s0.shape))
        violated = np.nonzero(vals[:, -1] > np.array(bounds))[0]
        if violated.size == 0:
            continue
        i = int(violated[0])
        q = vecs[i, :, -1]
        a = np.einsum("i,dij,j->d", q, coeffs[:, i], q)
        g0 = float(q @ s0[i] @ q)
        depth = float(a @ centre) + g0 - bounds[i]
        if depth <= 0.0:
            depth = 0.0
        return a, depth
    return None


@settings(max_examples=150, deadline=None)
@given(
    v_dim=st.integers(2, 6),
    leading=st.integers(0, 3),
    shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_scan_matches_eigh_every_block_reference(v_dim, leading, shapes, seed):
    # A run of ``leading`` scalar blocks comes first, then runs of random
    # (order 1-4, batch 1-3), so scalar runs lead and sit between matrix
    # runs.  Each block is violated at the centre with probability 0.3;
    # some scalar coefficients are -0.0.  The cut (or None) must equal the
    # reference bit for bit.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    runs = []
    for order, batch in [(1, leading)] * (leading > 0) + shapes:
        margins = np.where(rng.random(batch) < 0.3, 1.0, -1.0) * rng.uniform(0.0, 1.0, batch)
        s0, coeffs, bounds = _random_run(rng, order, batch, v_dim, centre, margins)
        if order == 1 and rng.random() < 0.5:
            coeffs[rng.random(v_dim) < 0.5] = -0.0
        runs.append((s0, coeffs, bounds))
    got, want = _first_violated_cut(_prepare(runs), centre), _reference_scan(runs, centre)
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
