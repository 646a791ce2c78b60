import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecert import certifier, ellipsoid, search
from ratecert.ellipsoid import SolverBudgetExceeded, _first_violated_cut, ellipsoid_feasibility
from ratecert.iqc import augment
from ratecert.model import FunctionClass, interval_from_c, reduced
from ratecert.search import default_eps_feas


def _scalars(*rows):
    """The scalar constraints a . v + const <= bound, one per row
    (a, const, bound), as one run of order 1."""
    a, const, bounds = zip(*rows)
    coeffs = np.array(a, dtype=float).T.reshape(-1, len(rows), 1, 1)
    return np.reshape(const, (-1, 1, 1)).astype(float), np.ascontiguousarray(coeffs), bounds


def _block(s0, coeffs, bound):
    """The block s0 + sum_i v_i coeffs[i] <= bound, as a run of one."""
    return s0[None], np.ascontiguousarray(coeffs[:, None]), (bound,)


# v1 <= 0 and v1 >= 1e-12: empty, but only by 1e-12, so only the thin-set
# rule or a gap bound below 5e-13 can decide.
THIN_SLAB = _scalars(([1.0, 0.0], 0.0, 0.0), ([-1.0, 0.0], 0.0, -1e-12))
_HALF_LINE = _scalars(([1.0, 0.0], 0.0, -0.1))


def _zf3_runs(kappa, c, rho_hex):
    """The solver's runs of a zf:3 probe at rate ``rho_hex`` (as float.hex)
    on (kappa, c), as ``certify`` builds them."""
    fc = FunctionClass(1.0, kappa)
    fc_n, alphas = reduced(fc, interval_from_c(fc, c))
    rho = float.fromhex(rho_hex)
    return certifier._runs(augment(fc_n.kappa(), alphas, 3), rho,
                           certifier._weights(rho, 3, None), default_eps_feas(fc_n.kappa()))


# Probes just below rho_star of two witness-digest draws, infeasible by
# about 1e-9: a damped step from an iterate near the boundary left the
# domain, and the product-form Hessian stalled near tau ~ 1e10.
ZF3_DRAW = _zf3_runs(3.267124813110718, 1.479298743034437, "0x1.96102172a8a5bp-1")
ZF3_STALL = _zf3_runs(1.3674583600512342, 1.0182018380831546, "0x1.208da07371aa8p-2")


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


def test_budget_exceeded_is_distinct_from_infeasible(monkeypatch):
    monkeypatch.setattr(ellipsoid, "MAX_STEPS", 3)
    with pytest.raises(SolverBudgetExceeded):
        ellipsoid_feasibility([THIN_SLAB])


def test_step_budget_counts_newton_steps(monkeypatch):
    steps = []
    system = ellipsoid._newton_system
    monkeypatch.setattr(ellipsoid, "_newton_system", lambda *a: steps.append(1) or system(*a))
    assert ellipsoid_feasibility([THIN_SLAB]) is None
    taken = len(steps)
    steps.clear()
    monkeypatch.setattr(ellipsoid, "MAX_STEPS", taken - 1)
    with pytest.raises(SolverBudgetExceeded, match=f"{taken - 1} Newton steps"):
        ellipsoid_feasibility([THIN_SLAB])
    assert len(steps) == taken - 1
    monkeypatch.setattr(ellipsoid, "MAX_STEPS", taken)
    assert ellipsoid_feasibility([THIN_SLAB]) is None


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
    # One decision variable is enough: v1 <= -0.1.
    point = ellipsoid_feasibility([_scalars(([1.0], 0.0, -0.1))])
    assert point is not None and point.shape == (1,) and point[0] <= -0.1
    with pytest.raises(ValueError, match="number of decision variables"):
        ellipsoid_feasibility(
            [_scalars(([1.0, 0.0], 0.0, 0.0)), _scalars(([1.0, 0.0, 0.0], 0.0, 0.0))]
        )


def _two_scalars(bounds):
    """Run v1 <= b and v2 <= b', as two 1x1 blocks, with ``bounds``."""
    coeffs = np.zeros((2, 2, 1, 1))
    coeffs[0, 0] = coeffs[1, 1] = 1.0
    return np.zeros((2, 1, 1)), coeffs, bounds


@pytest.mark.parametrize("run", [
    _two_scalars((-0.1,)),
    _two_scalars((-0.1, -0.1, -0.1)),
    (np.zeros((2, 2)), np.zeros((2, 1, 2, 2)), (-1.0,)),
    (np.zeros((1, 2, 3)), np.zeros((2, 1, 2, 3)), (-1.0,)),
    (np.zeros((1, 2, 2)), np.zeros((2, 2, 2)), (-1.0,)),
], ids=["one-bound-two-blocks", "three-bounds-two-blocks", "s0-without-batch", "s0-not-square",
        "coeffs-without-batch"])
def test_run_shapes_must_agree(run):
    # One bound for two blocks was broadcast to both by the stack while the
    # scan read only the first, and three bounds raised numpy's broadcast
    # error; the solver names the run instead.
    with pytest.raises(ValueError, match="run 1 needs shapes"):
        ellipsoid_feasibility([_HALF_LINE, run])


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


@pytest.mark.parametrize("start", [
    np.zeros(3),
    np.array([np.nan, 0.0]),
    np.array([np.inf, 0.0]),
    np.array([ellipsoid.initial_radius(2), 0.0]),
    np.eye(2),
], ids=["center-too-long", "nan-center", "inf-center", "on-the-sphere", "matrix"])
def test_malformed_start_is_rejected(start):
    with pytest.raises(ValueError, match="start"):
        ellipsoid_feasibility([_HALF_LINE], start=start)


def test_solve_from_a_start_point():
    # A start inside the ball reaches the verdicts of the default start,
    # and is copied, not written to.
    start = np.array([-1.0, 0.5])
    start.setflags(write=False)
    point = ellipsoid_feasibility([_scalars(([1.0, 0.0], 0.0, -0.1)),
                                   _scalars(([-1.0, 0.0], 0.0, 1.5),
                                            ([0.0, 1.0], 0.0, 1.0),
                                            ([0.0, -1.0], 0.0, 1.0))], start=start)
    assert point is not None and -1.5 <= point[0] <= -0.1 and abs(point[1]) <= 1.0
    assert ellipsoid_feasibility([THIN_SLAB], start=start) is None
    assert start.tolist() == [-1.0, 0.5]


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 5), batch=st.integers(1, 3), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 10_000))
def test_eigen_batch_is_numpy_eigh_bit_for_bit(order, batch, scale, seed):
    # Each block's largest eigenvalue, as np.linalg.eigvalsh gives it;
    # order 1 included, whose eigenvalue is the entry itself.
    mats = scale * np.random.default_rng(seed).normal(size=(batch, order, order))
    blocks = mats + mats.swapaxes(-1, -2)
    top = ellipsoid._jacobi_batch(blocks)
    want = np.linalg.eigvalsh(blocks)[..., -1]
    assert top.shape == want.shape == (batch,)
    assert top.tobytes() == want.tobytes()
    if order == 1:
        assert top.tobytes() == blocks[:, 0, 0].tobytes()


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


def _reference_scan(runs, centre):
    """Reference scan by np.linalg.eigvalsh of every block, order 1
    included: the (run, block) index of the first violated block, or None."""
    for r, (s0, coeffs, bounds) in enumerate(runs):
        flat = s0.reshape(-1) + centre @ coeffs.reshape(len(centre), -1)
        top = np.linalg.eigvalsh(flat.reshape(s0.shape))[..., -1]
        violated = np.nonzero(top > np.array(bounds))[0]
        if violated.size:
            return r, int(violated[0])
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
    # runs.  Each block is violated at the centre with probability 0.3, its
    # margin scaled down by up to 1e-12; some scalar coefficients are -0.0.
    # The scan must name the block the reference names, or give None with it.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=v_dim)
    runs = []
    for order, batch in [(1, leading)] * (leading > 0) + shapes:
        margins = (np.where(rng.random(batch) < 0.3, 1.0, -1.0) * rng.uniform(0.0, 1.0, batch)
                   * 10.0 ** -rng.integers(0, 13, batch))
        s0, coeffs, bounds = _random_run(rng, order, batch, v_dim, centre, margins)
        if order == 1 and rng.random() < 0.5:
            coeffs[rng.random(v_dim) < 0.5] = -0.0
        runs.append((s0, coeffs, bounds))
    assert _first_violated_cut(runs, centre) == _reference_scan(runs, centre)


def _sym(rng, *shape):
    mats = rng.normal(size=(*shape, shape[-1]))
    return 0.5 * (mats + mats.swapaxes(-1, -2))


@st.composite
def _planted_systems(draw):
    """Random runs (orders 1-4, batches 1-3, v_dim 1-6) and their planted
    point, None for an infeasible system: feasible ones hold at the planted
    point, inside the ball, with margins in [0.01, 1]; infeasible ones have
    a planted dual Z_c >= 0 (Farkas) with sum_c <Z_c, S_ic> = 0 for every i
    and sum_c <Z_c, S0_c - b_c I> > 0, so that no v anywhere satisfies every
    block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v_dim = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=4))
    feasible = draw(st.booleans())
    runs = [(_sym(rng, batch, n), _sym(rng, v_dim, batch, n), None) for n, batch in shapes]
    if feasible:
        v = rng.normal(size=v_dim)
        return [(s0, coeffs, tuple(_lam_max(s0, coeffs, v) + rng.uniform(0.01, 1.0, len(s0))))
                for s0, coeffs, _ in runs], v
    zs = []
    for s0, _, _ in runs:
        a = rng.normal(size=(*s0.shape[:2], int(rng.integers(1, s0.shape[1] + 1))))
        zs.append(a @ a.swapaxes(1, 2))
    bounds = [rng.normal(size=len(s0)) for s0, _, _ in runs]
    norm_sq = sum(float((z * z).sum()) for z in zs)
    for i in range(v_dim):
        dot = sum(float((z * coeffs[i]).sum()) for z, (_, coeffs, _) in zip(zs, runs))
        for z, (_, coeffs, _) in zip(zs, runs):
            coeffs[i] -= (dot / norm_sq) * z
    trace = sum(float(np.trace(z, axis1=1, axis2=2).sum()) for z in zs)
    gap = sum(float((z * s0).sum() - (np.trace(z, axis1=1, axis2=2) * b).sum())
              for z, b, (s0, _, _) in zip(zs, bounds, runs))
    shift = (rng.uniform(0.01, 1.0) * trace - gap) / norm_sq
    return [(s0 + shift * z, coeffs, tuple(b.tolist()))
            for z, b, (s0, coeffs, _) in zip(zs, bounds, runs)], None


def _assert_verdict(runs, planted, point):
    """A feasible system's point lies in the open ball and np.linalg.eigvalsh
    finds every block held there; an infeasible one gives None."""
    if planted is None:
        assert point is None
    else:
        assert point is not None and _reference_scan(runs, point) is None
        assert point @ point < ellipsoid.initial_radius(len(point)) ** 2


@settings(max_examples=150, deadline=None)
@given(system=_planted_systems())
@example(system=([THIN_SLAB], None))
@example(system=(ZF3_DRAW, None))
@example(system=(ZF3_STALL, None))
def test_barrier_verdicts_are_sound(system):
    runs, planted = system
    _assert_verdict(runs, planted, ellipsoid_feasibility(runs))


@settings(max_examples=100, deadline=None)
@given(system=_planted_systems(), where=st.sampled_from(["inside", "sphere", "planted"]),
       seed=st.integers(0, 10_000))
def test_barrier_verdicts_do_not_depend_on_the_start(system, where, seed):
    # A start anywhere in the open ball gives the default start's verdict:
    # a uniform point of B, one within 1e-12 to 1e-2 of the sphere, or the
    # feasible system's planted point (the Farkas system draws a uniform
    # point there instead).
    runs, planted = system
    d = runs[0][1].shape[0]
    radius = ellipsoid.initial_radius(d)
    rng = np.random.default_rng(seed)
    if where == "planted" and planted is not None:
        start = planted
    else:
        direction = rng.normal(size=d)
        scale = (1.0 - 10.0 ** rng.uniform(-12.0, -2.0) if where == "sphere"
                 else rng.random() ** (1.0 / d))
        start = radius * scale * direction / np.linalg.norm(direction)
    assert start @ start < radius ** 2
    cold = ellipsoid_feasibility(runs)
    assert (cold is None) == (planted is None)
    _assert_verdict(runs, planted, ellipsoid_feasibility(runs, start=start))


def test_zf3_draw_keeps_its_rate():
    # The witness-digest draw of ZF3_DRAW: a step there left the domain in
    # rounding, and the rate must still be the one the ellipsoid method
    # certified, with a witness that verifies.
    fc = FunctionClass(1.0, 3.267124813110718)
    cert = search.certify(fc, interval_from_c(fc, 1.479298743034437), iqc_kind="zf",
                             zf_order=3, rho_tol=2.5604383523854253e-06)
    assert cert.rho_star == 0.7930937225735779
    assert certifier.verify_certificate(cert)
