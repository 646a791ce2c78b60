import contextlib
import dataclasses
import hashlib
import math
import signal
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert import certifier, search
from ratecert.certifier import (
    _blocks,
    _runs,
    _start,
    _weights,
    cond_spd,
    feasible_at_rho,
    max_eigenvalue,
    verify_certificate,
)
from ratecert.cli import main
from ratecert.ellipsoid import SolverBudgetExceeded, ellipsoid_feasibility, initial_radius
from ratecert.iqc import (
    WeightOutOfRange,
    augment,
    default_weights,
    quad_form,
)
from ratecert.model import (
    FunctionClass,
    InvalidC,
    StepSizeInterval,
    interval_asymmetric,
    interval_from_c,
    reduced,
)
from ratecert.search import (
    MAX_ZF_ORDER,
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
    Certificate,
    InvalidInput,
    Witness,
    certify,
    closed_form_rate,
    default_eps_feas,
    lambda_interval_sector,
    sector_lambda,
    sector_threshold,
    taps,
)

FC10 = FunctionClass(1.0, 10.0)


def _exact_rate(fc, interval):
    return max(closed_form_rate(interval.lo, fc), closed_form_rate(interval.hi, fc))


def _lmi(fc, interval, kind, zf_order=2):
    """The data certify builds for ``kind`` over ``interval``."""
    fc_n, alphas = reduced(fc, interval)
    return augment(fc_n.kappa(), alphas, taps(kind, zf_order))


def _probe(fc, interval, kind, rho, zf_order=2, weights=None, eps=None):
    """One probe from scratch, as certify makes it, with certify's default
    eps given None: ``sector_lambda`` for sector, else ``feasible_at_rho``;
    raises WeightOutOfRange where the weights are inadmissible at ``rho``."""
    fc_n, alphas = reduced(fc, interval)
    if eps is None:
        eps = default_eps_feas(fc_n.kappa())
    if kind == SECTOR:
        lam = sector_lambda(rho, alphas, fc_n, eps)
        return None if lam is None else Witness(p=None, lam=lam)
    h = _weights(rho, taps(kind, zf_order), weights)
    return feasible_at_rho(_lmi(fc, interval, kind, zf_order), rho, h, eps)


def _slack_at(fc, interval, kind, rho, h, wit, zf_order=2):
    return max_eigenvalue(_blocks(_lmi(fc, interval, kind, zf_order), rho, h, wit.p, wit.lam))


def _spy_solvers(mp, on_call):
    """Call ``on_call(rho)`` before every probe ``certify`` solves: a sector
    probe is one ``sector_lambda`` call, any other one ``feasible_at_rho``
    call.  ``on_call`` may raise in place of the solver."""

    def sector(rho, *args):
        on_call(rho)
        return sector_lambda(rho, *args)

    def matrix(lmi, rho, h, eps, start=None):
        on_call(rho)
        return feasible_at_rho(lmi, rho, h, eps, start=start)

    mp.setattr(search, "sector_lambda", sector)
    mp.setattr(certifier, "feasible_at_rho", matrix)


@pytest.fixture
def solver_calls(monkeypatch):
    """Record the rho of every probe ``certify`` hands to a solver."""
    seen = []
    _spy_solvers(monkeypatch, seen.append)
    return seen


# ---------------------------------------------------------------------------
# Independent oracle: scan a dense lambda grid and test the 2x2 block at every
# given step size with the closed-form symmetric-eigenvalue formula.

def _block_max_eig(rho, alpha, lam, m, L):
    a11 = (1.0 - rho * rho) - 2.0 * m * L * lam
    a12 = -alpha + (L + m) * lam
    a22 = alpha * alpha - 2.0 * lam
    tr, det = a11 + a22, a11 * a22 - a12 * a12
    return 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))


def _scan_family_feasible(rho, alphas, m, L, lam_grid=None, tol=0.0):
    if lam_grid is None:
        lam_grid = np.concatenate([np.linspace(0.0, 0.7, 70_001), [1.0, 2.0, 5.0]])
    for lam in lam_grid:
        if all(_block_max_eig(rho, a, lam, m, L) <= tol for a in alphas):
            return True
    return False


# ---------------------------------------------------------------------------
# closed_form_rate

def test_closed_form_rate_examples():
    assert closed_form_rate(0.1, FC10) == pytest.approx(0.9, abs=1e-15)
    assert closed_form_rate(0.0, FC10) == 1.0
    assert closed_form_rate(2.0 / 11.0, FC10) == pytest.approx(9.0 / 11.0, rel=1e-15)
    with pytest.raises(InvalidInput):
        closed_form_rate(-0.1, FC10)


# ---------------------------------------------------------------------------
# The family's blocks, evaluated from the data

def test_assemble_block_examples():
    p1 = np.ones((1, 1))
    (b,) = _blocks(augment(10.0, (0.1,), 0), 0.9, (), p1, 0.01)
    assert_allclose(b, [[-0.01, 0.01], [0.01, -0.01]], atol=1e-15)
    (b,) = _blocks(augment(10.0, (0.0,), 0), 1.0, (), p1, 0.0)
    assert_allclose(b, [[0.0, 0.0], [0.0, 0.0]], atol=0)
    lo, hi = _blocks(augment(10.0, (0.1, 0.2), 0), 0.9, (), p1, 0.0)
    assert_allclose(lo, [[0.19, -0.1], [-0.1, 0.01]], atol=1e-15)
    assert_allclose(hi, [[0.19, -0.2], [-0.2, 0.04]], atol=1e-15)
    # A P of the wrong order is a certificate the replay cannot evaluate.
    cert = certify(FC10, interval_from_c(FC10, 1.2))
    wrong_order = dataclasses.replace(cert.witness, p=np.eye(2) / 2)
    assert dataclasses.replace(cert, witness=wrong_order).slack == math.inf


def test_blocks_are_the_direct_product_at_the_witness():
    # The data evaluated at P's coordinates equals the block written out
    # from A, b(alpha), P and Q(h), for every kind and both step sizes.
    fc = FunctionClass(1.0, 7.0)
    interval = interval_from_c(fc, 1.3)
    for kind in (SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB):
        cert = certify(fc, interval, iqc_kind=kind, zf_order=3)
        p, lam, k = cert.witness.p, cert.witness.lam, taps(kind, 3)
        s, rho = k + 1, cert.rho_star
        lmi = _lmi(fc, interval, kind, 3)
        a = np.eye(s, s, -1)
        a[0, 0] = 1.0
        a[1:2, 0] = -7.0
        cd = np.zeros((2, s + 1))
        cd[:, 0], cd[:, s], cd[0, 1:s] = [7.0, -1.0], [-1.0, 1.0], cert.witness.weights
        quad = cd.T @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ cd
        assert np.array_equal(quad_form(lmi, cert.witness.weights), quad)
        blocks = _blocks(lmi, rho, cert.witness.weights, p, lam)
        for alpha, got in zip(interval.endpoints, blocks):
            b = np.zeros(s)
            b[0], b[1:2] = -alpha, 1.0
            ab = np.column_stack([a, b])
            block = ab.T @ p @ ab + lam * quad
            block[:s, :s] -= rho * rho * p
            assert_allclose(got, block, rtol=0, atol=1e-12 * np.abs(block).max())


# ---------------------------------------------------------------------------
# lambda_interval_sector

def test_lambda_interval_double_root():
    iv = lambda_interval_sector(0.9, 0.1, FC10, 0.0)
    assert iv is not None
    assert iv[0] == pytest.approx(0.01, abs=1e-9)
    assert iv[1] == pytest.approx(0.01, abs=1e-9)


def test_lambda_interval_negative_discriminant_empty():
    assert lambda_interval_sector(0.89, 0.1, FC10, 0.0) is None


def test_lambda_interval_rho_one_against_eig_oracle():
    iv = lambda_interval_sector(1.0, 0.1, FC10, 0.0)
    assert iv is not None
    # The eigenvalue oracle puts the admissible set at about [0.00696, 0.0177]:
    # the determinant condition binds before the diagonal bound alpha^2/2.
    assert iv[0] <= 0.01 <= iv[1]
    assert _block_max_eig(1.0, 0.1, 0.01, 1.0, 10.0) <= 1e-15
    assert _block_max_eig(1.0, 0.1, 0.005, 1.0, 10.0) > 1e-3  # below the set
    assert iv[0] == pytest.approx(0.006964322291925096, rel=1e-9)
    assert iv[1] == pytest.approx(0.017727035732766263, rel=1e-9)


def test_lambda_interval_matches_scan_oracle():
    rng = np.random.default_rng(42)
    lam_grid = np.linspace(0.0, 0.8, 8001)
    for _ in range(25):
        m = float(rng.uniform(0.5, 2.0))
        L = m * float(rng.uniform(1.0, 20.0))
        fc = FunctionClass(m, L)
        alpha = float(rng.uniform(0.1 / L, 1.9 / L))
        rho = float(rng.uniform(0.2, 1.0))
        iv = lambda_interval_sector(rho, alpha, fc, 0.0)
        for lam in lam_grid:
            ok_oracle = _block_max_eig(rho, alpha, lam, m, L) <= 0.0
            ok_iv = iv is not None and iv[0] <= lam <= iv[1]
            if iv is not None and min(abs(lam - iv[0]), abs(lam - iv[1])) < 1e-4:
                continue  # skip the edge band: the scan uses a coarse grid
            assert ok_oracle == ok_iv, (m, L, alpha, rho, lam)


def test_lambda_interval_kappa_one_is_halfline():
    fc = FunctionClass(2.0, 2.0)
    iv = lambda_interval_sector(0.5, 1.0 / 2.0, fc, 0.0)
    assert iv is not None and math.isinf(iv[1])
    # A zero linear coefficient and a negative constant: the determinant is
    # -1/16 at every lambda, so no lambda makes the block <= 0.
    assert lambda_interval_sector(0.5, 0.5, FunctionClass(1.0, 1.0), 0.0) is None


# ---------------------------------------------------------------------------
# feasible_at_rho

def test_feasible_at_boundary_with_zero_eps():
    interval = interval_from_c(FC10, 1.0)
    wit = _probe(FC10, interval, SECTOR, 0.9, eps=0.0)
    assert wit is not None
    assert wit.lam == pytest.approx(0.01, abs=1e-9)
    assert _slack_at(FC10, interval, SECTOR, 0.9, (), wit) <= 1e-12
    assert wit.p[0, 0] == 1.0


def test_infeasible_below_boundary():
    interval = interval_from_c(FC10, 1.0)
    assert _probe(FC10, interval, SECTOR, 0.89, eps=0.0) is None


def test_feasible_just_above_closed_form_rate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = float(rng.uniform(0.2, 2.0))
        L = m * float(rng.uniform(1.2, 30.0))
        fc = FunctionClass(m, L)
        alpha = float(rng.uniform(0.3 / L, 1.7 / L))
        rho = closed_form_rate(alpha, fc) + 1e-6
        assert _probe(fc, StepSizeInterval(alpha, alpha), SECTOR, rho) is not None


# ---------------------------------------------------------------------------
# certify

def test_certify_constant_step_recovers_gradient_rate():
    cert = certify(FC10, interval_from_c(FC10, 1.0))
    assert cert.rho_star == pytest.approx(0.9, abs=1e-3)
    assert cert.cond_p == pytest.approx(1.0)
    assert verify_certificate(cert)


def test_certify_no_certificate_beyond_two(solver_calls):
    # From c = 2 on the exact rate is at least 1, so the top of the bracket
    # is rejected without a solve.
    for c in (2.0, 2.1):
        cert = certify(FC10, interval_from_c(FC10, c))
        assert cert.rho_star is None and cert.witness is None and cert.cond_p is None
        assert cert.bisection_iters == 1
    assert solver_calls == []


def test_certify_varying_interval_cross_checked_by_scan_oracle():
    # The certifier checks only the two endpoints; the oracle scans the
    # interior too, an independent check that the endpoints suffice.
    cert = certify(FC10, interval_from_c(FC10, 1.4))
    assert cert.rho_star is not None and cert.rho_star < 1.0
    alphas = np.linspace(cert.interval.lo, cert.interval.hi, 25)
    assert _scan_family_feasible(cert.rho_star + 2e-4, alphas, 1.0, 10.0)
    assert not _scan_family_feasible(cert.rho_star - 2e-4, alphas, 1.0, 10.0)


def test_certify_kappa_one_reports_bracket_floor(solver_calls):
    # The exact rate is 0 here, so both ends of the bracket go to the solver.
    fc = FunctionClass(1.0, 1.0)
    cert = certify(fc, interval_from_c(fc, 1.0))
    assert cert.rho_star == 1e-3
    assert cert.bisection_iters == 2
    assert solver_calls == [1.0 - cert.rho_tol, 1e-3]


def test_certify_validation():
    with pytest.raises(InvalidInput):
        certify(FC10, interval_from_c(FC10, 1.0), iqc_kind=ZAMES_FALB, zf_order=0)
    with pytest.raises(InvalidInput):
        certify(FC10, interval_from_c(FC10, 1.0), iqc_kind="nope")
    with pytest.raises(InvalidInput):
        certify(FC10, interval_from_c(FC10, 1.0), rho_tol=1.0)
    # 2.5, True and "2" raised a bare TypeError from augment.
    for order in (2.5, True, "2"):
        with pytest.raises(InvalidInput, match="zf_order"):
            certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=order)
    numpy_order = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB,
                          zf_order=np.int64(1))
    assert numpy_order.rho_star == certify(FC10, interval_from_c(FC10, 1.2),
                                           iqc_kind=ZAMES_FALB, zf_order=1).rho_star


@pytest.mark.parametrize(
    "field, value",
    [("eps_feas", -1.0), ("eps_feas", -1e-300), ("eps_feas", math.nan),
     ("eps_feas", math.inf), ("rho_tol", 0.0), ("rho_tol", -1e-4),
     ("rho_tol", math.nan), ("rho_tol", math.inf), ("rho_tol", 1.0)],
)
def test_options_reject_bad_tolerances(solver_calls, field, value):
    # Unchecked, eps_feas = -1 gives rho_star 0.91668 for sector and wob1
    # at (10, 1.2), and eps_feas = nan the same for wob1: certificates that
    # verify_certificate rejects.  rho_tol = 0 or -1e-4 made the bisection
    # loop forever; 1.0 leaves no bracket below rate 1.  certify names the
    # keyword and stops before any solve.
    for kind in (SECTOR, WEIGHTED_OFF_BY_1):
        with pytest.raises(InvalidInput, match=field):
            certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, **{field: value})
    assert solver_calls == []


def test_options_accept_zero_and_default_eps_feas():
    # eps_feas = 0 asks only for "<= 0"; P >= DELTA_PD * I still keeps the
    # wob1 witness at (10, 1.2) strictly inside (slack about -7.9e-9).
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=WEIGHTED_OFF_BY_1,
                   eps_feas=0.0)
    assert cert.feasible and verify_certificate(cert)
    assert cert.slack <= 0.0
    default = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=WEIGHTED_OFF_BY_1,
                      eps_feas=None)
    assert default.feasible and verify_certificate(default)


@pytest.mark.parametrize("eps_feas", [None, 0.0, 1e-7])
def test_certify_hands_the_solver_its_eps(monkeypatch, eps_feas):
    # certify computes eps once: the given eps_feas, or default_eps_feas of
    # the class's kappa, and every dynamic solve gets that float.
    seen = []

    def matrix(lmi, rho, h, eps, start=None):
        seen.append(eps)
        return feasible_at_rho(lmi, rho, h, eps, start=start)

    monkeypatch.setattr(certifier, "feasible_at_rho", matrix)
    certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=WEIGHTED_OFF_BY_1, eps_feas=eps_feas)
    want = default_eps_feas(10.0) if eps_feas is None else eps_feas
    assert seen and all(type(eps) is float and eps == want for eps in seen), seen


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_rho_tol_below_float_spacing_terminates(monkeypatch):
    # Once lo and hi are adjacent floats the midpoint equals one of them;
    # the bisection, and the float-only walk that picks the speculative
    # rate, must stop there rather than probe the same rate forever.
    rates = []

    def counting(rho):
        rates.append(rho)
        if len(rates) > 200:
            raise AssertionError("the bisection does not terminate")

    interval = interval_from_c(FC10, 1.2)
    # wob1 finds no witness within 1e-5 of rate 1 here, so a top of
    # 1 - 1e-300 would end its search at once; start it at 0.95.
    for kind, top in ((SECTOR, search.RHO_HI), (WEIGHTED_OFF_BY_1, 0.95)):
        coarse = certify(FC10, interval, iqc_kind=kind)
        rates.clear()
        with monkeypatch.context() as mp, _time_limit(20.0):
            mp.setattr(search, "RHO_HI", top)
            _spy_solvers(mp, counting)
            cert = certify(FC10, interval, iqc_kind=kind, rho_tol=1e-300)
        assert cert.feasible and verify_certificate(cert), kind
        assert coarse.rho_star - coarse.rho_tol <= cert.rho_star <= coarse.rho_star, kind
        assert len(set(rates)) == len(rates), kind
        assert cert.bisection_iters > 50, kind


@pytest.mark.parametrize(
    "kind, rho_star",
    [(SECTOR, 0.921312225341797), (WEIGHTED_OFF_BY_1, 0.9166786560058593)],
)
def test_bisection_solves_only_at_or_above_exact_rate(solver_calls, kind, rho_star):
    # Trial rates below the exact rate are decided without a solve; the
    # bisection still takes every step it took when the solver decided them.
    interval = interval_from_c(FC10, 1.2)
    cert = certify(FC10, interval, iqc_kind=kind)
    assert min(solver_calls) >= _exact_rate(FC10, interval)
    assert cert.rho_star == rho_star
    assert cert.bisection_iters == 16
    assert len(solver_calls) < 16


@pytest.mark.parametrize(
    "kind, zf_order, kappa, c, solves",
    [(WEIGHTED_OFF_BY_1, 1, 10.0, 1.2, 2), (ZAMES_FALB, 2, 10.0, 1.2, 2),
     (SECTOR, 1, 10.0, 1.0, 1), (ZAMES_FALB, 2, 3.377, 1.8692, 14),
     (SECTOR, 1, 5.0, 1.2, 2)],
    ids=["wob1", "zf2", "sector-constant-step", "zf2-loose", "sector-end-fails"],
)
def test_solver_calls_pinned(solver_calls, kind, zf_order, kappa, c, solves):
    # Every trial rate goes through one oracle: a rate below the floor, or
    # at or above the lowest rate solved feasible, is decided without a
    # solve.  The first three are tight (the witness exists at the rate g
    # where the bisection would end if every rate at or above the exact
    # rate were feasible): wob1 and zf2 solve the top first, then g, down
    # from 7; sector solves g alone, whose feasible verdict decides the top.
    # The bottom probe and the lower end predicted below g lie under the
    # exact rate.  zf2-loose is not tight: g fails and raises the floor, and
    # the bisection solves the rest of its path, as without speculating.  At
    # (5, 1.2) sector sits above the exact rate; its closed-form threshold
    # predicts g, and g and the lower end below it settle the path.
    fc = FunctionClass(1.0, kappa)
    cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=zf_order)
    assert cert.feasible
    assert cert.bisection_iters == 16
    assert len(solver_calls) == solves
    assert len(set(solver_calls)) == solves


def _count_calls(monkeypatch, name):
    calls = []
    orig = getattr(certifier, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(certifier, name, counted)
    return calls


@pytest.mark.parametrize("kind", [WEIGHTED_OFF_BY_1, ZAMES_FALB])
def test_dynamic_certify_builds_its_data_once(monkeypatch, solver_calls, kind):
    # A wob1 or zf:2 certify builds its data at set-up, once for all of its
    # probes.
    augments = _count_calls(monkeypatch, "augment")
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=2)
    assert cert.feasible and len(solver_calls) > 1
    assert augments == ["augment"]


def test_sector_hot_path_builds_once(monkeypatch, solver_calls):
    # Sector probes are plain-float closed forms: certify builds no numpy
    # data and computes no slack.  The first read of ``cert.slack`` rebuilds
    # the data once and computes the slack; later reads reuse it.
    augments = _count_calls(monkeypatch, "augment")
    slacks = _count_calls(monkeypatch, "_slack")
    cert = certify(FC10, interval_from_c(FC10, 1.2))
    assert cert.rho_star == 0.921312225341797
    assert augments == []
    assert slacks == []
    # The two checks of the path that sector's closed-form threshold
    # predicts; g's feasible verdict decides the top without a solve.
    assert len(solver_calls) == 2
    assert cert.slack <= 0.0
    assert len(augments) == 1
    assert len(slacks) == 1
    assert cert.slack <= 0.0
    assert len(slacks) == 1

    slacks.clear()
    cert = certify(FC10, interval_from_c(FC10, 2.1))
    assert cert.rho_star is None and cert.slack is None
    assert slacks == []


@pytest.mark.parametrize(
    "kind, zf_order", [(SECTOR, 2), (WEIGHTED_OFF_BY_1, 2), (ZAMES_FALB, 2)],
    ids=["sector", "wob1", "zf2"],
)
def test_slack_is_the_rebuilt_family_slack(kind, zf_order):
    interval = interval_from_c(FC10, 1.2)
    cert = certify(FC10, interval, iqc_kind=kind, zf_order=zf_order)
    expected = _slack_at(FC10, interval, kind, cert.rho_star, cert.witness.weights,
                         cert.witness, zf_order)
    assert cert.slack == expected
    assert cert.slack <= 0.0


def test_slack_none_without_certificate():
    assert certify(FC10, interval_from_c(FC10, 2.1)).slack is None


def test_slack_cannot_be_assigned():
    cert = certify(FC10, interval_from_c(FC10, 1.2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.slack = -1.0


def test_verify_ignores_a_planted_slack():
    # verify_certificate recomputes the slack: a cached value planted on a
    # certificate whose lambda is off by far more than the tolerance must not
    # make it pass.
    cert = certify(FC10, interval_from_c(FC10, 1.2))
    wit = cert.witness
    bad = dataclasses.replace(cert, witness=dataclasses.replace(wit, lam=wit.lam + 1.0))
    assert not verify_certificate(bad)
    bad.__dict__["slack"] = -1.0
    assert bad.slack == -1.0
    assert not verify_certificate(bad)


def test_budget_error_at_speculative_rate_is_not_a_verdict():
    # At (10, 1.2) sector makes two solves: the predicted end g (check 1)
    # and the predicted lower end below it (check 2), before any top probe.
    # A budget error at either check must not end the search, nor count as
    # a verdict, and the result is unchanged.  After one at g the bisection
    # solves the top and every rate on its path at or above the exact rate,
    # g again last.  After one at below, g's feasible verdict stands: the
    # top and the path's rates above g need no solve, and only those below
    # g are solved, below again last.
    interval = interval_from_c(FC10, 1.2)
    expected = certify(FC10, interval)
    g, below, top = 0.921312225341797, 0.9212512573242189, 0.9999
    lower = [0.917958984375, 0.9199099609375001, 0.9208854492187502, 0.9211293212890627]
    solved = {
        1: [g, top, 0.9374687500000001, 0.9218609375000001, *lower[:3],
            0.9213731933593752, lower[3], below, g],
        2: [g, below, *lower, below],
    }
    for check in (1, 2):
        rates = []

        def out_of_budget_once(rho):
            rates.append(rho)
            if len(rates) == check:
                raise SolverBudgetExceeded("budget")

        with pytest.MonkeyPatch.context() as mp:
            _spy_solvers(mp, out_of_budget_once)
            cert = certify(FC10, interval)
        assert (cert.rho_star, cert.bisection_iters) == (expected.rho_star, 16), check
        assert cert.witness.lam.hex() == expected.witness.lam.hex(), check
        assert rates == solved[check], check
        assert {rho for rho in rates if rates.count(rho) > 1} <= {rates[check - 1]}, check


def test_certify_budget_error_propagates(monkeypatch):
    # A dynamic search solves its top rate first, outside the two checks: a
    # solver out of budget there is no verdict, and certify raises it.
    def out_of_budget(rho):
        raise SolverBudgetExceeded("budget")

    _spy_solvers(monkeypatch, out_of_budget)
    with pytest.raises(SolverBudgetExceeded):
        certify(FC10, interval_from_c(FC10, 1.0), iqc_kind=WEIGHTED_OFF_BY_1)


# ---------------------------------------------------------------------------
# verify_certificate

def test_verify_roundtrip_and_perturbations():
    cert = certify(FC10, interval_from_c(FC10, 1.0))
    assert verify_certificate(cert)
    wit = cert.witness
    bad_lam = dataclasses.replace(cert, witness=dataclasses.replace(wit, lam=wit.lam + 1.0))
    assert not verify_certificate(bad_lam)
    bad_rho = dataclasses.replace(cert, rho_star=cert.rho_star - 10.0 * cert.rho_tol)
    assert not verify_certificate(bad_rho)
    # The replay reads the steps to check from the interval itself, so a
    # certificate cannot be stretched to cover steps it was never proved for.
    wider = dataclasses.replace(cert, interval=interval_from_c(FC10, 1.4))
    assert wider.grid == wider.interval.endpoints
    assert not verify_certificate(wider)

    # Every kind: each mutation breaks the certificate by at least 1e-3
    # beyond the tolerance, so no round-off can let it pass.
    interval = interval_from_c(FC10, 1.2)
    tol = default_eps_feas(10.0)
    for kind in (SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB):
        cert = certify(FC10, interval, iqc_kind=kind)
        wit, n = cert.witness, len(cert.witness.weights)
        assert verify_certificate(cert), kind
        # Below the exact rate, with weights admissible there, so that the
        # blocks, not the weight check, reject it.
        below = dataclasses.replace(
            cert, rho_star=0.5,
            witness=dataclasses.replace(wit, weights=default_weights(0.5, n)))
        wider = dataclasses.replace(cert, interval=interval_from_c(FC10, 1.99))
        assert below.rho_star < _exact_rate(FC10, interval)
        assert _exact_rate(FC10, wider.interval) > cert.rho_star
        for bad in (below, wider):
            assert bad.slack >= tol + 1e-3, kind
            assert not verify_certificate(bad), kind
        for bad_wit in (dataclasses.replace(wit, lam=-1e-3),
                        dataclasses.replace(wit, p=-wit.p)):
            assert not verify_certificate(dataclasses.replace(cert, witness=bad_wit)), kind
        if n:
            inadmissible = (cert.witness.weights[0] + 1e-3, *cert.witness.weights[1:])
            assert not verify_certificate(dataclasses.replace(
                cert, witness=dataclasses.replace(wit, weights=inadmissible)))


def test_verify_requires_witness():
    cert = certify(FC10, interval_from_c(FC10, 2.1))
    with pytest.raises(InvalidInput):
        verify_certificate(cert)


@pytest.mark.parametrize("p", [np.eye(2) / 2, np.ones((2, 3)), np.full((3, 3), np.nan),
                               (np.eye(3) / 3).tolist()],
                         ids=["wrong-order", "not-square", "nan", "nested-list"])
def test_verify_rejects_a_malformed_witness_p(p):
    # A zf:2 witness P is a 3x3 finite ndarray; any other P is a rejected
    # certificate, not an error.  A nested list raised AttributeError from
    # the replay.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=2)
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, p=p))
    assert verify_certificate(bad) is False


@pytest.mark.parametrize("lam", [math.nan, math.inf, None, "0.1"],
                         ids=["nan", "inf", "none", "str"])
@pytest.mark.parametrize("kind, order", [(SECTOR, 2), (WEIGHTED_OFF_BY_1, 2), (ZAMES_FALB, 2)],
                         ids=["sector", "wob1", "zf2"])
def test_verify_rejects_a_non_finite_lambda(kind, order, lam):
    # A lambda of NaN made the dynamic replay raise LinAlgError, and an
    # infinite one fail through a RuntimeWarning (inf * 0 in the blocks).
    # One that is not a real number raised TypeError.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=order)
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, lam=lam))
    assert verify_certificate(bad) is False
    assert bad.slack == math.inf


def _nan_entry(p):
    p = np.array(p, dtype=float)
    p[0, -1] = math.nan
    return p


@pytest.mark.parametrize("spoil", [
    lambda wit: dataclasses.replace(wit, lam=math.nan),
    lambda wit: dataclasses.replace(wit, lam=math.inf),
    lambda wit: dataclasses.replace(wit, p=_nan_entry(wit.p)),
], ids=["nan-lambda", "inf-lambda", "nan-in-p"])
@pytest.mark.parametrize("kind, order", [(WEIGHTED_OFF_BY_1, 2), (ZAMES_FALB, 2)],
                         ids=["wob1", "zf2"])
def test_slack_of_a_non_finite_witness_is_inf(kind, order, spoil):
    # Such a witness made the replay's eigen-solve raise LinAlgError, while
    # verify_certificate rejects it.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=order)
    bad = dataclasses.replace(cert, witness=spoil(cert.witness))
    assert bad.slack == math.inf
    assert verify_certificate(bad) is False


@pytest.mark.parametrize("kind", [SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB])
def test_verify_rejects_a_tampered_certificate(kind):
    # On one kind or another, each of these raised TypeError, InvalidInput,
    # LinAlgError, OverflowError (an int rate too large for a float) or
    # AttributeError (an fc, interval or witness of another type), or
    # verified: against default weights in place of the stored ones, at a
    # negative rate, or at a rate given as a string.  The replay cannot
    # evaluate them: their slack is inf.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=2)
    assert verify_certificate(cert)
    changes = [dict(iqc_kind="bogus"),
               dict(witness=dataclasses.replace(cert.witness, weights=("a",))),
               dict(witness=dataclasses.replace(cert.witness, weights=None)),
               dict(fc=FunctionClass(1.0, 1e308)), dict(rho_star=None),
               dict(rho_star=-cert.rho_star), dict(rho_star=1.5), dict(rho_star="0.95"),
               dict(rho_star=10 ** 400), dict(fc=None), dict(fc=(1.0, 10.0)),
               dict(interval=None), dict(interval=(1.0 / 12.0, 0.12)),
               dict(witness=(cert.witness.p, cert.witness.lam))]
    if kind == ZAMES_FALB:
        changes += [dict(zf_order=None), dict(zf_order=99)]
    for change in changes:
        bad = dataclasses.replace(cert, **change)
        assert bad.slack == math.inf, change
        assert verify_certificate(bad) is False, change
    # () is sector's own weights, and no default stands in for another kind's.
    bare = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, weights=()))
    assert verify_certificate(bare) is (kind == SECTOR)


@pytest.mark.parametrize("spoil", [lambda c: 0.5 * c, lambda c: None, lambda c: math.nan],
                         ids=["halved", "none", "nan"])
@pytest.mark.parametrize("kind", [SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB])
def test_verify_holds_cond_p_to_the_condition_number_of_p(kind, spoil):
    # simulate's bound sqrt(cond_p) * rho^k rests on cond_p, yet a smaller,
    # missing or NaN one verified.  It must be at least cond_spd(P), which
    # is what certify stores.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=2)
    assert verify_certificate(cert) and cert.cond_p == cond_spd(cert.witness.p)
    bad = dataclasses.replace(cert, cond_p=spoil(cert.cond_p))
    assert bad.slack == cert.slack <= 0.0
    assert verify_certificate(bad) is False


@pytest.mark.parametrize("kappa, c", [(10.0, 1.0), (2.0, 1.9)])
@pytest.mark.parametrize("below", [1e-8, 1e-9])
def test_verify_rejects_a_rate_just_below_the_exact_rate(kappa, c, below):
    # No certificate exists below the exact rate.  With rho_star lowered to
    # just below it, these sector witnesses replay to a slack of +9e-9 and
    # +9e-10 at (10, 1.0), +3.6e-9 and +3.6e-10 at (2, 1.9): inside the old
    # positive tolerance default_eps_feas, so they verified.  The replay is
    # now held to slack <= 0.
    fc = FunctionClass(1.0, kappa)
    interval = interval_from_c(fc, c)
    cert = certify(fc, interval, rho_tol=1e-9)
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, rho_star=_exact_rate(fc, interval) - below)
    assert 0.0 < bad.slack <= default_eps_feas(kappa)
    assert verify_certificate(bad) is False


def test_verify_rejects_a_p_that_is_not_exactly_symmetric():
    # The blocks read P's upper triangle in one term and all of P in
    # another.  With this P, whose lower-triangle reading is positive
    # definite, a zf:2 certificate of rate 0.9, below the exact rate 11/12,
    # verified; each symmetric reading of it fails the blocks.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=2)
    p = np.array([[0.9585, 0.2074, 0.0341], [0.1568, 0.0366, -0.0135], [0.0042, -0.0066, 0.0049]])
    assert np.linalg.eigvalsh(p)[0] > 0.0 and 0.9 < _exact_rate(FC10, cert.interval)
    bad = dataclasses.replace(cert, rho_star=0.9, witness=dataclasses.replace(
        cert.witness, p=p, lam=0.0095, weights=default_weights(0.9, 2)))
    assert bad.slack == math.inf
    assert verify_certificate(bad) is False
    for sym in (np.triu(p) + np.triu(p, 1).T, np.tril(p) + np.tril(p, -1).T):
        read = dataclasses.replace(bad, witness=dataclasses.replace(bad.witness, p=sym))
        assert read.slack > default_eps_feas(10.0)


@pytest.mark.parametrize("rho_tol", [1e-4, 1e-6])
@pytest.mark.parametrize("kappa, c", [(10.0, 1.2), (7.0, 1.3), (50.0, 1.1), (2.0, 1.9)])
def test_wob1_certifies_as_zf1(kappa, c, rho_tol):
    # wob1's admissible weights, defaults and data are zf:1's, so the two
    # kinds give one certificate: rate, trial count, lambda, P and weights.
    fc = FunctionClass(1.0, kappa)
    interval = interval_from_c(fc, c)
    wob1 = certify(fc, interval, iqc_kind=WEIGHTED_OFF_BY_1, rho_tol=rho_tol)
    zf1 = certify(fc, interval, iqc_kind=ZAMES_FALB, zf_order=1, rho_tol=rho_tol)
    assert (wob1.rho_star, wob1.bisection_iters) == (zf1.rho_star, zf1.bisection_iters)
    assert (wob1.witness is None) == (zf1.witness is None)
    if wob1.witness is not None:
        assert wob1.witness.weights == zf1.witness.weights
        assert wob1.witness.lam == zf1.witness.lam
        assert wob1.witness.p.tobytes() == zf1.witness.p.tobytes()


def test_verify_dynamic_multiplier_roundtrip():
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=2)
    assert verify_certificate(cert)
    assert len(cert.witness.weights) == 2


# ---------------------------------------------------------------------------
# Properties: monotonicity in rho, backend agreement, scale invariance,
# dynamic multipliers.

def test_feasibility_monotone_in_rho_sector():
    for kappa, c in [(5.0, 1.0), (10.0, 1.3), (2.0, 1.7)]:
        fc = FunctionClass(1.0, kappa)
        interval = interval_from_c(fc, c)
        cert = certify(fc, interval)
        assert cert.rho_star is not None
        for bump in (2e-4, 1e-3, 1e-2, 0.05):
            rho = min(cert.rho_star + bump, 0.99999)
            assert _probe(fc, interval, SECTOR, rho) is not None, (kappa, c, rho)
        below = cert.rho_star - 2.0 * cert.rho_tol
        assert _probe(fc, interval, SECTOR, below) is None


def test_feasibility_monotone_in_rho_wob1():
    fc = FunctionClass(1.0, 10.0)
    interval = interval_from_c(fc, 1.2)
    cert = certify(fc, interval, iqc_kind=WEIGHTED_OFF_BY_1)
    for bump in (1e-3, 2e-2):
        assert _probe(fc, cert.interval, WEIGHTED_OFF_BY_1, cert.rho_star + bump) is not None


def test_backend_agreement_on_sector_instances():
    # The closed-form lambda-interval backend and the barrier backend
    # (with P as a 1x1 matrix variable) must agree away from the boundary.
    rng = np.random.default_rng(9)
    for _ in range(12):
        m = float(rng.uniform(0.5, 2.0))
        L = m * float(rng.uniform(1.5, 15.0))
        fc = FunctionClass(m, L)
        alpha = float(rng.uniform(0.3 / L, 1.7 / L))
        base = closed_form_rate(alpha, fc)
        fc_n, alphas = reduced(fc, StepSizeInterval(alpha, alpha))
        eps = default_eps_feas(fc_n.kappa())
        for rho in (min(base + 0.02, 0.9999), max(base - 0.02, 1e-3)):
            lmi = _lmi(fc, StepSizeInterval(alpha, alpha), SECTOR)
            direct = sector_lambda(rho, alphas, fc_n, eps)
            runs = _runs(lmi, rho, (), eps)
            via_ellipsoid = ellipsoid_feasibility(runs, start=_start(1))
            assert (direct is None) == (via_ellipsoid is None), (m, L, alpha, rho)


def test_start_center_is_inside_the_barrier_domain():
    # A certify's first solve starts from P = I/s and lambda = R/2, the
    # center of the unit-trace P >= 0 and of the segment 0 <= lambda <= R:
    # strictly inside P >= DELTA_PD * I and the solver's ball, so the
    # barrier starts inside its domain at every rate (t absorbs the
    # endpoint blocks).
    for s in (1, 2, 3, 4, 5):
        center = certifier._start(s)
        assert not center.flags.writeable
        assert center[-1] == 0.5 * initial_radius(len(center))
        lmi = augment(10.0, (0.1, 0.2), s - 1)
        runs = certifier._runs(lmi, 0.9, certifier._weights(0.9, s - 1, None), 1e-8)
        s0, coeffs, _ = runs[0]
        p_blocks = np.linalg.eigvalsh(s0 + np.tensordot(center, coeffs, axes=1))[:, -1]
        assert p_blocks == pytest.approx([-1.0 / s])
        assert -1.0 / s < -certifier.DELTA_PD
        assert center @ center < initial_radius(len(center)) ** 2
        p = lmi.p[0] + np.tensordot(center[:-1], lmi.p[1:], axes=1)
        assert_allclose(p, np.eye(s) / s, atol=1e-15)



def test_each_warm_start_is_the_point_of_the_lowest_feasible_rate(monkeypatch, capsys):
    # feasible_at_rho hands the solver the witness of the lowest rate solved
    # feasible as it stands, with no ball check of its own: that witness's
    # free entries and lambda are the point the solver returned for it (the
    # basis sum only adds zeros to each, which can flip the sign of a zero),
    # and the solver returns points strictly inside its ball.  ``augment``
    # runs once per dynamic certify, at its set-up, so it starts a record.
    solve, probe, build = (certifier.ellipsoid_feasibility, certifier.feasible_at_rho,
                           certifier.augment)
    current = {}  # the certify's current rate, and its lowest feasible (rate, point)
    starts = {"cold": 0, "warm": 0}

    def augment(*args):
        current.clear()
        return build(*args)

    def feasible_at_rho(lmi, rho, *args, **kwargs):
        current["rho"] = rho
        return probe(lmi, rho, *args, **kwargs)

    def spy(runs, start=None):
        lowest = current.get("lowest")
        if lowest is None:
            starts["cold"] += 1
            assert start is certifier._start(runs[0][0].shape[1])
        else:
            starts["warm"] += 1
            assert (start + 0.0).tobytes() == (lowest[1] + 0.0).tobytes()
            assert start @ start < initial_radius(len(start)) ** 2
        point = solve(runs, start=start)
        if point is not None:
            assert lowest is None or current["rho"] < lowest[0]
            current["lowest"] = (current["rho"], point.copy())
        return point

    monkeypatch.setattr(certifier, "augment", augment)
    monkeypatch.setattr(certifier, "feasible_at_rho", feasible_at_rho)
    monkeypatch.setattr(certifier, "ellipsoid_feasibility", spy)
    interval = interval_from_c(FC10, 1.2)
    for kind, order in ((WEIGHTED_OFF_BY_1, None), (ZAMES_FALB, 2), (ZAMES_FALB, 3)):
        before = dict(starts)
        assert certify(FC10, interval, iqc_kind=kind, zf_order=order).feasible
        assert starts["cold"] == before["cold"] + 1 and starts["warm"] > before["warm"]
    before = dict(starts)
    assert main(["sweep-c", "--kappa", "10", "--iqc", "wob1", "--c-min", "1.0",
                 "--c-max", "1.9", "--points", "4", "--rho-tol", "1e-3"]) == 0
    assert "false" not in capsys.readouterr().out
    assert starts["cold"] == before["cold"] + 4 and starts["warm"] > before["warm"]


def test_scale_invariance_quick():
    for m, L, c in [(0.5, 5.0, 1.2), (3.0, 30.0, 1.0), (0.2, 1.0, 1.5)]:
        fc = FunctionClass(m, L)
        fc1 = FunctionClass(1.0, L / m)
        r = certify(fc, interval_from_c(fc, c)).rho_star
        r1 = certify(fc1, interval_from_c(fc1, c)).rho_star
        assert r == pytest.approx(r1, abs=2e-4)


def _count_solves(mp) -> list:
    """Append to the returned list at every barrier solve."""
    solves, solve = [], certifier.ellipsoid_feasibility
    mp.setattr(certifier, "ellipsoid_feasibility",
               lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    return solves


def test_pinned_weights_are_respected(monkeypatch, solver_calls):
    cert = certify(FC10, interval_from_c(FC10, 1.0),
                   iqc_kind=WEIGHTED_OFF_BY_1, weights=(0.1,))
    assert cert.rho_star is not None
    assert cert.witness.weights == (0.1,)
    assert verify_certificate(cert)
    # wob1's h1 = 0.95 is admissible only at rho^2 >= 0.95: every lower
    # trial rate counts as infeasible without a solve, so the rate lands
    # just above sqrt(0.95), where default weights would certify 0.9167.
    # The probe rejects those rates itself, so the check counts barrier
    # solves: one per probe at rho^2 >= 0.95.
    solves = _count_solves(monkeypatch)
    solver_calls.clear()
    cert = certify(FC10, interval_from_c(FC10, 1.2),
                   iqc_kind=WEIGHTED_OFF_BY_1, weights=(0.95,))
    assert cert.witness.weights == (0.95,)
    assert math.sqrt(0.95) < cert.rho_star <= math.sqrt(0.95) + cert.rho_tol
    assert len(solves) == sum(rho * rho >= 0.95 for rho in solver_calls) > 0
    assert verify_certificate(cert)


def test_inadmissible_pinned_weights_make_no_solve(monkeypatch):
    # wob1's h1 = 0.95 is inadmissible at rate 0.96 (0.96^2 < 0.95): the
    # probe is infeasible there without a barrier solve.  Where h1 is
    # admissible it solves, and its witness carries h1.
    solves = _count_solves(monkeypatch)
    lmi = _lmi(FC10, interval_from_c(FC10, 1.2), WEIGHTED_OFF_BY_1)
    eps = default_eps_feas(10.0)
    assert feasible_at_rho(lmi, 0.96, (0.95,), eps) is None
    assert solves == []
    wit = feasible_at_rho(lmi, 0.98, (0.95,), eps)
    assert len(solves) == 1 and wit.weights == (0.95,)


@pytest.mark.parametrize(
    "kind, zf_order, weights",
    [(ZAMES_FALB, 2, (0.1, 0.1, 0.1)), (WEIGHTED_OFF_BY_1, 2, (0.1, 0.5)),
     (SECTOR, 2, (0.1,))],
    ids=["zf-three-weights-order-two", "wob1-two-weights", "sector-any-weights"],
)
def test_weights_must_fit_the_multiplier(kind, zf_order, weights):
    # Unchecked, the zf call solved a 3-tap filter (P of order 4) and
    # reported zf_order 2, wob1 recorded both weights but used only 0.1,
    # and sector ignored its weights.
    with pytest.raises(InvalidInput, match="weight"):
        certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind,
                zf_order=zf_order, weights=weights)


def test_witness_invariants():
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=WEIGHTED_OFF_BY_1)
    wit = cert.witness
    assert wit.lam >= 0.0
    assert cert.slack <= 0.0
    assert np.trace(wit.p) == pytest.approx(1.0, abs=1e-12)
    evs = np.linalg.eigvalsh(wit.p)
    assert evs[0] >= 1e-8 - 1e-15


@pytest.mark.parametrize("kind, zf_order", [(SECTOR, 1), (WEIGHTED_OFF_BY_1, 1),
                                            (ZAMES_FALB, 2), (ZAMES_FALB, 3)],
                         ids=["sector", "wob1", "zf2", "zf3"])
def test_witness_p_is_read_only_and_exactly_symmetric(kind, zf_order):
    fc = FunctionClass(1.0, 7.0)
    cert = certify(fc, interval_from_c(fc, 1.3), iqc_kind=kind, zf_order=zf_order)
    p = cert.witness.p
    s = taps(kind, zf_order) + 1
    assert isinstance(p, np.ndarray) and p.shape == (s, s)
    assert p.tobytes() == np.ascontiguousarray(p.T).tobytes()
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0, 0] = 2.0


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([(SECTOR, 0), (WEIGHTED_OFF_BY_1, 1), (ZAMES_FALB, 1),
                             (ZAMES_FALB, 2), (ZAMES_FALB, 3)]),
       log_kappa=st.floats(0.0, 2.0), c=st.floats(1.0, 1.6), frac=st.floats(0.05, 0.95))
@example(kind=(WEIGHTED_OFF_BY_1, 1), log_kappa=1.0, c=1.2, frac=0.5)
def test_endpoint_blocks_imply_a_positive_lambda(kind, log_kappa, c, frac):
    # The barrier has no lambda >= 0 run of its own: an endpoint block's
    # input diagonal entry is b_c^T P b_c - 2 lambda <= -eps, and P >=
    # DELTA_PD * I, so every witness has lambda >= (b_c^T P b_c + eps) / 2
    # > 0.  This holds on dynamic data and on sector data (order 1) alike.
    kind, k = kind
    fc = FunctionClass(1.0, 10.0 ** log_kappa)
    interval = interval_from_c(fc, c)
    fc_n, alphas = reduced(fc, interval)
    eps = default_eps_feas(fc_n.kappa())
    rho = 1.0 - frac * (1.0 - _exact_rate(fc, interval))
    lmi = augment(fc_n.kappa(), alphas, k)
    h = _weights(rho, k, None)
    wit = feasible_at_rho(lmi, rho, h, eps)
    if wit is None:
        return
    assert (_blocks(lmi, rho, h, wit.p, wit.lam)[:, -1, -1] <= -eps).all()
    for b in lmi.b:
        assert 2.0 * wit.lam >= b @ wit.p @ b + eps > 0.0
    assert wit.p.tobytes() == np.ascontiguousarray(wit.p.T).tobytes()
    assert not wit.p.flags.writeable


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, MAX_ZF_ORDER + 1), seed=st.integers(0, 2 ** 32 - 1))
def test_p_from_free_coordinates_is_exactly_symmetric(s, seed):
    # feasible_at_rho builds P as lmi.p[0] + sum_i v_i lmi.p[i], with no
    # re-symmetrization: every basis matrix is symmetric, so entries (a, b)
    # and (b, a) go through the same float operations in the same order, at
    # any magnitude of the free coordinates v.
    rng = np.random.default_rng(seed)
    lmi = augment(10.0, (0.1, 0.2), s - 1)
    n = len(lmi.p) - 1
    v = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    p = lmi.p[0] + sum(x * b for x, b in zip(v, lmi.p[1:]))
    h = _weights(0.9, s - 1, None)
    with mock.patch.object(certifier, "ellipsoid_feasibility", return_value=np.append(v, 0.5)):
        wit = feasible_at_rho(lmi, 0.9, h, 1e-8)
    assert wit.p.tobytes() == p.tobytes() == np.ascontiguousarray(p.T).tobytes()
    assert not wit.p.flags.writeable


def test_certificate_valid_in_dimension_two():
    # Every block is a multiple of the identity in the ambient dimension, so
    # the inequality family decouples coordinate-wise: the Kronecker-lifted
    # n=2 block (with P x I_2) has exactly the scalar block's spectrum,
    # duplicated, and the scalar certificate carries over unchanged.
    cert = certify(FC10, interval_from_c(FC10, 1.4))
    wit = cert.witness
    eye = np.eye(2)
    lmi = _lmi(FC10, cert.interval, SECTOR)
    for scalar in _blocks(lmi, cert.rho_star, (), wit.p, wit.lam):
        lifted = np.kron(scalar, eye)
        got = np.sort(np.linalg.eigvalsh(lifted))
        expected = np.sort(np.repeat(np.linalg.eigvalsh(scalar), 2))
        assert_allclose(got, expected, atol=1e-12)
        assert got.max() <= 1e-9


def test_rate_monotone_in_kappa_and_c_on_coarse_sweeps():
    rates_kappa = [certify(FunctionClass(1.0, k),
                           interval_from_c(FunctionClass(1.0, k), 1.2)).rho_star
                   for k in (2.0, 5.0, 10.0, 20.0)]
    assert all(a <= b + 1e-12 for a, b in zip(rates_kappa, rates_kappa[1:]))
    fc = FunctionClass(1.0, 5.0)
    rates_c = [certify(fc, interval_from_c(fc, c)).rho_star
               for c in (1.0, 1.2, 1.4, 1.6)]
    assert all(a <= b + 1e-12 for a, b in zip(rates_c, rates_c[1:]))


def test_dynamic_multipliers_never_significantly_worse():
    # The dynamic multipliers may certify a better rate than the sector
    # multiplier on wide intervals, but never a meaningfully worse one.
    for kappa, c in [(2.0, 1.0), (2.0, 1.2), (10.0, 1.0), (10.0, 1.2)]:
        fc = FunctionClass(1.0, kappa)
        interval = interval_from_c(fc, c)
        r_sector = certify(fc, interval).rho_star
        r_wob1 = certify(fc, interval, iqc_kind=WEIGHTED_OFF_BY_1).rho_star
        assert r_wob1 <= r_sector + 2e-4, (kappa, c)


@settings(max_examples=60, deadline=None)
@given(
    log_kappa=st.floats(0.0, 2.0),
    c=st.floats(1.0, 2.0, exclude_max=True),
    kind=st.sampled_from([SECTOR, WEIGHTED_OFF_BY_1]),
)
@example(log_kappa=1.0, c=1.2, kind=WEIGHTED_OFF_BY_1)
def test_certified_rate_never_below_exact_rate(log_kappa, c, kind):
    # The exact worst-case rate over step sequences in [lo, hi] is the larger
    # of the two constant-step rates; no sound certificate can beat it.
    fc = FunctionClass(1.0, 10.0 ** log_kappa)
    interval = interval_from_c(fc, c)
    cert = certify(fc, interval, iqc_kind=kind)
    if cert.rho_star is None:
        return
    assert cert.rho_star >= _exact_rate(fc, interval) - cert.rho_tol, (fc.L, c, kind)


@settings(max_examples=60, deadline=None)
@given(
    log_kappa=st.floats(0.0, 2.0),
    c=st.floats(1.0, 2.0, exclude_max=True),
    kind=st.sampled_from([SECTOR, WEIGHTED_OFF_BY_1]),
)
@example(log_kappa=2.0, c=1.999, kind=SECTOR)  # the upper endpoint sets the rate
@example(log_kappa=1.0, c=1.2, kind=ZAMES_FALB)
@example(log_kappa=0.5, c=1.5, kind=ZAMES_FALB)
@example(log_kappa=1.6, c=1.6, kind=ZAMES_FALB)
def test_solver_infeasible_below_exact_rate(log_kappa, c, kind):
    # The premise that lets certify skip these rates: no witness exists
    # below the exact worst-case rate, for either backend.
    fc = FunctionClass(1.0, 10.0 ** log_kappa)
    interval = interval_from_c(fc, c)
    exact = _exact_rate(fc, interval)
    assume(exact > 1e-6)
    for rho in (exact - 1e-9, exact * (1.0 - 1e-4)):
        try:
            assert _probe(fc, interval, kind, rho) is None, (fc.L, c, kind, rho)
        except WeightOutOfRange:
            continue


def _plain_bisection(fc, interval, kind, rho_tol=1e-4):
    """The rate search as it was before it speculated where it ends: every
    trial rate at or above the exact rate goes to the solver in bisection
    order, each a cold ``_probe``.  Returns ((rho, witness) or None, trial
    rates, solver calls)."""
    r_exact = _exact_rate(fc, interval)
    trials = solves = 0

    def probe(rho):
        nonlocal trials, solves
        trials += 1
        if rho < r_exact:
            return None
        try:
            wit = _probe(fc, interval, kind, rho)
        except WeightOutOfRange:
            return None
        solves += 1
        return None if wit is None else (rho, wit)

    hi = search.RHO_HI - rho_tol
    found_hi = probe(hi)
    if found_hi is None:
        return None, trials, solves
    lo = search.RHO_LO
    found_lo = probe(lo)
    if found_lo is not None:
        return found_lo, trials, solves
    while hi - lo > rho_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        found = probe(mid)
        if found is not None:
            hi, found_hi = mid, found
        else:
            lo = mid
    return found_hi, trials, solves


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(1.5, 60.0),
    c=st.floats(1.0, 1.95),
    kind=st.sampled_from([SECTOR, WEIGHTED_OFF_BY_1, ZAMES_FALB]),
)
@example(kappa=10.0, c=1.2, kind=SECTOR)  # speculative solve infeasible
@example(kappa=10.0, c=1.2, kind=WEIGHTED_OFF_BY_1)  # tight: settled by one solve
@example(kappa=10.0, c=1.2, kind=ZAMES_FALB)
def test_certify_matches_plain_bisection(kappa, c, kind):
    # Speculating where the search ends, and starting each dynamic solve
    # from the lowest-rate witness found so far, change how many solves it
    # makes and where a solve stops inside the feasible set, never the
    # verdicts: same rate and trial count as the plain bisection of cold
    # solves, at most one solve more, and a witness that verifies.
    fc = FunctionClass(1.0, kappa)
    interval = interval_from_c(fc, c)
    found, trials, solves = _plain_bisection(fc, interval, kind)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _spy_solvers(mp, calls.append)
        cert = certify(fc, interval, iqc_kind=kind)
    assert cert.bisection_iters == trials
    assert len(calls) <= solves + 1
    if found is None:
        assert cert.rho_star is None
        return
    assert cert.rho_star == found[0]
    assert verify_certificate(cert)
    assert cert.cond_p == cond_spd(cert.witness.p)


@settings(max_examples=150, deadline=None)
@given(
    log_m=st.floats(-3.0, 3.0),
    log_kappa=st.floats(0.0, 6.0),
    c=st.floats(1.0, 2.2),
    c1=st.none() | st.floats(0.5, 3.0),
    rho_tol=st.sampled_from([1e-3, 1e-4, 1e-6, 1e-8]),
)
@example(log_m=0.0, log_kappa=0.0, c=1.0, c1=None, rho_tol=1e-4)  # L == m
@example(log_m=0.5, log_kappa=1.0, c=0.5, c1=2.0, rho_tol=1e-8)  # c1*c2 == 1
@example(log_m=-3.0, log_kappa=6.0, c=1.5, c1=None, rho_tol=1e-6)
@example(log_m=0.0, log_kappa=math.log10(1.0 + 1e-12), c=1.921875, c1=None, rho_tol=1e-8)
@example(log_m=0.0, log_kappa=math.log10(1.0 + 1e-9), c=1.5, c1=None, rho_tol=1e-8)
@example(log_m=0.5, log_kappa=1.0, c=1.3, c1=1.8, rho_tol=1e-8)  # the touching rate binds
def test_sector_certify_matches_the_numpy_instance_bisection(log_m, log_kappa, c, c1,
                                                             rho_tol):
    # Sector certify speculates where its search ends; the reference
    # bisection solves every rate at or above the exact rate with
    # sector_lambda on the reduced instance and default_eps_feas.  Given c1,
    # c is used as c2; an interval with c1 * c2 == 1 is degenerate.
    m = 10.0 ** log_m
    fc = FunctionClass(m, m * 10.0 ** log_kappa)
    if c1 is None:
        interval = interval_from_c(fc, c)
    else:
        try:
            interval = interval_asymmetric(fc, c1, c)
        except InvalidC:
            assume(False)
    found, trials, _ = _plain_bisection(fc, interval, SECTOR, rho_tol)
    cert = certify(fc, interval, rho_tol=rho_tol)
    assert cert.bisection_iters == trials
    assert cert.feasible == (found is not None)
    if found is None:
        assert cert.rho_star is None and cert.witness is None and cert.cond_p is None
        return
    rho, wit = found
    assert cert.rho_star == rho
    assert cert.witness.lam == wit.lam
    assert cert.cond_p == cond_spd(wit.p) == 1.0


def _float_sector_bisection(fc, interval, rho_tol):
    """The plain bisection over ``sector_lambda`` in floats: every trial
    rate at or above the exact rate is solved, in bisection order.  Returns
    ((rho, lambda) or None, trial rates, solves)."""
    r_exact = _exact_rate(fc, interval)
    fc_n, alphas = reduced(fc, interval)
    eps = default_eps_feas(fc_n.kappa())
    trials = solves = 0

    def probe(rho):
        nonlocal trials, solves
        trials += 1
        if rho < r_exact:
            return None
        solves += 1
        lam = sector_lambda(rho, alphas, fc_n, eps)
        return None if lam is None else (rho, lam)

    hi = search.top_rate(rho_tol)
    found = probe(hi)
    if found is None:
        return None, trials, solves
    lo = search.RHO_LO
    found_lo = probe(lo)
    if found_lo is not None:
        return found_lo, trials, solves
    while hi - lo > rho_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        verdict = probe(mid)
        if verdict is None:
            lo = mid
        else:
            hi, found = mid, verdict
    return found, trials, solves


@settings(max_examples=300, deadline=None)
@given(
    log_kappa=st.floats(0.0, 308.0),
    c=st.floats(1.0, 2.5),
    log_tol=st.floats(-12.0, -3.0),
)
@example(log_kappa=0.0, c=1.921875, log_tol=-8.0)
@example(log_kappa=2.0, c=1.0, log_tol=-12.0)  # one step size
@example(log_kappa=1.0, c=1.2, log_tol=-12.0)
@example(log_kappa=308.0, c=2.0, log_tol=-4.0)  # c * L overflows
# kappa 1 + 1e-9: the estimate lies above where sector_lambda turns
# feasible, so the lower end below g is feasible too and the bisection
# decides (22 solves when it re-solved every rate above g; the plain
# bisection makes 20).
@example(log_kappa=math.log10(1.000000001), c=1.8177160556473584,
         log_tol=math.log10(6.48714079878907e-10))
def test_sector_certify_is_the_float_bisection(log_kappa, c, log_tol):
    # Sector's closed-form threshold and its two checks change how many
    # solves certify makes, never what it returns, over every class whose
    # condition number is a float; nothing raises or warns on the way.  The
    # checks cost at most one solve more than the plain bisection, and no
    # rate is solved twice.
    fc = FunctionClass(1.0, 10.0 ** log_kappa)
    interval = interval_from_c(fc, c)  # 1/c/L where c * L overflows
    rho_tol = 10.0 ** log_tol
    rates = []
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        _spy_solvers(mp, rates.append)
        cert = certify(fc, interval, rho_tol=rho_tol)
    found, trials, solves = _float_sector_bisection(fc, interval, rho_tol)
    assert cert.bisection_iters == trials
    assert len(set(rates)) == len(rates) <= solves + 1
    if found is None:
        assert cert.rho_star is None and cert.witness is None
    else:
        assert (cert.rho_star, cert.witness.lam) == found


def test_sector_threshold_is_the_floor_without_an_estimate():
    # With no touching rate (one step size, a zero denominator, overflow)
    # the estimate is the larger of the floor and the endpoints' own
    # thresholds; nothing raises.
    own = sector_threshold((0.55,), FC10, 1e-8, 0.0)
    assert own > 0.0
    assert sector_threshold((0.55, 0.55), FC10, 1e-8, 0.0) == own  # zero denominator
    assert sector_threshold((0.55, 0.55), FC10, 1e-8, own + 1.0) == own + 1.0
    for kappa in (1e200, 1e300):  # (L - m)**2 overflows
        huge, tiny = FunctionClass(1.0, kappa), 1.0 / kappa
        for floor in (0.0, 0.5):
            assert sector_threshold(
                (tiny, 2.0 * tiny), huge, default_eps_feas(kappa), floor) == floor
    # At (10, 1.2) the intervals touch above the exact rate 0.9166...
    _, alphas = reduced(FC10, interval_from_c(FC10, 1.2))
    r_exact = max(closed_form_rate(alpha, FC10) for alpha in alphas)
    for floor in (0.0, r_exact):
        assert sector_threshold(alphas, FC10, default_eps_feas(10.0), floor) == pytest.approx(
            0.9212894159727856, abs=1e-15)


def test_sector_threshold_of_one_step_size_is_where_its_interval_appears():
    # With floor 0.0, one step size gives the smaller discriminant root of
    # its determinant quadratic: the rate at which its lambda interval turns
    # nonempty, just above closed_form_rate, by the eps shift.
    eps = default_eps_feas(10.0)
    own = {}
    for alpha in (0.05, 0.1, 0.12, 0.2):
        rate = own[alpha] = sector_threshold((alpha,), FC10, eps, 0.0)
        assert rate > closed_form_rate(alpha, FC10)
        assert lambda_interval_sector(rate * (1.0 - 1e-9), alpha, FC10, eps) is None
        assert lambda_interval_sector(rate * (1.0 + 1e-9), alpha, FC10, eps) is not None
    # Two step sizes are feasible only where both are: at least each one's.
    assert sector_threshold((0.05, 0.12), FC10, eps, 0.0) >= max(own[0.05], own[0.12])


@pytest.mark.parametrize("kappa, c1, c2", [
    (2.0, None, 1.2), (10.0, None, 1.0), (100.0, None, 1.0), (2.0, 2.0, 1.0)])
def test_tight_rows_where_the_exact_rate_binds_settle_in_two_solves(
        solver_calls, kappa, c1, c2):
    # At rho_tol 1e-8 eps lifts the binding endpoint's own threshold above
    # the exact rate by more than the final bracket, so the exact rate would
    # predict the wrong path (10 to 21 solves); each endpoint's threshold
    # predicts it, and the two checks settle it.
    fc = FunctionClass(1.0, kappa)
    interval = interval_from_c(fc, c2) if c1 is None else interval_asymmetric(fc, c1, c2)
    cert = certify(fc, interval, rho_tol=1e-8)
    assert len(solver_calls) <= 2
    found, trials, _ = _float_sector_bisection(fc, interval, 1e-8)
    assert (cert.rho_star, cert.witness.lam, cert.bisection_iters) == (*found, trials)


@settings(max_examples=500, deadline=None)
@given(
    log_m=st.floats(-100.0, 100.0),
    log_kappa=st.floats(0.0, 200.0),
    kind_order=st.sampled_from([(SECTOR, 1), (WEIGHTED_OFF_BY_1, 1)]
                               + [(ZAMES_FALB, k) for k in range(1, 5)]),
    rho=st.floats(1e-3, 1.0),
    fracs=st.none() | st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
@example(log_m=0.0, log_kappa=0.0, kind_order=(SECTOR, 1), rho=0.5, fracs=None)
@example(log_m=0.0, log_kappa=0.0, kind_order=(ZAMES_FALB, 1), rho=1.0, fracs=[1.0] * 4)
@example(log_m=0.0, log_kappa=0.0, kind_order=(WEIGHTED_OFF_BY_1, 1), rho=1.0, fracs=None)
def test_default_eps_feas_is_the_qf_max_bit_for_bit(log_m, log_kappa, kind_order, rho,
                                                    fracs):
    # The closed form equals 1e-9 * (1 + max |Qf entries|) of every kind's
    # reduced Qf, with default weights (fracs None) and with pinned ones,
    # each a fraction of the largest admissible rho^(2j) / k.
    kind, order = kind_order
    m = 10.0 ** log_m
    fc = FunctionClass(m, m * 10.0 ** log_kappa)
    k = taps(kind, order)
    weights = None if fracs is None or kind == SECTOR else tuple(
        u * rho ** (2 * j) / k for j, u in enumerate(fracs[:k], start=1))
    # The P-part of the data reaches kappa^2, which overflows past kappa
    # ~1e154; only Qf is read here.
    with np.errstate(over="ignore"):
        lmi = _lmi(fc, interval_from_c(fc, 1.0), kind, order)
    quad = quad_form(lmi, _weights(rho, k, weights))
    reference = 1e-9 * (1.0 + float(np.abs(quad).max()))
    fc_n, _ = reduced(fc, interval_from_c(fc, 1.0))
    assert default_eps_feas(fc.L / fc.m) == default_eps_feas(fc_n.kappa()) == reference


@pytest.mark.parametrize("kind, calls", [(SECTOR, 0), (WEIGHTED_OFF_BY_1, 1)])
def test_cond_p_needs_an_eigensolve_only_off_sector(kind, calls):
    # Every sector witness has P = [[1.0]], so its cond_p is 1.0 without an
    # eigvalsh; a wob1 P is whatever the barrier solver stopped at.
    with mock.patch.object(certifier, "cond_spd", wraps=cond_spd) as spy:
        cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind)
    assert cert.feasible and spy.call_count == calls
    if kind == SECTOR:
        assert cert.cond_p == 1.0 and cert.witness.p.tolist() == [[1.0]]
    else:
        assert cert.cond_p == cond_spd(cert.witness.p)


def test_zf2_certifies_soundly_before_onset_and_not_past_it():
    # zf at the certify default order 2: (kappa 10, c 1.2) certifies at or
    # above the exact rate; (kappa 10**1.6, c 1.6) is past the onset.
    fc = FunctionClass(1.0, 10.0)
    interval = interval_from_c(fc, 1.2)
    cert = certify(fc, interval, iqc_kind=ZAMES_FALB, zf_order=2)
    assert cert.rho_star is not None
    assert cert.rho_star >= _exact_rate(fc, interval) - cert.rho_tol
    fc = FunctionClass(1.0, 10.0 ** 1.6)
    cert = certify(fc, interval_from_c(fc, 1.6), iqc_kind=ZAMES_FALB, zf_order=2)
    assert cert.rho_star is None


# sha256 over (rho_star, lambda, cond_p, weights, bisection_iters) and the
# bytes of P: a change to how the inequality's data is built or summed that
# moves a single bit of a dynamic witness fails here.
PINNED_WITNESSES = {
    ("wob1", 10.0, 1.2, None): "e84a4810bc878f38e3db060b11afc19acbb14d5b73d05d1c3e8c19758acdc092",
    ("wob1", 7.0, 1.3, None): "aac12e4dbdf546e6d0c55ac1a42ca04992c6485062c3fdf06d6578b696d1f0f0",
    ("wob1", 5.0, 1.5, None): "d63613ccf118ef874ec50539f28026e5ceaafe78717255b43760471f0e44738d",
    ("zf:1", 10.0, 1.2, None): "e84a4810bc878f38e3db060b11afc19acbb14d5b73d05d1c3e8c19758acdc092",
    ("zf:1", 7.0, 1.3, None): "aac12e4dbdf546e6d0c55ac1a42ca04992c6485062c3fdf06d6578b696d1f0f0",
    ("zf:1", 5.0, 1.5, None): "d63613ccf118ef874ec50539f28026e5ceaafe78717255b43760471f0e44738d",
    ("zf:2", 10.0, 1.2, None): "2c2f67d98264d3493882f468c882d3d832b6d440c32444ef9f50b56c3cfac225",
    ("zf:2", 7.0, 1.3, None): "256aef52b70533889b53af756e50b705062b01dc297f62d4178a675364e1a008",
    ("zf:2", 5.0, 1.5, None): "308bb00c7a5529e603c2c78f2462bccd14543014fd79f1d237ea89311642aed6",
    ("zf:3", 10.0, 1.2, None): "ea87e030ea99e123bd3ecea459973f977cb41c71c763ea291a7843081e63032e",
    ("zf:3", 7.0, 1.3, None): "fd3d30866c78d38358eb620451c0e0c787f89b19f638086e3c52d52afc28da88",
    ("zf:3", 5.0, 1.5, None): "8c518152bc33d31ec2c0d3f39b4141b5253a2293d5bf373904f76c81ac29e745",
    ("wob1", 10.0, 1.2, (0.5,)):
        "72ba4d5a088aca64365d08033086ee8de3a1839aa6b593bc7727604359010d34",
    ("zf:1", 10.0, 1.2, (0.4,)):
        "f8c5386c6b32aaa123a8d12cdd5cf8e8a8e0e474cd92675643270555ea72361e",
    ("zf:2", 10.0, 1.2, (0.4, 0.2)):
        "a264f83eb2a3ed58adacb3ee277126c5a6e36549a9a5f8e561e53027bbe10df9",
    ("zf:3", 10.0, 1.2, (0.3, 0.2, 0.1)):
        "5efabd1342cac3bb78bac86c0ee52e52b9852709a37ecca21bb318f8ddb8fdaa",
}


@pytest.mark.parametrize("case", list(PINNED_WITNESSES), ids=str)
def test_dynamic_witnesses_pinned(case):
    iqc, kappa, c, weights = case
    kind, _, order = iqc.partition(":")
    fc = FunctionClass(1.0, kappa)
    cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=int(order or 2),
                   weights=weights)
    digest = hashlib.sha256(repr((cert.rho_star, cert.witness.lam, cert.cond_p,
                                  cert.witness.weights, cert.bisection_iters)).encode())
    digest.update(cert.witness.p.tobytes())
    assert digest.hexdigest() == PINNED_WITNESSES[case]


# rho_star (as float.hex) and bisection_iters of each pinned witness case:
# a change to where the solver stops inside the feasible set moves the
# witness bits above, never these.
PINNED_RATES = {
    ("wob1", 10.0, 1.2, None): ("0x1.d556e7a0f9096p-1", 16),
    ("wob1", 7.0, 1.3, None): ("0x1.c7c2bb98c7e28p-1", 16),
    ("wob1", 5.0, 1.5, None): ("0x1.bbbe1eecbfb15p-1", 16),
    ("zf:1", 10.0, 1.2, None): ("0x1.d556e7a0f9096p-1", 16),
    ("zf:1", 7.0, 1.3, None): ("0x1.c7c2bb98c7e28p-1", 16),
    ("zf:1", 5.0, 1.5, None): ("0x1.bbbe1eecbfb15p-1", 16),
    ("zf:2", 10.0, 1.2, None): ("0x1.d556e7a0f9096p-1", 16),
    ("zf:2", 7.0, 1.3, None): ("0x1.c7c2bb98c7e28p-1", 16),
    ("zf:2", 5.0, 1.5, None): ("0x1.bbbe1eecbfb15p-1", 16),
    ("zf:3", 10.0, 1.2, None): ("0x1.d55ee56041893p-1", 16),
    ("zf:3", 7.0, 1.3, None): ("0x1.c7c2bb98c7e28p-1", 16),
    ("zf:3", 5.0, 1.5, None): ("0x1.bbbe1eecbfb15p-1", 16),
    ("wob1", 10.0, 1.2, (0.5,)): ("0x1.d556e7a0f9096p-1", 16),
    ("zf:1", 10.0, 1.2, (0.4,)): ("0x1.d556e7a0f9096p-1", 16),
    ("zf:2", 10.0, 1.2, (0.4, 0.2)): ("0x1.d556e7a0f9096p-1", 16),
    ("zf:3", 10.0, 1.2, (0.3, 0.2, 0.1)): ("0x1.d556e7a0f9096p-1", 16),
}


def test_pinned_rates_cover_the_pinned_witnesses():
    assert list(PINNED_RATES) == list(PINNED_WITNESSES)


@pytest.mark.parametrize("case", list(PINNED_RATES), ids=str)
def test_dynamic_rates_pinned(case):
    iqc, kappa, c, weights = case
    kind, _, order = iqc.partition(":")
    fc = FunctionClass(1.0, kappa)
    cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=int(order or 2),
                   weights=weights)
    assert (cert.rho_star.hex(), cert.bisection_iters) == PINNED_RATES[case]
