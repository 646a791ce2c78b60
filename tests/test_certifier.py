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
    Certificate,
    InvalidInput,
    _blocks,
    _matrix_backend,
    _weights,
    certify,
    closed_form_rate,
    cond_spd,
    default_eps_feas,
    feasible_at_rho,
    lambda_interval_sector,
    max_eigenvalue,
    sector_lambda,
    taps,
    verify_certificate,
)
from ratecert.ellipsoid import SolverBudgetExceeded, initial_radius
from ratecert.iqc import (
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
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
from ratecert.search import endpoint_threshold, sector_threshold

FC10 = FunctionClass(1.0, 10.0)


def _exact_rate(fc, interval):
    return max(closed_form_rate(interval.lo, fc), closed_form_rate(interval.hi, fc))


def _lmi(fc, interval, kind, zf_order=2):
    """The data certify builds for ``kind`` over ``interval``."""
    fc_n, alphas = reduced(fc, interval)
    return augment(fc_n.kappa(), alphas, taps(kind, zf_order))


def _probe(fc, interval, kind, rho, zf_order=2, weights=None, eps=None):
    """One probe from scratch, as certify makes it; raises WeightOutOfRange
    where the weights are inadmissible at ``rho``."""
    h = _weights(kind, rho, taps(kind, zf_order), weights)
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

    def matrix(lmi, rho, h, eps=None):
        on_call(rho)
        return feasible_at_rho(lmi, rho, h, eps)

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
    with pytest.raises(InvalidInput):
        _blocks(augment(10.0, (0.1,), 0), 0.9, (), np.eye(2), 0.0)


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
        cd[:, 0], cd[:, s], cd[0, 1:s] = [7.0, -1.0], [-1.0, 1.0], cert.weights
        quad = cd.T @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ cd
        assert np.array_equal(quad_form(lmi, cert.weights), quad)
        for alpha, got in zip(interval.endpoints, _blocks(lmi, rho, cert.weights, p, lam)):
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

    def matrix(lmi, rho, h, eps=None):
        seen.append(eps)
        return feasible_at_rho(lmi, rho, h, eps)

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
    for kind, top in ((SECTOR, certifier.RHO_HI), (WEIGHTED_OFF_BY_1, 0.95)):
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
    expected = _slack_at(FC10, interval, kind, cert.rho_star, cert.weights, cert.witness,
                         zf_order)
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
        wit, n = cert.witness, len(cert.weights)
        assert verify_certificate(cert), kind
        # Below the exact rate, with weights admissible there, so that the
        # blocks, not the weight check, reject it.
        below = dataclasses.replace(
            cert, rho_star=0.5, weights=default_weights(kind, 0.5, n) if n else ())
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
            inadmissible = (cert.weights[0] + 1e-3, *cert.weights[1:])
            assert not verify_certificate(dataclasses.replace(cert, weights=inadmissible))


def test_verify_requires_witness():
    cert = certify(FC10, interval_from_c(FC10, 2.1))
    with pytest.raises(InvalidInput):
        verify_certificate(cert)


@pytest.mark.parametrize("p", [np.eye(2) / 2, np.ones((2, 3)), np.full((3, 3), np.nan)],
                         ids=["wrong-order", "not-square", "nan"])
def test_verify_rejects_a_malformed_witness_p(p):
    # A zf:2 witness P is 3x3 and finite; any other P is a rejected
    # certificate, not an error.
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=2)
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, p=p))
    assert verify_certificate(bad) is False


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind, order", [(SECTOR, 2), (WEIGHTED_OFF_BY_1, 2), (ZAMES_FALB, 2)],
                         ids=["sector", "wob1", "zf2"])
def test_verify_rejects_a_non_finite_lambda(kind, order, lam):
    # A lambda of NaN made the dynamic replay raise LinAlgError, and an
    # infinite one fail through a RuntimeWarning (inf * 0 in the blocks).
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=kind, zf_order=order)
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, lam=lam))
    assert verify_certificate(bad) is False


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


def test_verify_dynamic_multiplier_roundtrip():
    cert = certify(FC10, interval_from_c(FC10, 1.2), iqc_kind=ZAMES_FALB, zf_order=2)
    assert verify_certificate(cert)
    assert len(cert.weights) == 2


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
        for rho in (min(base + 0.02, 0.9999), max(base - 0.02, 1e-3)):
            lmi = _lmi(fc, StepSizeInterval(alpha, alpha), SECTOR)
            direct = feasible_at_rho(lmi, rho, ())
            via_ellipsoid = _matrix_backend(lmi, rho, (), default_eps_feas(lmi.kappa))
            assert (direct is None) == (via_ellipsoid is None), (m, L, alpha, rho)


def test_start_center_is_inside_the_barrier_domain():
    # Each solve starts from P = I/s and lambda = R/2, the center of the
    # unit-trace P >= 0 and of the segment 0 <= lambda <= R: strictly inside
    # lambda >= 0, P >= DELTA_PD * I and the solver's ball, so the barrier
    # starts inside its domain at every rate (t absorbs the endpoint blocks).
    for s in (1, 2, 3, 4, 5):
        center = certifier._start(s)
        assert not center.flags.writeable
        kind = ZAMES_FALB if s > 1 else SECTOR
        lmi = augment(10.0, (0.1, 0.2), s - 1)
        runs = certifier._runs(lmi, 0.9, certifier._weights(kind, 0.9, s - 1, None), 1e-8)
        (lam_block,), p_blocks = (np.linalg.eigvalsh(
            s0 + np.tensordot(center, coeffs, axes=1))[:, -1] for s0, coeffs, _ in runs[:2])
        assert lam_block == -0.5 * initial_radius(len(center))
        assert p_blocks == pytest.approx([-1.0 / s])
        assert -1.0 / s < -certifier.DELTA_PD
        assert center @ center < initial_radius(len(center)) ** 2
        p = lmi.p[0] + np.tensordot(center[:-1], lmi.p[1:], axes=1)
        assert_allclose(p, np.eye(s) / s, atol=1e-15)


def test_scale_invariance_quick():
    for m, L, c in [(0.5, 5.0, 1.2), (3.0, 30.0, 1.0), (0.2, 1.0, 1.5)]:
        fc = FunctionClass(m, L)
        fc1 = FunctionClass(1.0, L / m)
        r = certify(fc, interval_from_c(fc, c)).rho_star
        r1 = certify(fc1, interval_from_c(fc1, c)).rho_star
        assert r == pytest.approx(r1, abs=2e-4)


def test_pinned_weights_are_respected():
    cert = certify(FC10, interval_from_c(FC10, 1.0),
                   iqc_kind=WEIGHTED_OFF_BY_1, weights=(0.1,))
    assert cert.rho_star is not None
    assert cert.weights == (0.1,)
    assert verify_certificate(cert)


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
    order.  Returns ((rho, witness) or None, trial rates, solver calls)."""
    r_exact = _exact_rate(fc, interval)
    trials = solves = 0

    def probe(rho):
        nonlocal trials, solves
        trials += 1
        if rho < r_exact:
            return None
        try:
            h = _weights(kind, rho, taps(kind, 2), None)
        except WeightOutOfRange:
            return None
        solves += 1
        wit = feasible_at_rho(_lmi(fc, interval, kind), rho, h)
        return None if wit is None else (rho, wit)

    hi = certifier.RHO_HI - rho_tol
    found_hi = probe(hi)
    if found_hi is None:
        return None, trials, solves
    lo = certifier.RHO_LO
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
    kind=st.sampled_from([SECTOR, WEIGHTED_OFF_BY_1]),
)
@example(kappa=10.0, c=1.2, kind=SECTOR)  # speculative solve infeasible
@example(kappa=10.0, c=1.2, kind=WEIGHTED_OFF_BY_1)  # tight: settled by one solve
def test_certify_matches_plain_bisection(kappa, c, kind):
    # Speculating where the search ends changes how many solves it makes,
    # never what it returns: same rate, trial count and witness bits, and
    # at most one solve more than the plain bisection.
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
    rho, wit = found
    assert cert.rho_star == rho
    assert cert.witness.lam == wit.lam
    assert cert.witness.p.tobytes() == wit.p.tobytes()
    assert cert.cond_p == cond_spd(wit.p)


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
    # Sector certify works in plain floats; the reference bisection solves
    # every rate at or above the exact rate with feasible_at_rho on the
    # numpy data and default_eps_feas.  Given c1, c is used as c2; an
    # interval with c1 * c2 == 1 is degenerate.
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


def test_sector_threshold_is_zero_without_an_estimate():
    # 0.0 leaves the exact rate as certify's estimate; nothing raises.
    assert sector_threshold((0.1,), FC10, 1e-8) == 0.0  # one step size
    assert sector_threshold((0.55, 0.55), FC10, 1e-8) == 0.0  # zero denominator
    huge = FunctionClass(1.0, 1e200)  # (L - m)**2 overflows
    assert sector_threshold((1e-200, 2e-200), huge, default_eps_feas(1e200)) == 0.0
    # At (10, 1.2) the intervals touch above the exact rate 0.9166...
    _, alphas = reduced(FC10, interval_from_c(FC10, 1.2))
    assert sector_threshold(alphas, FC10, default_eps_feas(10.0)) == pytest.approx(
        0.9212894159727856, abs=1e-15)


def test_endpoint_threshold_is_where_the_endpoint_interval_appears():
    # The smaller discriminant root of each endpoint's determinant quadratic
    # gives the rate at which its lambda interval turns nonempty: just above
    # closed_form_rate, by the eps shift; nothing raises at overflow.
    eps = default_eps_feas(10.0)
    for alpha in (0.05, 0.1, 0.12, 0.2):
        rate = endpoint_threshold((alpha,), FC10, eps)
        assert rate > closed_form_rate(alpha, FC10)
        assert lambda_interval_sector(rate * (1.0 - 1e-9), alpha, FC10, eps) is None
        assert lambda_interval_sector(rate * (1.0 + 1e-9), alpha, FC10, eps) is not None
    alphas = (0.05, 0.12)
    assert endpoint_threshold(alphas, FC10, eps) == endpoint_threshold((0.05,), FC10, eps)
    huge = FunctionClass(1.0, 1e300)
    assert endpoint_threshold((1e-300, 2e-300), huge, default_eps_feas(1e300)) == 0.0


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
    quad = quad_form(lmi, _weights(kind, rho, k, weights))
    reference = 1e-9 * (1.0 + float(np.abs(quad).max()))
    assert default_eps_feas(fc.L / fc.m) == default_eps_feas(lmi.kappa) == reference


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
    ("wob1", 10.0, 1.2, None): "ac93b31238d256a10e36fefb27fc7ace4b70c6c61ec074e8621c622ef9d1df91",
    ("wob1", 7.0, 1.3, None): "4e9cf4d7ff2f5e290429531e454042a3810d69f926bd43d83926d43d32ab17d5",
    ("wob1", 5.0, 1.5, None): "3a29a260d948d76562616e18ca6e7401463f5d434a42cc7d325473f92a45d2fb",
    ("zf:1", 10.0, 1.2, None): "ac93b31238d256a10e36fefb27fc7ace4b70c6c61ec074e8621c622ef9d1df91",
    ("zf:1", 7.0, 1.3, None): "4e9cf4d7ff2f5e290429531e454042a3810d69f926bd43d83926d43d32ab17d5",
    ("zf:1", 5.0, 1.5, None): "3a29a260d948d76562616e18ca6e7401463f5d434a42cc7d325473f92a45d2fb",
    ("zf:2", 10.0, 1.2, None): "4470aac27489a502793dcb1ee1fc59e8056658b1be4e43dcaf368a2fc5aea828",
    ("zf:2", 7.0, 1.3, None): "1ab92d0a472bfafab7cb8535ec347a6502e722a83716019032532565f8a250ae",
    ("zf:2", 5.0, 1.5, None): "da16568f875f0f185fd9d671912f985ae213f0c88b3616aec084950646fe2688",
    ("zf:3", 10.0, 1.2, None): "884f969fe787fe9d6955ce2357b371b7e83bd8167578029c8d9879e92f386190",
    ("zf:3", 7.0, 1.3, None): "3868287dd9a1101c3554ad92332917c894dcc1855e5089330dd7464964277ec6",
    ("zf:3", 5.0, 1.5, None): "ef4426a1a64dd9861ffe4a80b0ff793a5bc83c2fdee4c73d7b206238ed9d5d05",
    ("wob1", 10.0, 1.2, (0.5,)):
        "617f6e5571ac4bb4eba158ba1a4c7cc87b1d1ae54cc225f0f77f4e14534f005f",
    ("zf:1", 10.0, 1.2, (0.4,)):
        "9791219d30bee1edf014fb976fdf68f4d513f4f44d4238dcb3663313bf0010f4",
    ("zf:2", 10.0, 1.2, (0.4, 0.2)):
        "dd495925ed513235f74ed71b453f0560f9964e2d10989ae810293c28a81a541d",
    ("zf:3", 10.0, 1.2, (0.3, 0.2, 0.1)):
        "5a98d26e9ff559ea466d03cb04f8dae7855b6dc9418161dcdab81831fec20e76",
}


@pytest.mark.parametrize("case", list(PINNED_WITNESSES), ids=str)
def test_dynamic_witnesses_pinned(case):
    iqc, kappa, c, weights = case
    kind, _, order = iqc.partition(":")
    fc = FunctionClass(1.0, kappa)
    cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=int(order or 2),
                   weights=weights)
    digest = hashlib.sha256(repr((cert.rho_star, cert.witness.lam, cert.cond_p, cert.weights,
                                  cert.bisection_iters)).encode())
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
